//! Logical-effort gate delay and energy models.
//!
//! The analytical array models need quick, composable estimates of logic
//! delay (decoders, drivers, control). We use the classic logical-effort
//! formulation: delay = tau * (p + g * h), with tau anchored to the
//! technology's FO1 inverter delay.

use crate::tech::TechNode;

/// Static CMOS gate families with their logical effort and parasitic delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter: g = 1, p = 1.
    Inverter,
    /// n-input NAND: g = (n+2)/3, p = n.
    Nand(u8),
    /// n-input NOR: g = (2n+1)/3, p = n.
    Nor(u8),
}

impl GateKind {
    /// Logical effort of the gate.
    ///
    /// # Panics
    ///
    /// Panics for 0-input NAND/NOR.
    pub fn logical_effort(&self) -> f64 {
        match *self {
            GateKind::Inverter => 1.0,
            GateKind::Nand(n) => {
                assert!(n >= 1, "NAND needs at least one input");
                (n as f64 + 2.0) / 3.0
            }
            GateKind::Nor(n) => {
                assert!(n >= 1, "NOR needs at least one input");
                (2.0 * n as f64 + 1.0) / 3.0
            }
        }
    }

    /// Parasitic delay of the gate (in units of the inverter parasitic).
    ///
    /// # Panics
    ///
    /// Panics for 0-input NAND/NOR.
    pub fn parasitic(&self) -> f64 {
        match *self {
            GateKind::Inverter => 1.0,
            GateKind::Nand(n) | GateKind::Nor(n) => {
                assert!(n >= 1, "gate needs at least one input");
                n as f64
            }
        }
    }
}

/// A sized static CMOS gate in a given technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate family.
    pub kind: GateKind,
    /// Drive strength relative to a minimum inverter.
    pub size: f64,
    tech: TechNode,
}

impl Gate {
    /// Creates a gate of relative drive strength `size` (1.0 = minimum
    /// inverter drive).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not positive.
    pub fn new(kind: GateKind, size: f64, tech: &TechNode) -> Self {
        assert!(size > 0.0, "gate size must be positive");
        Self {
            kind,
            size,
            tech: tech.clone(),
        }
    }

    /// Input capacitance presented by this gate (F).
    pub fn input_cap(&self) -> f64 {
        let min_cin = self.tech.gate_cap(3.0 * self.tech.min_width_um);
        min_cin * self.size * self.kind.logical_effort()
    }

    /// Propagation delay (s) when driving load capacitance `c_load`.
    pub fn delay(&self, c_load: f64) -> f64 {
        let tau = self.tech.fo1_delay();
        let min_cin = self.tech.gate_cap(3.0 * self.tech.min_width_um);
        let h = c_load / (min_cin * self.size);
        tau * (self.kind.parasitic() + self.kind.logical_effort() * h)
    }

    /// Dynamic switching energy (J) for one output transition into
    /// `c_load`, including self-loading.
    pub fn switching_energy(&self, c_load: f64) -> f64 {
        let c_self = self.tech.drain_cap(3.0 * self.tech.min_width_um) * self.size;
        self.tech.switch_energy(c_load + c_self)
    }

    /// Leakage power (W) of the gate.
    pub fn leakage_power(&self) -> f64 {
        let w = 3.0 * self.tech.min_width_um * self.size;
        self.tech.leakage(w) * self.tech.vdd * 0.5
    }

    /// Layout area estimate (m²): transistor area with routing overhead.
    pub fn area(&self) -> f64 {
        let f = self.tech.feature_m();
        let inputs = match self.kind {
            GateKind::Inverter => 1.0,
            GateKind::Nand(n) | GateKind::Nor(n) => n as f64,
        };
        // ~30 F² per transistor pair, scaled by size and fan-in.
        30.0 * f * f * self.size * inputs
    }
}

/// A geometrically sized inverter buffer chain driving a large load.
///
/// Used for wordline/searchline drivers: given an input capacitance budget
/// and an output load, the chain is sized with stage effort ~4.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferChain {
    stages: usize,
    stage_effort: f64,
    tech: TechNode,
    c_in: f64,
    c_load: f64,
}

impl BufferChain {
    /// Sizes a chain from input capacitance `c_in` to load `c_load`.
    ///
    /// Chooses the number of stages that keeps per-stage effort near the
    /// optimum of ~4. A chain driving a load smaller than its input is a
    /// single stage.
    ///
    /// Not memoized: sizing is two `ln`, a `round` and a `powf`, cheaper
    /// than a memo lookup.
    ///
    /// # Panics
    ///
    /// Panics if either capacitance is not positive.
    pub fn size_for(c_in: f64, c_load: f64, tech: &TechNode) -> Self {
        assert!(c_in > 0.0 && c_load > 0.0, "capacitances must be positive");
        let total_effort = (c_load / c_in).max(1.0);
        let stages = (total_effort.ln() / 4.0f64.ln()).round().max(1.0) as usize;
        let stage_effort = total_effort.powf(1.0 / stages as f64);
        Self {
            stages,
            stage_effort,
            tech: tech.clone(),
            c_in,
            c_load,
        }
    }

    /// Number of inverter stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Total propagation delay (s).
    pub fn delay(&self) -> f64 {
        let tau = self.tech.fo1_delay();
        self.stages as f64 * tau * (1.0 + self.stage_effort)
    }

    /// Total switching energy (J) for one transition (all stages).
    pub fn energy(&self) -> f64 {
        // Sum of stage output capacitances: c_in * (f + f^2 + ... + f^n).
        let f = self.stage_effort;
        let mut c_total = 0.0;
        let mut c = self.c_in;
        for _ in 0..self.stages {
            c *= f;
            c_total += c;
        }
        // Last stage drives the actual load; replace its ideal cap.
        c_total += self.c_load - c;
        self.tech.switch_energy(c_total.max(self.c_load))
    }

    /// Area estimate (m²) of the whole chain.
    pub fn area(&self) -> f64 {
        let f = self.stage_effort;
        let mut size = 1.0;
        let mut total = 0.0;
        for _ in 0..self.stages {
            total += size;
            size *= f;
        }
        let min_inv_area = 30.0 * self.tech.f2_area_m2();
        total * min_inv_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechNode {
        TechNode::n40()
    }

    #[test]
    fn logical_effort_values() {
        assert_eq!(GateKind::Inverter.logical_effort(), 1.0);
        assert!((GateKind::Nand(2).logical_effort() - 4.0 / 3.0).abs() < 1e-12);
        assert!((GateKind::Nor(2).logical_effort() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bigger_gate_is_faster_into_same_load() {
        let t = tech();
        let small = Gate::new(GateKind::Inverter, 1.0, &t);
        let big = Gate::new(GateKind::Inverter, 8.0, &t);
        let load = 50e-15;
        assert!(big.delay(load) < small.delay(load));
    }

    #[test]
    fn nand_slower_than_inverter() {
        let t = tech();
        let inv = Gate::new(GateKind::Inverter, 1.0, &t);
        let nand = Gate::new(GateKind::Nand(4), 1.0, &t);
        let load = 10e-15;
        assert!(nand.delay(load) > inv.delay(load));
    }

    #[test]
    fn buffer_chain_stage_count_grows_with_load() {
        let t = tech();
        let c_in = t.gate_cap(3.0 * t.min_width_um);
        let small = BufferChain::size_for(c_in, c_in * 4.0, &t);
        let large = BufferChain::size_for(c_in, c_in * 4000.0, &t);
        assert!(large.stages() > small.stages());
    }

    #[test]
    fn buffer_chain_beats_single_gate_for_big_load() {
        let t = tech();
        let c_in = t.gate_cap(3.0 * t.min_width_um);
        let load = c_in * 10_000.0;
        let chain = BufferChain::size_for(c_in, load, &t);
        let single = Gate::new(GateKind::Inverter, 1.0, &t);
        assert!(chain.delay() < single.delay(load));
    }

    #[test]
    fn buffer_chain_energy_at_least_load_energy() {
        let t = tech();
        let c_in = t.gate_cap(3.0 * t.min_width_um);
        let load = 200e-15;
        let chain = BufferChain::size_for(c_in, load, &t);
        assert!(chain.energy() >= t.switch_energy(load));
    }

    #[test]
    fn tiny_load_single_stage() {
        let t = tech();
        let c_in = 10e-15;
        let chain = BufferChain::size_for(c_in, 1e-15, &t);
        assert_eq!(chain.stages(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_gate_panics() {
        Gate::new(GateKind::Inverter, 0.0, &tech());
    }

    #[test]
    fn size_for_is_deterministic() {
        let t = tech();
        let a = BufferChain::size_for(2e-15, 150e-15, &t);
        let b = BufferChain::size_for(2e-15, 150e-15, &t);
        assert_eq!(a, b);
        assert_eq!(a.delay().to_bits(), b.delay().to_bits());
        assert_eq!(a.energy().to_bits(), b.energy().to_bits());
    }
}
