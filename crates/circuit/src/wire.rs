//! Interconnect RC models.
//!
//! Wordlines, searchlines, bitlines, matchlines, and the H-tree routing in
//! the array organizations are all distributed RC lines. We provide Elmore
//! delay for unbuffered wires and an optimally repeated wire for long
//! global routes.

use crate::gate::BufferChain;
use crate::tech::TechNode;

/// A straight wire segment in a given technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// Length in meters.
    pub length_m: f64,
    tech: TechNode,
}

impl Wire {
    /// Creates a wire of `length_m` meters.
    ///
    /// # Panics
    ///
    /// Panics if the length is negative.
    pub fn new(length_m: f64, tech: &TechNode) -> Self {
        assert!(length_m >= 0.0, "negative wire length");
        Self {
            length_m,
            tech: tech.clone(),
        }
    }

    /// Total wire resistance (Ω).
    pub fn resistance(&self) -> f64 {
        self.tech.wire_r_per_um * self.length_m * 1e6
    }

    /// Total wire capacitance (F).
    pub fn capacitance(&self) -> f64 {
        self.tech.wire_c_per_um * self.length_m * 1e6
    }

    /// Elmore delay (s) of the distributed line itself: `0.38 R C`.
    pub fn elmore_delay(&self) -> f64 {
        0.38 * self.resistance() * self.capacitance()
    }

    /// Elmore delay (s) including a lumped driver resistance and load
    /// capacitance: `0.69 (R_drv (C_w + C_load) ) + 0.38 R_w C_w +
    /// 0.69 R_w C_load`.
    pub fn driven_delay(&self, r_driver: f64, c_load: f64) -> f64 {
        let rw = self.resistance();
        let cw = self.capacitance();
        0.69 * r_driver * (cw + c_load) + 0.38 * rw * cw + 0.69 * rw * c_load
    }

    /// Energy (J) to swing the wire plus load to Vdd once.
    pub fn switch_energy(&self, c_load: f64) -> f64 {
        self.tech.switch_energy(self.capacitance() + c_load)
    }
}

/// A long wire broken into repeated (buffered) segments.
///
/// Repeater insertion converts the quadratic RC growth of a long line into
/// linear delay; the array organization models use this for inter-mat
/// routing.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatedWire {
    segments: usize,
    segment: Wire,
    chain: BufferChain,
}

impl RepeatedWire {
    /// Builds a repeated wire of total length `length_m`, splitting into
    /// segments of at most `seg_len_m`.
    ///
    /// Not memoized: a build costs about what a memo lookup does.
    ///
    /// # Panics
    ///
    /// Panics if lengths are not positive.
    pub fn new(length_m: f64, seg_len_m: f64, tech: &TechNode) -> Self {
        assert!(
            length_m > 0.0 && seg_len_m > 0.0,
            "lengths must be positive"
        );
        // Deliberately unspanned: one wire build is under 100 ns, so a
        // span would cost most of what it measures. Wire time lands in
        // the calling layer's self time instead.
        let segments = (length_m / seg_len_m).ceil().max(1.0) as usize;
        let segment = Wire::new(length_m / segments as f64, tech);
        let c_in = tech.gate_cap(3.0 * tech.min_width_um);
        let chain = BufferChain::size_for(c_in, segment.capacitance().max(c_in), tech);
        Self {
            segments,
            segment,
            chain,
        }
    }

    /// Number of repeated segments.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Total delay (s): per-segment buffer + Elmore delay, times segments.
    pub fn delay(&self) -> f64 {
        self.segments as f64 * (self.chain.delay() + self.segment.elmore_delay())
    }

    /// Total switching energy (J) for one transition along the whole wire.
    pub fn energy(&self) -> f64 {
        self.segments as f64 * (self.chain.energy() + self.segment.switch_energy(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechNode {
        TechNode::n40()
    }

    #[test]
    fn rc_scale_linearly_with_length() {
        let t = tech();
        let w1 = Wire::new(100e-6, &t);
        let w2 = Wire::new(200e-6, &t);
        assert!((w2.resistance() / w1.resistance() - 2.0).abs() < 1e-12);
        assert!((w2.capacitance() / w1.capacitance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn elmore_quadratic_in_length() {
        let t = tech();
        let w1 = Wire::new(100e-6, &t);
        let w2 = Wire::new(200e-6, &t);
        assert!((w2.elmore_delay() / w1.elmore_delay() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn driven_delay_exceeds_bare_elmore() {
        let t = tech();
        let w = Wire::new(100e-6, &t);
        assert!(w.driven_delay(1e3, 10e-15) > w.elmore_delay());
    }

    #[test]
    fn repeated_wire_linearizes_delay() {
        let t = tech();
        let long = Wire::new(5e-3, &t); // 5 mm unbuffered
        let rep = RepeatedWire::new(5e-3, 250e-6, &t);
        assert!(rep.segments() >= 20);
        assert!(rep.delay() < long.elmore_delay());
    }

    #[test]
    fn repeated_wire_delay_roughly_linear() {
        let t = tech();
        let a = RepeatedWire::new(1e-3, 100e-6, &t);
        let b = RepeatedWire::new(2e-3, 100e-6, &t);
        let ratio = b.delay() / a.delay();
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn zero_length_wire_is_free() {
        let t = tech();
        let w = Wire::new(0.0, &t);
        assert_eq!(w.resistance(), 0.0);
        assert_eq!(w.elmore_delay(), 0.0);
    }
}
