//! Sense amplifier models.
//!
//! The sense amplifier is the arbiter of every array-size limit discussed
//! in Sec. VI of the paper: a matchline (or bitline) swing can only be
//! resolved if it exceeds the amplifier's input offset plus noise floor —
//! the *sense margin*. We model latch-type voltage sense amps and
//! current-mode sense amps with an explicit resolvable-input threshold.

use crate::error::CircuitError;
use crate::tech::TechNode;

/// Sensing style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SenseKind {
    /// Cross-coupled latch resolving a differential voltage.
    VoltageLatch,
    /// Current conveyor comparing cell current against a reference.
    CurrentMode,
}

/// An analytical sense amplifier.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseAmp {
    /// Sensing style.
    pub kind: SenseKind,
    /// Minimum resolvable differential input: volts for
    /// [`SenseKind::VoltageLatch`], amperes for [`SenseKind::CurrentMode`].
    pub min_resolvable: f64,
    /// Input capacitance presented to the sensed line (F).
    pub input_cap: f64,
    tech: TechNode,
}

impl SenseAmp {
    /// A latch-type voltage sense amp with typical ~40 mV usable offset
    /// margin at the default node, scaled with Vdd across nodes.
    pub fn voltage_latch(tech: &TechNode) -> Self {
        Self {
            kind: SenseKind::VoltageLatch,
            min_resolvable: 0.040 * (tech.vdd / 1.0),
            input_cap: tech.gate_cap(6.0 * tech.min_width_um),
            tech: tech.clone(),
        }
    }

    /// A current-mode sense amp resolving ~1 µA differentials.
    pub fn current_mode(tech: &TechNode) -> Self {
        Self {
            kind: SenseKind::CurrentMode,
            min_resolvable: 1e-6,
            input_cap: tech.gate_cap(4.0 * tech.min_width_um),
            tech: tech.clone(),
        }
    }

    /// Resolution latency (s).
    ///
    /// Regeneration time grows logarithmically as the input differential
    /// approaches the resolvable floor: `t = t0 * ln(Vdd / dv)` clamped at
    /// the floor, a standard latch metastability model.
    ///
    /// # Panics
    ///
    /// Panics if `input_diff` is zero, negative, or NaN; guarded call
    /// sites (sweeps over unvalidated operating points) should use
    /// [`SenseAmp::try_latency`] instead.
    pub fn latency(&self, input_diff: f64) -> f64 {
        self.try_latency(input_diff)
            .expect("differential must be positive")
    }

    /// Fallible [`SenseAmp::latency`].
    ///
    /// Differentials between zero and [`SenseAmp::min_resolvable`] are
    /// *saturated* to the floor (the latch still resolves, at its
    /// worst-case metastable latency) rather than rejected; only
    /// zero/negative/NaN differentials — where the `ln(full/dv)` model
    /// leaves its domain — are errors.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NonPositiveDifferential`] if `input_diff` is not
    /// a positive number.
    pub fn try_latency(&self, input_diff: f64) -> Result<f64, CircuitError> {
        // The explicit NaN arm matters: `x <= 0.0` alone would let NaN through.
        if input_diff <= 0.0 || input_diff.is_nan() {
            return Err(CircuitError::NonPositiveDifferential { value: input_diff });
        }
        let t0 = 4.0 * self.tech.fo1_delay();
        let full = match self.kind {
            SenseKind::VoltageLatch => self.tech.vdd,
            SenseKind::CurrentMode => 100e-6,
        };
        let dv = input_diff.max(self.min_resolvable);
        Ok(t0 * (1.0 + (full / dv).ln().max(0.0)))
    }

    /// Whether the amplifier can resolve the given differential at all.
    pub fn can_resolve(&self, input_diff: f64) -> bool {
        input_diff >= self.min_resolvable
    }

    /// Energy (J) per sense operation.
    pub fn energy(&self) -> f64 {
        // Latch internal nodes ~ 8 minimum gate caps swing to Vdd.
        let c_int = self.tech.gate_cap(8.0 * self.tech.min_width_um);
        let base = self.tech.switch_energy(c_int + self.input_cap);
        match self.kind {
            SenseKind::VoltageLatch => base,
            // Current-mode amps burn static bias current while enabled.
            SenseKind::CurrentMode => base + 20e-6 * self.tech.vdd * self.latency(10e-6),
        }
    }

    /// Layout area (m²).
    pub fn area(&self) -> f64 {
        let f2 = self.tech.f2_area_m2();
        match self.kind {
            SenseKind::VoltageLatch => 120.0 * f2,
            SenseKind::CurrentMode => 200.0 * f2,
        }
    }

    /// Leakage power (W).
    pub fn leakage_power(&self) -> f64 {
        self.tech.leakage(8.0 * self.tech.min_width_um) * self.tech.vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechNode {
        TechNode::n40()
    }

    #[test]
    fn smaller_differential_is_slower() {
        let sa = SenseAmp::voltage_latch(&tech());
        assert!(sa.latency(0.05) > sa.latency(0.5));
    }

    #[test]
    fn latency_floors_at_min_resolvable() {
        let sa = SenseAmp::voltage_latch(&tech());
        // Below the floor the model clamps rather than diverging.
        assert_eq!(sa.latency(1e-9), sa.latency(sa.min_resolvable / 2.0));
    }

    #[test]
    fn can_resolve_threshold() {
        let sa = SenseAmp::voltage_latch(&tech());
        assert!(sa.can_resolve(0.1));
        assert!(!sa.can_resolve(0.001));
    }

    #[test]
    fn current_mode_costs_more_energy() {
        let t = tech();
        let v = SenseAmp::voltage_latch(&t);
        let c = SenseAmp::current_mode(&t);
        assert!(c.energy() > v.energy());
        assert!(c.area() > v.area());
    }

    #[test]
    fn offset_scales_with_vdd() {
        let hi = SenseAmp::voltage_latch(&TechNode::n130());
        let lo = SenseAmp::voltage_latch(&TechNode::n22());
        assert!(hi.min_resolvable > lo.min_resolvable);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_differential_panics() {
        SenseAmp::voltage_latch(&tech()).latency(0.0);
    }

    #[test]
    fn try_latency_rejects_non_positive_and_nan() {
        let sa = SenseAmp::voltage_latch(&tech());
        for bad in [0.0, -0.04, f64::NAN, f64::NEG_INFINITY] {
            match sa.try_latency(bad) {
                Err(CircuitError::NonPositiveDifferential { value }) => {
                    assert!(value.is_nan() || value <= 0.0)
                }
                other => panic!("expected domain error for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_latency_saturates_below_floor() {
        // A tiny-but-positive differential is saturated to the resolvable
        // floor (worst-case latch latency), not rejected: the operating
        // point is slow, not infeasible.
        let sa = SenseAmp::voltage_latch(&tech());
        let at_floor = sa.try_latency(sa.min_resolvable).unwrap();
        let below = sa.try_latency(sa.min_resolvable * 1e-6).unwrap();
        assert_eq!(below, at_floor);
        assert!(below.is_finite() && below > 0.0);
    }

    #[test]
    fn try_latency_agrees_with_latency_in_domain() {
        let sa = SenseAmp::current_mode(&tech());
        for dv in [1e-7, 1e-6, 5e-6, 1e-4] {
            assert_eq!(sa.try_latency(dv).unwrap(), sa.latency(dv));
        }
    }
}
