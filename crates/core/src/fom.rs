//! Figures of merit shared across the design space.

/// End-to-end figures of merit for one candidate design point.
///
/// Latency, energy, and area are "lower is better"; accuracy is "higher
/// is better".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fom {
    /// End-to-end latency per inference/query (s).
    pub latency_s: f64,
    /// Energy per inference/query (J).
    pub energy_j: f64,
    /// Silicon area of the dedicated hardware (mm²); 0 for rented
    /// general-purpose baselines.
    pub area_mm2: f64,
    /// Application accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl Fom {
    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.latency_s
    }

    /// Strict Pareto dominance: at least as good on every axis and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &Fom) -> bool {
        let le = self.latency_s <= other.latency_s
            && self.energy_j <= other.energy_j
            && self.area_mm2 <= other.area_mm2
            && self.accuracy >= other.accuracy;
        let lt = self.latency_s < other.latency_s
            || self.energy_j < other.energy_j
            || self.area_mm2 < other.area_mm2
            || self.accuracy > other.accuracy;
        le && lt
    }

    /// Validates that all fields are finite and in range.
    pub fn is_valid(&self) -> bool {
        self.latency_s.is_finite()
            && self.latency_s >= 0.0
            && self.energy_j.is_finite()
            && self.energy_j >= 0.0
            && self.area_mm2.is_finite()
            && self.area_mm2 >= 0.0
            && (0.0..=1.0).contains(&self.accuracy)
    }
}

/// A named, evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Display name (e.g. "3b FeFET CAM").
    pub name: String,
    /// Evaluated figures of merit.
    pub fom: Fom,
}

impl Candidate {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, fom: Fom) -> Self {
        Self {
            name: name.into(),
            fom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fom(l: f64, e: f64, a: f64, acc: f64) -> Fom {
        Fom {
            latency_s: l,
            energy_j: e,
            area_mm2: a,
            accuracy: acc,
        }
    }

    #[test]
    fn dominance_requires_strictness() {
        let a = fom(1.0, 1.0, 1.0, 0.9);
        let same = a;
        let worse = fom(2.0, 1.0, 1.0, 0.9);
        assert!(!a.dominates(&same));
        assert!(a.dominates(&worse));
        assert!(!worse.dominates(&a));
    }

    #[test]
    fn accuracy_axis_points_up() {
        let hi = fom(1.0, 1.0, 1.0, 0.95);
        let lo = fom(1.0, 1.0, 1.0, 0.90);
        assert!(hi.dominates(&lo));
    }

    #[test]
    fn incomparable_points_do_not_dominate() {
        let fast_big = fom(1.0, 1.0, 5.0, 0.9);
        let slow_small = fom(2.0, 1.0, 1.0, 0.9);
        assert!(!fast_big.dominates(&slow_small));
        assert!(!slow_small.dominates(&fast_big));
    }

    #[test]
    fn edp_and_validity() {
        let f = fom(2.0, 3.0, 1.0, 0.5);
        assert_eq!(f.edp(), 6.0);
        assert!(f.is_valid());
        assert!(!fom(-1.0, 0.0, 0.0, 0.5).is_valid());
        assert!(!fom(1.0, 0.0, 0.0, 1.5).is_valid());
    }
}
