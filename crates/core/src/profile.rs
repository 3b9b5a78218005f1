//! Top-down workload profiling and architecture recommendation
//! (Sec. VII, rightmost columns of Fig. 6).
//!
//! The flow the paper prescribes for algorithm/architecture researchers:
//! profile the workload's computational composition, decide which
//! alternative architecture the composition maps to, and derive which
//! device metrics matter most for that mapping (write-heavy → endurance,
//! large read-mostly datasets → density, and so on).

use xlda_syssim::workload::Workload;

/// Computational composition of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Fraction of operations in dense MVM kernels.
    pub mvm_fraction: f64,
    /// Fraction of operations in associative search kernels.
    pub search_fraction: f64,
    /// Fraction in irregular/elementwise kernels.
    pub other_fraction: f64,
    /// Memory writes per read (endurance pressure).
    pub writes_per_read: f64,
    /// Stationary working set (MiB).
    pub working_set_mib: f64,
}

impl WorkloadProfile {
    /// Builds a profile from a kernel trace. Kernels whose names contain
    /// `search`/`am` count as search; offloadable kernels as MVM; the
    /// rest as other.
    pub fn from_workload(w: &Workload, writes_per_read: f64) -> Self {
        let total = w.total_ops().max(1) as f64;
        let mut mvm = 0u64;
        let mut search = 0u64;
        let mut other = 0u64;
        let mut working_set = 0u64;
        for k in &w.kernels {
            if k.name.contains("search") || k.name.contains("am_") {
                search += k.compute_ops;
            } else if k.offloadable {
                mvm += k.compute_ops;
            } else {
                other += k.compute_ops;
            }
            working_set += k.weight_bytes;
        }
        Self {
            mvm_fraction: mvm as f64 / total,
            search_fraction: search as f64 / total,
            other_fraction: other as f64 / total,
            writes_per_read,
            working_set_mib: working_set as f64 / (1 << 20) as f64,
        }
    }

    /// Validates that fractions are sane.
    pub fn is_valid(&self) -> bool {
        let sum = self.mvm_fraction + self.search_fraction + self.other_fraction;
        (0.99..=1.01).contains(&sum) && self.writes_per_read >= 0.0 && self.working_set_mib >= 0.0
    }
}

/// Architecture lanes of the Fig. 1 design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchRecommendation {
    /// Crossbar in-memory compute (MVM-dominated).
    CrossbarImc,
    /// Associative-memory acceleration (search-dominated).
    AssociativeMemory,
    /// Mixed crossbar + AM pipeline (both stages significant).
    CrossbarPlusAm,
    /// Stay on a general-purpose baseline (irregular workload).
    GeneralPurpose,
}

/// Recommends an architecture lane from the workload composition.
pub fn recommend(profile: &WorkloadProfile) -> ArchRecommendation {
    let mvm = profile.mvm_fraction;
    let search = profile.search_fraction;
    if search >= 0.25 && mvm >= 0.25 {
        ArchRecommendation::CrossbarPlusAm
    } else if search >= 0.3 {
        ArchRecommendation::AssociativeMemory
    } else if mvm >= 0.5 {
        ArchRecommendation::CrossbarImc
    } else {
        ArchRecommendation::GeneralPurpose
    }
}

/// Device metrics that top-down analysis can prioritize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceMetric {
    /// Write endurance (cycles).
    Endurance,
    /// Write latency/energy.
    WriteSpeed,
    /// Bits per area (density).
    Density,
    /// Read latency.
    ReadSpeed,
    /// On/off ratio (sensing margin).
    OnOffRatio,
}

/// Orders device metrics by importance for the given workload profile
/// (Sec. VII: "are data traffic patterns write heavy, thereby
/// prioritizing device endurance...? are datasets large with frequent
/// reads, thereby prioritizing denser memory?").
pub fn device_priorities(profile: &WorkloadProfile) -> Vec<DeviceMetric> {
    let mut scored: Vec<(DeviceMetric, f64)> = vec![
        (DeviceMetric::Endurance, 2.0 * profile.writes_per_read),
        (DeviceMetric::WriteSpeed, 1.5 * profile.writes_per_read),
        (
            DeviceMetric::Density,
            (profile.working_set_mib / 16.0).min(2.0) * (1.0 - profile.writes_per_read).max(0.0)
                + profile.working_set_mib / 64.0,
        ),
        (
            DeviceMetric::ReadSpeed,
            profile.mvm_fraction + profile.search_fraction,
        ),
        (DeviceMetric::OnOffRatio, 2.0 * profile.search_fraction),
    ];
    scored.sort_by(|a, b| crate::order::desc_nan_last(a.1, b.1));
    scored.into_iter().map(|(m, _)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_syssim::workload::{cnn_trace, hdc_trace, mann_trace};

    #[test]
    fn cnn_profile_recommends_crossbar() {
        let p = WorkloadProfile::from_workload(&cnn_trace(8), 0.0);
        assert!(p.is_valid());
        assert!(p.mvm_fraction > 0.9);
        assert_eq!(recommend(&p), ArchRecommendation::CrossbarImc);
    }

    #[test]
    fn hdc_profile_recommends_mixed_pipeline() {
        // HDC with many classes: encoding MVM plus substantial search.
        let p = WorkloadProfile::from_workload(&hdc_trace(617, 4096, 500), 0.0);
        assert!(p.search_fraction > 0.25, "{p:?}");
        assert_eq!(recommend(&p), ArchRecommendation::CrossbarPlusAm);
    }

    #[test]
    fn mann_has_search_component() {
        let p = WorkloadProfile::from_workload(&mann_trace(65_000, 64, 128, 10_000), 0.0);
        assert!(p.search_fraction > 0.0);
        assert!(p.is_valid());
    }

    #[test]
    fn irregular_workload_stays_general_purpose() {
        let p = WorkloadProfile {
            mvm_fraction: 0.2,
            search_fraction: 0.1,
            other_fraction: 0.7,
            writes_per_read: 0.1,
            working_set_mib: 4.0,
        };
        assert_eq!(recommend(&p), ArchRecommendation::GeneralPurpose);
    }

    #[test]
    fn write_heavy_prioritizes_endurance() {
        let p = WorkloadProfile {
            mvm_fraction: 0.5,
            search_fraction: 0.1,
            other_fraction: 0.4,
            writes_per_read: 1.5,
            working_set_mib: 4.0,
        };
        let metrics = device_priorities(&p);
        assert_eq!(metrics[0], DeviceMetric::Endurance);
    }

    #[test]
    fn large_read_mostly_dataset_prioritizes_density() {
        let p = WorkloadProfile {
            mvm_fraction: 0.4,
            search_fraction: 0.2,
            other_fraction: 0.4,
            writes_per_read: 0.001,
            working_set_mib: 512.0,
        };
        let metrics = device_priorities(&p);
        assert_eq!(metrics[0], DeviceMetric::Density);
    }

    #[test]
    fn search_heavy_prioritizes_on_off_ratio_over_density() {
        let p = WorkloadProfile {
            mvm_fraction: 0.1,
            search_fraction: 0.8,
            other_fraction: 0.1,
            writes_per_read: 0.01,
            working_set_mib: 1.0,
        };
        let metrics = device_priorities(&p);
        let pos = |m: DeviceMetric| metrics.iter().position(|&x| x == m).expect("present");
        assert!(pos(DeviceMetric::OnOffRatio) < pos(DeviceMetric::Density));
    }
}
