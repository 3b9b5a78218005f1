//! Eva-CiM-style in-memory-computing favorability analysis (Sec. VI).
//!
//! Eva-CiM "enables researchers to assess whether a program is
//! IMC-favorable (i.e., can benefit from an IMC architecture), the pros
//! and cons of increased memory size, etc." — producing system-level
//! energy and performance estimates for a program on a processor with an
//! attached in-memory-compute array. This module reproduces that lane of
//! the tooling: it composes the system simulator's workload traces, the
//! crossbar macro model, and the RAM model into a *favorability verdict*
//! with the energy/delay numbers behind it.

use xlda_circuit::tech::TechNode;
use xlda_crossbar::macro_model::CrossbarMacro;
use xlda_crossbar::CrossbarConfig;
use xlda_syssim::study::offload_speedup;
use xlda_syssim::system::{AccelConfig, SystemConfig};
use xlda_syssim::workload::Workload;

/// The verdict Eva-CiM-style analysis renders for a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Favorability {
    /// Large end-to-end gains: invest in IMC for this program.
    StronglyFavorable,
    /// Real but modest gains: IMC helps if the hardware is already there.
    MarginallyFavorable,
    /// No meaningful gain (Amdahl-limited or data-movement-bound).
    Unfavorable,
}

/// Full analysis result for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct CimAnalysis {
    /// Program name.
    pub workload: String,
    /// End-to-end speedup with the IMC array attached.
    pub speedup: f64,
    /// End-to-end energy gain.
    pub energy_gain: f64,
    /// Fraction of operations the IMC array can absorb.
    pub offload_fraction: f64,
    /// Silicon cost of the attached IMC array (mm²).
    pub imc_area_mm2: f64,
    /// The verdict.
    pub verdict: Favorability,
}

/// Analysis thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CimCriteria {
    /// Speedup at or above which a program is strongly favorable.
    pub strong_speedup: f64,
    /// Speedup below which a program is unfavorable.
    pub min_speedup: f64,
}

impl Default for CimCriteria {
    /// Strong ≥ 5×; unfavorable < 1.5×.
    fn default() -> Self {
        Self {
            strong_speedup: 5.0,
            min_speedup: 1.5,
        }
    }
}

/// Analyzes whether `workload` is IMC-favorable on a system with the
/// given accelerator attached.
pub fn analyze(workload: &Workload, accel: &AccelConfig, criteria: &CimCriteria) -> CimAnalysis {
    let system = SystemConfig {
        accel: Some(*accel),
        ..SystemConfig::cpu_only()
    };
    let row = offload_speedup(workload, &system);
    let xmacro = CrossbarMacro::new(
        &CrossbarConfig {
            rows: accel.rows,
            cols: accel.cols,
            ..CrossbarConfig::default()
        },
        &TechNode::n40(),
        8,
    );
    let imc_area_mm2 = accel.units as f64 * xmacro.area_m2() * 1e6;
    let verdict = if row.speedup >= criteria.strong_speedup {
        Favorability::StronglyFavorable
    } else if row.speedup >= criteria.min_speedup {
        Favorability::MarginallyFavorable
    } else {
        Favorability::Unfavorable
    };
    CimAnalysis {
        workload: workload.name.clone(),
        speedup: row.speedup,
        energy_gain: row.energy_gain,
        offload_fraction: row.offload_fraction,
        imc_area_mm2,
        verdict,
    }
}

/// The "pros and cons of increased memory size" question: sweeps the IMC
/// array size and reports (tiles-equivalent capacity, speedup, area).
///
/// Returns one row per `units` entry.
pub fn array_size_sweep(
    workload: &Workload,
    base: &AccelConfig,
    unit_counts: &[usize],
) -> Vec<(usize, f64, f64)> {
    unit_counts
        .iter()
        .map(|&units| {
            let accel = AccelConfig { units, ..*base };
            let a = analyze(workload, &accel, &CimCriteria::default());
            (units, a.speedup, a.imc_area_mm2)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_syssim::workload::{cnn_trace, KernelOp};

    #[test]
    fn cnn_is_strongly_favorable() {
        let a = analyze(
            &cnn_trace(8),
            &AccelConfig::default(),
            &CimCriteria::default(),
        );
        assert_eq!(a.verdict, Favorability::StronglyFavorable, "{a:?}");
        assert!(a.speedup > 5.0);
        assert!(a.imc_area_mm2 > 0.0);
    }

    #[test]
    fn scalar_program_is_unfavorable() {
        let w = Workload {
            name: "pointer-chasing".into(),
            kernels: vec![KernelOp {
                name: "scalar".into(),
                compute_ops: 1_000_000_000,
                weight_bytes: 0,
                activation_bytes: 64_000_000,
                offloadable: false,
            }],
        };
        let a = analyze(&w, &AccelConfig::default(), &CimCriteria::default());
        assert_eq!(a.verdict, Favorability::Unfavorable);
        assert!(a.speedup <= 1.01);
    }

    #[test]
    fn mixed_program_is_marginal() {
        let w = Workload {
            name: "half-mvm".into(),
            kernels: vec![
                KernelOp {
                    name: "mvm".into(),
                    compute_ops: 1_000_000_000,
                    weight_bytes: 4_000_000,
                    activation_bytes: 400_000,
                    offloadable: true,
                },
                KernelOp {
                    name: "scalar".into(),
                    compute_ops: 1_000_000_000,
                    weight_bytes: 0,
                    activation_bytes: 4_000_000,
                    offloadable: false,
                },
            ],
        };
        let a = analyze(&w, &AccelConfig::default(), &CimCriteria::default());
        assert_eq!(a.verdict, Favorability::MarginallyFavorable, "{a:?}");
    }

    #[test]
    fn array_size_sweep_shows_diminishing_returns() {
        let sweep = array_size_sweep(&cnn_trace(6), &AccelConfig::default(), &[1, 2, 4, 16]);
        assert_eq!(sweep.len(), 4);
        // Speedup never falls with more units; area grows linearly.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "{sweep:?}");
            assert!(w[1].2 > w[0].2);
        }
        // Diminishing returns: the 8x unit jump from 2 to 16 gains less
        // than 8x the speedup.
        let gain = sweep[3].1 / sweep[1].1;
        assert!(gain < 8.0, "gain {gain}");
    }
}
