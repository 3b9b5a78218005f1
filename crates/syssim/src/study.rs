//! Speedup studies (the Sec. V evaluation).
//!
//! Sweeps accelerator attachment over benchmark workloads and reports
//! end-to-end speedup — the system-simulation methodology the paper
//! credits with showing "up to 20×" CNN speedup from analog crossbars
//! (ALPINE), plus the Amdahl sensitivity to the offloadable fraction.

use crate::system::{System, SystemConfig};
use crate::workload::Workload;

/// One row of the speedup study.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// Offloadable operation fraction.
    pub offload_fraction: f64,
    /// CPU-only end-to-end time (s).
    pub cpu_time_s: f64,
    /// Accelerated end-to-end time (s).
    pub accel_time_s: f64,
    /// End-to-end speedup.
    pub speedup: f64,
    /// Energy ratio (CPU / accelerated).
    pub energy_gain: f64,
}

/// Runs a workload on the CPU-only and accelerated systems and reports
/// the end-to-end speedup.
pub fn offload_speedup(workload: &Workload, accel_config: &SystemConfig) -> SpeedupRow {
    let cpu = System::new(&SystemConfig::cpu_only()).run(workload);
    let acc = System::new(accel_config).run(workload);
    SpeedupRow {
        workload: workload.name.clone(),
        offload_fraction: workload.offloadable_fraction(),
        cpu_time_s: cpu.total_time_s,
        accel_time_s: acc.total_time_s,
        speedup: cpu.total_time_s / acc.total_time_s,
        energy_gain: cpu.energy_j / acc.energy_j,
    }
}

/// Sweeps several workloads against the default crossbar system.
pub fn benchmark_suite(workloads: &[Workload]) -> Vec<SpeedupRow> {
    let cfg = SystemConfig::with_crossbar();
    workloads.iter().map(|w| offload_speedup(w, &cfg)).collect()
}

/// Amdahl sensitivity: speedup as a function of the offloadable fraction,
/// built from a synthetic workload whose MVM share is swept.
pub fn amdahl_sweep(fractions: &[f64]) -> Vec<(f64, f64)> {
    use crate::workload::{KernelOp, Workload};
    fractions
        .iter()
        .map(|&f| {
            let total: u64 = 20_000_000_000;
            let off = (total as f64 * f) as u64;
            let w = Workload {
                name: format!("synthetic-{f:.2}"),
                kernels: vec![
                    KernelOp {
                        name: "mvm".into(),
                        compute_ops: off.max(1),
                        weight_bytes: off / 16,
                        activation_bytes: off / 256,
                        offloadable: true,
                    },
                    KernelOp {
                        name: "scalar".into(),
                        compute_ops: (total - off).max(1),
                        weight_bytes: 0,
                        activation_bytes: (total - off) / 16,
                        offloadable: false,
                    },
                ],
            };
            let row = offload_speedup(&w, &SystemConfig::with_crossbar());
            (f, row.speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{cnn_trace, lstm_trace, transformer_trace};

    #[test]
    fn cnn_speedup_in_papers_band() {
        // Sec. V: "analog crossbars can speed up the execution of
        // benchmark convolutional networks by up to 20X".
        let row = offload_speedup(&cnn_trace(10), &SystemConfig::with_crossbar());
        assert!(
            row.speedup > 8.0 && row.speedup < 40.0,
            "speedup {}",
            row.speedup
        );
    }

    #[test]
    fn cnn_gains_most_across_suite() {
        let rows = benchmark_suite(&[
            cnn_trace(10),
            lstm_trace(16, 512),
            transformer_trace(4, 512, 256),
        ]);
        let cnn = rows[0].speedup;
        let lstm = rows[1].speedup;
        let tfm = rows[2].speedup;
        assert!(cnn > tfm, "cnn {cnn} transformer {tfm}");
        assert!(tfm > lstm || cnn > lstm, "lstm should gain least: {lstm}");
        assert!(rows.iter().all(|r| r.speedup > 1.0));
    }

    #[test]
    fn amdahl_sweep_is_monotone() {
        let points = amdahl_sweep(&[0.0, 0.5, 0.9, 0.99]);
        for w in points.windows(2) {
            assert!(
                w[1].1 >= w[0].1 * 0.95,
                "speedup should not fall as offload grows: {points:?}"
            );
        }
        // Near-zero offload ~ no speedup; heavy offload >> 1.
        assert!(points[0].1 < 1.5);
        assert!(points[3].1 > 5.0);
    }
}
