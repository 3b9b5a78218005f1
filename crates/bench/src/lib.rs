//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index).
//!
//! Each experiment lives in its own module with a `run(quick)` entry
//! point that executes the underlying simulations and returns structured
//! results; the `src/bin/fig*.rs` binaries call `run(false)` and print
//! the series/rows the paper reports. `quick = true` shrinks Monte-Carlo
//! budgets for integration tests.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig3c` | HDC accuracy vs HV element precision |
//! | `fig3d` | FeFET CAM-cell conductance vs voltage deviation |
//! | `fig3e` | Search share of end-to-end HDC runtime |
//! | `fig3f` | Accuracy vs HV length × CAM subarray size |
//! | `fig3g` | V_th state overlap and accuracy vs programming sigma |
//! | `fig3h` | Inference latency across platforms at iso-accuracy |
//! | `fig4c` | TLSH suppression of unstable hash bits |
//! | `fig4d` | Correlation of hash distance with cosine distance |
//! | `fig4e` | Few-shot accuracy vs hash length + latency advantage |
//! | `fig5`  | Eva-CAM validation vs published chips |
//! | `secv_speedup` | System-level crossbar offload speedup (Sec. V) |
//! | `fig6_triage`  | Top-down triage and device-lever ranking (Sec. VII) |
//! | `nvram_sweep`  | RAM-lane FOM sweep (Sec. VI tooling) |
//! | `ablations`    | design-choice ablations (DESIGN.md §4) |
//! | `extensions`   | the paper's proposed enhancements (Secs. VI-VII) |

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod ablations;
pub mod extensions;
pub mod fig3c;
pub mod fig3d;
pub mod fig3e;
pub mod fig3f;
pub mod fig3g;
pub mod fig3h;
pub mod fig4c;
pub mod fig4d;
pub mod fig4e;
pub mod fig5;
pub mod fig6_triage;
pub mod flight_bench;
pub mod loadgen;
pub mod nvram_sweep;
pub mod secv_speedup;
pub mod store_bench;
pub mod sweep_bench;

use xlda_datagen::ClassificationSpec;

/// Serializes the tests that run workloads against the process-global
/// memo and span state. Measurements toggle `memo::set_enabled` and
/// `clear_all`; a sibling's memo-off window covering another test's warm
/// phase would starve that phase of hits.
#[cfg(test)]
pub(crate) static MEMO_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The "hard" ISOLET-like dataset used by the Fig. 3 accuracy sweeps.
///
/// The stock preset is nearly saturating; raising the intra-class noise
/// moves the operating point to where precision/aggregation/variation
/// effects are visible — the regime the paper's figures live in.
pub fn hard_isolet(quick: bool) -> xlda_datagen::Dataset {
    hard_isolet_with(4.0, quick)
}

/// [`hard_isolet`] with an explicit noise level, for experiments that
/// need a different operating point on the accuracy curve.
pub fn hard_isolet_with(noise: f64, quick: bool) -> xlda_datagen::Dataset {
    let mut spec = ClassificationSpec::isolet_like();
    spec.noise = noise;
    // Small-sample training in both modes: HDC's motivating regime
    // ("can learn by looking at a small number of training images") and
    // the operating point where precision/variation effects are visible.
    spec.train_per_class = 20;
    spec.test_per_class = if quick { 8 } else { 20 };
    spec.generate()
}

/// Formats seconds with an engineering unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.3} ns", s * 1e9)
    }
}

/// Formats joules with an engineering unit.
pub fn fmt_energy(j: f64) -> String {
    if j >= 1.0 {
        format!("{j:.3} J")
    } else if j >= 1e-3 {
        format!("{:.3} mJ", j * 1e3)
    } else if j >= 1e-6 {
        format!("{:.3} µJ", j * 1e6)
    } else if j >= 1e-9 {
        format!("{:.3} nJ", j * 1e9)
    } else {
        format!("{:.3} pJ", j * 1e12)
    }
}

/// Prints a rule line for table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_time(2.5e-9), "2.500 ns");
        assert_eq!(fmt_time(2.5e-6), "2.500 µs");
        assert_eq!(fmt_energy(270e-12), "270.000 pJ");
    }

    #[test]
    fn hard_isolet_is_hard_but_learnable() {
        let d = hard_isolet(true);
        let acc = d.centroid_accuracy();
        assert!(acc > 0.5 && acc < 0.999, "accuracy {acc}");
    }
}
