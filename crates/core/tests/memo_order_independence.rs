//! A design point's answer must not depend on what the process evaluated
//! before it.
//!
//! The memo caches key every `f64` input by its exact bit pattern, so a
//! cached sub-result can only ever be reused for identical inputs. This
//! lives in its own test binary because it clears the process-global
//! caches, which would disturb tests running beside it.

use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{HdcScenario, Scenario};
use xlda_core::sweep::memo;

fn hdc(dim_in: usize, classes: usize, hv: usize, hv_3b: usize) -> HdcScenario {
    HdcScenario {
        dim_in,
        classes,
        hv_dim_sw: hv,
        hv_dim_3b: hv_3b,
        hv_dim_2b: hv,
        hv_dim_1b: hv,
        tech: TechNode::n90(),
        ..HdcScenario::default()
    }
}

/// Names and exact FOM bits of a candidate set, or the error message.
fn bits(s: &HdcScenario) -> Result<Vec<(String, [u64; 4])>, String> {
    s.candidates()
        .map(|cands| {
            cands
                .into_iter()
                .map(|c| {
                    let f = c.fom;
                    (
                        c.name,
                        [
                            f.latency_s.to_bits(),
                            f.energy_j.to_bits(),
                            f.area_mm2.to_bits(),
                            f.accuracy.to_bits(),
                        ],
                    )
                })
                .collect()
        })
        .map_err(|e| e.to_string())
}

#[test]
fn hdc_candidates_do_not_depend_on_evaluation_history() {
    let probe = hdc(1824, 84, 5120, 2560);
    let earlier = hdc(256, 36, 3072, 1536);

    memo::clear_all();
    let alone = bits(&probe);
    memo::clear_all();
    let _ = bits(&earlier);
    let after = bits(&probe);

    assert!(alone.is_ok(), "{alone:?}");
    assert_eq!(alone, after, "answer changed after evaluating {earlier:?}");
}
