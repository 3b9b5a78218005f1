//! Chunking-invariance property tests for the Monte-Carlo scenarios.
//!
//! The MC engine's core contract is that results are a pure function of
//! `(seed, trial_index)` — bit-identical for any batch size or worker
//! count. These tests pin that contract across all three scenario kinds
//! and several batch × thread shapes, including a full
//! `evaluate()` equality check (summaries, yields, checksums, and the
//! quantile-derived candidates all match, not just the raw columns).

use proptest::prelude::*;
use xlda_core::evaluate::Scenario;
use xlda_core::mc::{CamYieldMcScenario, MannAccuracyMcScenario, McParams, NvmLifetimeMcScenario};
use xlda_core::sweep::SweepOptions;
use xlda_num::trial::checksum;

/// A deliberately awkward population size: not a multiple of any batch
/// size under test, so every split has a ragged tail batch.
const TRIALS: usize = 257;

fn mc(seed: u64, batch: usize) -> McParams {
    McParams {
        trials: TRIALS,
        seed,
        batch,
        threads: 1,
    }
}

fn arms() -> Vec<SweepOptions> {
    [1usize, 2, 4]
        .map(|threads| SweepOptions::builder().threads(threads).build())
        .to_vec()
}

/// Runs `outcomes_with` for every (threads, batch) arm and asserts the
/// columns are bit-identical to the single-threaded default-batch
/// reference.
fn assert_invariant<S, F>(seed: u64, build: F)
where
    S: Scenario,
    F: Fn(McParams) -> S,
    S: McOutcomes,
{
    let reference = build(mc(seed, 0))
        .outcomes(&SweepOptions::default())
        .expect("reference run");
    let ref_sums: Vec<u64> = reference.iter().map(|c| checksum(c)).collect();
    for batch in [1usize, 16, 100, TRIALS, 0] {
        let s = build(mc(seed, batch));
        for opts in arms() {
            let got = s.outcomes(&opts).expect("arm run");
            let got_sums: Vec<u64> = got.iter().map(|c| checksum(c)).collect();
            assert_eq!(
                got_sums, ref_sums,
                "checksum drift: batch {batch}, {opts:?}"
            );
            assert_eq!(got, reference, "bit drift: batch {batch}, {opts:?}");
        }
    }
}

/// Unifies the scenarios' `outcomes_with` test hooks so one driver
/// covers all three kinds.
trait McOutcomes {
    fn outcomes(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, xlda_core::XldaError>;
}

impl McOutcomes for CamYieldMcScenario {
    fn outcomes(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, xlda_core::XldaError> {
        self.outcomes_with(opts)
    }
}

impl McOutcomes for MannAccuracyMcScenario {
    fn outcomes(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, xlda_core::XldaError> {
        self.outcomes_with(opts)
    }
}

impl McOutcomes for NvmLifetimeMcScenario {
    fn outcomes(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, xlda_core::XldaError> {
        self.outcomes_with(opts)
    }
}

#[test]
fn cam_yield_is_chunking_invariant() {
    assert_invariant(0xCA11, |mc| CamYieldMcScenario {
        mc,
        cells: 48,
        ..CamYieldMcScenario::default()
    });
}

#[test]
fn mann_accuracy_is_chunking_invariant() {
    assert_invariant(0x3A77, |mc| MannAccuracyMcScenario {
        mc,
        hash_bits: 16,
        ..MannAccuracyMcScenario::default()
    });
}

#[test]
fn nvm_lifetime_is_chunking_invariant() {
    assert_invariant(0x11FE, |mc| NvmLifetimeMcScenario {
        mc,
        ..NvmLifetimeMcScenario::default()
    });
}

#[test]
fn full_evaluations_match_across_scheduling() {
    // evaluate() runs trials with the scenario's own McParams; varying
    // batch/threads there must not move any digest or candidate.
    let reference = MannAccuracyMcScenario {
        mc: mc(7, 0),
        hash_bits: 16,
        ..MannAccuracyMcScenario::default()
    }
    .evaluate()
    .expect("reference evaluate");
    for (batch, threads) in [(1usize, 2usize), (32, 4), (TRIALS, 1)] {
        let eval = MannAccuracyMcScenario {
            mc: McParams {
                trials: TRIALS,
                seed: 7,
                batch,
                threads,
            },
            hash_bits: 16,
            ..MannAccuracyMcScenario::default()
        }
        .evaluate()
        .expect("arm evaluate");
        assert_eq!(eval, reference, "batch {batch} threads {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seeds, trial counts, and batch splits: two differently
    /// batched runs of the same population always agree bit-for-bit.
    #[test]
    fn random_splits_agree(
        seed in any::<u64>(),
        trials in 1usize..120,
        batch_a in 0usize..40,
        batch_b in 0usize..40,
    ) {
        let build = |batch: usize| NvmLifetimeMcScenario {
            mc: McParams { trials, seed, batch, threads: 1 },
            ..NvmLifetimeMcScenario::default()
        };
        let a = build(batch_a).outcomes_with(&SweepOptions::default()).unwrap();
        let b = build(batch_b)
            .outcomes_with(&SweepOptions::builder().threads(3).build())
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
