//! Cache-transparency property tests.
//!
//! The cross-point memo caches (`xlda_num::memo`) sit inside the hot
//! circuit/crossbar/nvram constructors; the contract is that they are
//! *invisible*: every figure of merit a sweep produces must be
//! bit-identical whether memoization is enabled, disabled, or warm from
//! a previous sweep. These properties drive the full cross-layer
//! evaluation stack over random scenario grids and compare raw bit
//! patterns across the three regimes, and sweep the same grids through
//! [`sweep_scenarios`] at several worker counts with the memo on
//! and off.
//!
//! All tests toggling the process-global memo switch live in this one
//! binary and serialize on [`MEMO_LOCK`], so the toggle never races a
//! concurrent test thread.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Mutex;
use xlda_core::evaluate::{sweep_scenarios, HdcScenario, MannScenario, Scenario};
use xlda_core::sweep::{memo, SweepOptions};
use xlda_num::batch::CandidateBatch;

static MEMO_LOCK: Mutex<()> = Mutex::new(());

/// Bit patterns of every FOM a scenario evaluation produces; errors map
/// to a fixed marker so infeasible points still compare across regimes.
fn hdc_bits(s: &HdcScenario) -> Vec<u64> {
    match s.candidates() {
        Ok(cands) => cands
            .iter()
            .flat_map(|c| {
                [
                    c.fom.latency_s.to_bits(),
                    c.fom.energy_j.to_bits(),
                    c.fom.area_mm2.to_bits(),
                    c.fom.accuracy.to_bits(),
                ]
            })
            .collect(),
        Err(_) => vec![u64::MAX],
    }
}

fn mann_bits(s: &MannScenario) -> Vec<u64> {
    match s.candidates() {
        Ok(cands) => cands
            .iter()
            .flat_map(|c| {
                [
                    c.fom.latency_s.to_bits(),
                    c.fom.energy_j.to_bits(),
                    c.fom.area_mm2.to_bits(),
                ]
            })
            .collect(),
        Err(_) => vec![u64::MAX],
    }
}

/// Evaluates `grid` uncached, cold-cached, and warm-cached, asserting
/// bit-identical results across all three regimes. Restores the memo
/// switch to enabled on every exit path.
fn assert_transparent<I>(grid: &[I], eval: impl Fn(&I) -> Vec<u64>) -> Result<(), TestCaseError> {
    let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    memo::clear_all();
    memo::set_enabled(false);
    let uncached: Vec<Vec<u64>> = grid.iter().map(&eval).collect();
    memo::clear_all();
    memo::set_enabled(true);
    let cold: Vec<Vec<u64>> = grid.iter().map(&eval).collect();
    let warm: Vec<Vec<u64>> = grid.iter().map(&eval).collect();
    memo::set_enabled(true);
    prop_assert_eq!(&uncached, &cold, "cold cache changed results");
    prop_assert_eq!(&uncached, &warm, "warm cache changed results");
    Ok(())
}

/// Sweeps `grid` through [`sweep_scenarios`] at threads {1, 2, 3}, memo
/// off (cleared) then on, and asserts every batch matches the first:
/// same checksum, same status and message per point.
/// Restores the memo switch to enabled before asserting.
fn assert_sweeps_agree<S: Scenario>(grid: &[S]) -> Result<(), TestCaseError> {
    let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs: Vec<(String, CandidateBatch)> = Vec::new();
    for memo_on in [false, true] {
        memo::clear_all();
        memo::set_enabled(memo_on);
        for threads in [1usize, 2, 3] {
            let opts = SweepOptions::builder().threads(threads).build();
            let label = format!("memo {memo_on}, threads {threads}");
            runs.push((label, sweep_scenarios(grid, &opts)));
        }
    }
    memo::set_enabled(true);
    let (_, reference) = &runs[0];
    prop_assert_eq!(reference.points(), grid.len());
    for (label, b) in &runs[1..] {
        prop_assert_eq!(b.checksum(), reference.checksum(), "{}", label);
        for p in 0..grid.len() {
            prop_assert_eq!(b.point_status(p), reference.point_status(p), "{}", label);
            prop_assert_eq!(b.point_message(p), reference.point_message(p), "{}", label);
        }
    }
    Ok(())
}

fn arb_hdc() -> impl Strategy<Value = HdcScenario> {
    (
        64usize..1200,
        2usize..64,
        1usize..5, // hv length exponent over 512 (1024..=8192)
        0.5f64..1.0,
    )
        .prop_map(|(dim_in, classes, hv_exp, acc)| {
            let hv = 512 << hv_exp;
            HdcScenario {
                dim_in,
                classes,
                hv_dim_sw: hv,
                hv_dim_3b: (hv / 2).max(512),
                hv_dim_2b: hv,
                hv_dim_1b: hv,
                acc_sw: acc,
                acc_3b: acc,
                acc_2b: acc - 0.01,
                acc_1b: acc - 0.05,
                ..HdcScenario::default()
            }
        })
}

fn arb_mann() -> impl Strategy<Value = MannScenario> {
    (
        1_000usize..500_000,
        8usize..256,
        32usize..512,
        10usize..10_000,
    )
        .prop_map(|(weights, emb_dim, hash_bits, entries)| MannScenario {
            weights,
            emb_dim,
            hash_bits,
            entries,
            ..MannScenario::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hdc_sweep_is_cache_transparent(grid in prop::collection::vec(arb_hdc(), 1..4)) {
        // Duplicate the first scenario so at least one point is a
        // guaranteed full-grid cache hit within each regime.
        let mut grid = grid;
        grid.push(grid[0].clone());
        assert_transparent(&grid, hdc_bits)?;
    }

    #[test]
    fn mann_sweep_is_cache_transparent(grid in prop::collection::vec(arb_mann(), 1..4)) {
        let mut grid = grid;
        grid.push(grid[0].clone());
        assert_transparent(&grid, mann_bits)?;
    }

    #[test]
    fn hdc_grid_sweeps_agree_across_shapes_and_memo(
        grid in prop::collection::vec(arb_hdc(), 1..4),
    ) {
        let mut grid = grid;
        grid.push(grid[0].clone());
        assert_sweeps_agree(&grid)?;
    }

    #[test]
    fn mann_grid_sweeps_agree_across_shapes_and_memo(
        grid in prop::collection::vec(arb_mann(), 1..4),
    ) {
        let mut grid = grid;
        grid.push(grid[0].clone());
        assert_sweeps_agree(&grid)?;
    }
}
