//! A design-space sweep must survive infeasible points.
//!
//! The grids a DSE loop enumerates routinely contain configurations no
//! silicon can realize — words too long for any sense margin, degenerate
//! one-word arrays, unsupported design/data pairings. Before the
//! fallible-evaluation refactor the first such point panicked the whole
//! sweep; these tests pin the new contract: the sweep completes, every
//! feasible point yields a finite report, and every infeasible point
//! yields a typed, inspectable error.

use xlda::core::error::XldaError;
use xlda::core::evaluate::{HdcScenario, Scenario};
use xlda::core::sweep::{par_try_map, PointFailure, SweepOptions};
use xlda::core::triage::{rank, Objective};
use xlda::evacam::{CamArray, CamCellDesign, CamConfig, CamError, CamReport, DataKind, MatchKind};

/// A CAM grid mixing feasible points with known-infeasible ones: distance
/// resolutions no matchline can sense, one-word degenerates, and
/// design/data pairings the support matrix rejects.
fn cam_grid() -> Vec<CamConfig> {
    let mut grid = Vec::new();
    for words in [1usize, 64, 1024] {
        for bits_per_word in [64usize, 128] {
            for design in [
                CamCellDesign::Fefet2T,
                CamCellDesign::Rram2T2R,
                CamCellDesign::Sram16T,
            ] {
                for match_kind in [
                    MatchKind::Exact,
                    MatchKind::Best { max_distance: 4 },
                    // Unachievable: no sense amp splits 48-vs-49 mismatches.
                    MatchKind::Best { max_distance: 48 },
                ] {
                    for data in [DataKind::Binary, DataKind::MultiBit(3)] {
                        grid.push(CamConfig {
                            words,
                            bits_per_word,
                            design,
                            data,
                            match_kind,
                            row_banks: 1,
                            ..CamConfig::default()
                        });
                    }
                }
            }
        }
    }
    grid
}

#[test]
fn cam_grid_sweep_completes_and_reports_per_point_errors() {
    let grid = cam_grid();
    let results: Vec<Result<CamReport, PointFailure<CamError>>> = par_try_map(
        &grid,
        |cfg| CamArray::new(cfg.clone()).map(|cam| cam.report()),
        &SweepOptions::default(),
    );

    assert_eq!(results.len(), grid.len());

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let sense_margin = results
        .iter()
        .filter(|r| {
            matches!(
                r,
                Err(PointFailure::Error(
                    CamError::SenseMarginUnachievable { .. }
                ))
            )
        })
        .count();
    let unsupported = results
        .iter()
        .filter(|r| {
            matches!(
                r,
                Err(PointFailure::Error(
                    CamError::UnsupportedData { .. } | CamError::UnsupportedMatch { .. }
                ))
            )
        })
        .count();

    // The grid was built to exercise every outcome class.
    assert!(ok > 0, "no feasible points modeled");
    assert!(sense_margin > 0, "expected sense-margin infeasibility");
    assert!(unsupported > 0, "expected support-matrix rejections");
    assert_eq!(
        ok + sense_margin + unsupported,
        grid.len(),
        "no point may vanish or panic: {results:?}"
    );

    // Feasible reports stay finite — including the 1-word degenerates.
    for (cfg, r) in grid.iter().zip(&results) {
        if let Ok(rep) = r {
            assert!(
                rep.search_latency_s.is_finite() && rep.search_latency_s > 0.0,
                "{cfg:?}"
            );
            assert!(
                rep.search_energy_j.is_finite() && rep.search_energy_j > 0.0,
                "{cfg:?}"
            );
            assert!(rep.area_um2.is_finite() && rep.area_um2 > 0.0, "{cfg:?}");
        }
    }
}

#[test]
fn infeasible_points_are_classified_not_escalated() {
    // The DSE layer's triage of failures: sense-margin and support-matrix
    // rejections are infeasibility (ordinary sweep results), while empty
    // arrays mark a malformed generator.
    let infeasible: XldaError = CamError::SenseMarginUnachievable {
        required_resolution: 48,
    }
    .into();
    assert!(infeasible.is_infeasible());
    let malformed: XldaError = CamError::EmptyArray.into();
    assert!(!malformed.is_infeasible());
}

#[test]
fn scenario_sweep_with_poisoned_point_still_ranks_the_rest() {
    // An HDC scenario grid where one point carries a NaN accuracy (a
    // poisoned calibration input): the sweep completes, the poisoned
    // point reports InvalidFom, and the surviving candidates still rank.
    let mut scenarios: Vec<HdcScenario> = vec![
        HdcScenario::default(),
        HdcScenario {
            hv_dim_3b: 1024,
            ..HdcScenario::default()
        },
        HdcScenario {
            acc_sw: f64::NAN,
            ..HdcScenario::default()
        },
    ];
    // And one degenerate single-class scenario (1-word CAMs throughout).
    scenarios.push(HdcScenario {
        classes: 1,
        ..HdcScenario::default()
    });

    let results = par_try_map(&scenarios, |s| s.candidates(), &SweepOptions::default());
    assert_eq!(results.len(), scenarios.len());

    let mut ranked_any = false;
    let mut invalid = 0usize;
    for r in &results {
        match r {
            Ok(cands) => {
                let ranking = rank(cands, &Objective::latency_first(Some(0.9)));
                assert_eq!(ranking.len(), cands.len());
                ranked_any = true;
            }
            Err(PointFailure::Error(XldaError::InvalidFom { name, fom })) => {
                assert!(fom.accuracy.is_nan(), "{name}: {fom:?}");
                invalid += 1;
            }
            Err(other) => panic!("unexpected failure class: {other}"),
        }
    }
    assert!(ranked_any, "healthy scenarios must evaluate and rank");
    assert_eq!(
        invalid, 1,
        "exactly the poisoned scenario fails: {results:?}"
    );
}
