//! Pins `xlda::core::store::MODEL_FINGERPRINT` to the evaluators'
//! numerics.
//!
//! The fingerprint folds every candidate bit and every distribution bit
//! of a fixed canonical grid that covers all seven scenario kinds, the
//! Monte-Carlo kinds at small trial counts. A change that moves any
//! output bit fails here. If the change is intended, set the constant to
//! the value the failure reports: the store header and every digest
//! carry it, so stores written by older code reset on open instead of
//! serving stale results (DESIGN.md §13).

use std::collections::BTreeSet;

use xlda::circuit::tech::TechNode;
use xlda::core::evaluate::{
    EdgeScenario, Evaluation, HdcScenario, MannScenario, Scenario, TpuNvmScenario,
};
use xlda::core::mc::{CamYieldMcScenario, MannAccuracyMcScenario, McParams, NvmLifetimeMcScenario};
use xlda::core::store::MODEL_FINGERPRINT;

fn canonical_grid() -> Vec<Box<dyn Scenario>> {
    let mc = |trials| McParams {
        trials,
        seed: 0xF1A6,
        ..McParams::default()
    };
    let mut grid: Vec<Box<dyn Scenario>> = Vec::new();
    for tech in [TechNode::n22(), TechNode::n40(), TechNode::n130()] {
        let hdc = HdcScenario {
            tech: tech.clone(),
            ..HdcScenario::default()
        };
        grid.push(Box::new(hdc.clone()));
        grid.push(Box::new(TpuNvmScenario::new(hdc.clone(), 64)));
        grid.push(Box::new(EdgeScenario::new(hdc)));
        grid.push(Box::new(MannScenario {
            tech,
            ..MannScenario::default()
        }));
    }
    grid.push(Box::new(CamYieldMcScenario {
        mc: mc(256),
        ..CamYieldMcScenario::default()
    }));
    grid.push(Box::new(MannAccuracyMcScenario {
        mc: mc(64),
        hash_bits: 64,
        ..MannAccuracyMcScenario::default()
    }));
    grid.push(Box::new(NvmLifetimeMcScenario {
        mc: mc(256),
        ..NvmLifetimeMcScenario::default()
    }));
    grid
}

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn evaluation(&mut self, kind: &str, e: &Evaluation) {
        self.str(kind);
        for c in &e.candidates {
            self.str(&c.name);
            let f = c.fom;
            [f.latency_s, f.energy_j, f.area_mm2, f.accuracy]
                .into_iter()
                .for_each(|x| self.f64(x));
        }
        for d in &e.distributions {
            self.str(d.name);
            self.str(d.unit);
            self.str(d.criterion);
            let s = d.summary;
            self.word(s.trials as u64);
            self.word(s.nan_count as u64);
            [s.mean, s.std_dev, s.min, s.max, s.p5, s.p50, s.p95]
                .into_iter()
                .for_each(|x| self.f64(x));
            self.f64(d.yield_fraction);
            self.word(d.checksum);
        }
    }
}

fn fingerprint() -> u64 {
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    for s in canonical_grid() {
        let e = s
            .evaluate()
            .unwrap_or_else(|err| panic!("canonical {} point failed: {err}", s.kind()));
        fold.evaluation(s.kind(), &e);
    }
    fold.0
}

#[test]
fn canonical_grid_covers_every_kind() {
    let kinds: BTreeSet<&str> = canonical_grid().iter().map(|s| s.kind()).collect();
    assert_eq!(kinds.len(), 7, "{kinds:?}");
}

#[test]
fn model_fingerprint_is_pinned() {
    let got = fingerprint();
    assert_eq!(
        got, MODEL_FINGERPRINT,
        "an output bit of the canonical grid moved; if that is intended, \
         set store::MODEL_FINGERPRINT to {got:#018x} (stores then reset on open)"
    );
}
