//! The memo holds exactly the sites whose hits save more than a lookup
//! costs (DESIGN.md §8).
//!
//! A site that computes in about the time of a lookup only adds hashing,
//! locking and entries, so it must not come back unnoticed. This lives in
//! its own test binary so that no other test registers a cache first.

use xlda_core::evaluate::{EdgeScenario, HdcScenario, MannScenario, Scenario, TpuNvmScenario};
use xlda_core::sweep::memo;

#[test]
fn every_scenario_kind_uses_only_the_three_memo_sites() {
    let scenarios: [Box<dyn Scenario>; 4] = [
        Box::new(HdcScenario::default()),
        Box::new(MannScenario::default()),
        Box::new(EdgeScenario::default()),
        Box::new(TpuNvmScenario::default()),
    ];
    for s in &scenarios {
        s.candidates().expect("default scenarios evaluate");
    }
    let names: Vec<&str> = memo::snapshot().iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        [
            "circuit.matchline_max_cells",
            "crossbar.macro",
            "nvram.geometry_table"
        ]
    );
    for c in memo::snapshot() {
        assert!(c.misses > 0, "{} was never looked up: {c:?}", c.name);
    }
}
