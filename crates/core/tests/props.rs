//! Property-based tests for the DSE framework.

use proptest::prelude::*;
use xlda_core::fom::{Candidate, Fom};
use xlda_core::pareto::{pareto_front, pareto_layers};
use xlda_core::profile::{device_priorities, recommend, WorkloadProfile};
use xlda_core::triage::{rank, Objective};

fn arb_fom() -> impl Strategy<Value = Fom> {
    (1e-9f64..1.0, 1e-12f64..1.0, 0.0f64..100.0, 0.0f64..1.0).prop_map(
        |(latency_s, energy_j, area_mm2, accuracy)| Fom {
            latency_s,
            energy_j,
            area_mm2,
            accuracy,
        },
    )
}

fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec(arb_fom(), 1..20).prop_map(|foms| {
        foms.into_iter()
            .enumerate()
            .map(|(i, f)| Candidate::new(format!("c{i}"), f))
            .collect()
    })
}

proptest! {
    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(a in arb_fom(), b in arb_fom()) {
        prop_assert!(!a.dominates(&a));
        prop_assert!(!(a.dominates(&b) && b.dominates(&a)));
    }

    #[test]
    fn pareto_front_is_nonempty_and_mutually_nondominated(cands in arb_candidates()) {
        let front = pareto_front(&cands);
        prop_assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!cands[i].fom.dominates(&cands[j].fom));
                }
            }
        }
        // Every non-front point is dominated by someone.
        for i in 0..cands.len() {
            if !front.contains(&i) {
                prop_assert!(cands
                    .iter()
                    .any(|c| c.fom.dominates(&cands[i].fom)));
            }
        }
    }

    #[test]
    fn pareto_layers_partition_the_input(cands in arb_candidates()) {
        let layers = pareto_layers(&cands);
        let mut all: Vec<usize> = layers.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..cands.len()).collect();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn ranking_is_a_permutation(cands in arb_candidates()) {
        let ranked = rank(&cands, &Objective::latency_first(Some(0.5)));
        prop_assert_eq!(ranked.len(), cands.len());
        let mut idx: Vec<usize> = ranked.iter().map(|r| r.index).collect();
        idx.sort_unstable();
        let expect: Vec<usize> = (0..cands.len()).collect();
        prop_assert_eq!(idx, expect);
        // Floor-passing candidates always precede floor-failing ones.
        let first_fail = ranked.iter().position(|r| !r.meets_floor);
        if let Some(p) = first_fail {
            prop_assert!(ranked[p..].iter().all(|r| !r.meets_floor));
        }
    }

    #[test]
    fn dominated_candidates_never_outrank_their_dominators(cands in arb_candidates()) {
        let ranked = rank(&cands, &Objective::latency_first(None));
        let pos: Vec<usize> = {
            let mut p = vec![0; cands.len()];
            for (r, item) in ranked.iter().enumerate() {
                p[item.index] = r;
            }
            p
        };
        for i in 0..cands.len() {
            for j in 0..cands.len() {
                if cands[i].fom.dominates(&cands[j].fom) {
                    prop_assert!(
                        pos[i] < pos[j],
                        "{} dominates {} but ranks below",
                        i,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn profile_recommendation_is_total(
        mvm in 0.0f64..1.0,
        search_frac in 0.0f64..1.0,
        wpr in 0.0f64..3.0,
        ws in 0.0f64..1024.0,
    ) {
        // Normalize to a valid composition.
        let total = mvm + search_frac + 0.2;
        let p = WorkloadProfile {
            mvm_fraction: mvm / total,
            search_fraction: search_frac / total,
            other_fraction: 0.2 / total,
            writes_per_read: wpr,
            working_set_mib: ws,
        };
        prop_assert!(p.is_valid());
        let _ = recommend(&p); // must not panic for any valid profile
        let metrics = device_priorities(&p);
        prop_assert_eq!(metrics.len(), 5);
        let mut dedup = metrics.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), 5, "priorities must be distinct");
    }
}

mod sweep_props {
    use proptest::prelude::*;
    use xlda_core::sweep::memo::ShardedCache;
    use xlda_core::sweep::{par_map, SweepOptions};

    proptest! {
        #[test]
        fn par_map_equals_sequential_map(xs in prop::collection::vec(-1e6f64..1e6, 0..200)) {
            let par = par_map(&xs, |&x| x * 2.0 + 1.0, &SweepOptions::default());
            let seq: Vec<f64> = xs.iter().map(|&x| x * 2.0 + 1.0).collect();
            prop_assert_eq!(par, seq);
        }

        #[test]
        fn work_stealing_schedule_never_reorders_output(
            xs in prop::collection::vec(-1e6f64..1e6, 0..300),
            threads in 1usize..9,
            chunk in 1usize..33,
        ) {
            // Work-stealing hands out chunks in racy claim order; the
            // engine must still return results in input order, exactly
            // matching a sequential map.
            let f = |&x: &f64| x.sin() * x + 1.0;
            let stealing = par_map(
                &xs,
                f,
                &SweepOptions::builder()
                    .threads(threads)
                    .chunk(chunk)
                    .build(),
            );
            let seq: Vec<f64> = xs.iter().map(f).collect();
            prop_assert_eq!(&stealing, &seq);
        }

        #[test]
        fn cache_returns_first_computed_value(keys in prop::collection::vec(0u32..16, 1..100)) {
            let cache: ShardedCache<u32, u32> = ShardedCache::new();
            let mut reference = std::collections::HashMap::new();
            for &k in &keys {
                let v = cache.get_or_insert_with(k, || k * 10);
                let expect = *reference.entry(k).or_insert(k * 10);
                prop_assert_eq!(v, expect);
            }
            prop_assert!(cache.len() <= 16);
        }
    }
}

mod report_props {
    use proptest::prelude::*;
    use xlda_core::fom::{Candidate, Fom};
    use xlda_core::report::{to_csv, to_markdown};

    fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
        prop::collection::vec(
            (
                "[a-zA-Z ,]{1,20}",
                1e-9f64..1.0,
                1e-12f64..1.0,
                0.0f64..10.0,
                0.0f64..1.0,
            ),
            0..10,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(name, l, e, a, acc)| {
                    Candidate::new(
                        name,
                        Fom {
                            latency_s: l,
                            energy_j: e,
                            area_mm2: a,
                            accuracy: acc,
                        },
                    )
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn emitters_produce_one_line_per_candidate(cands in arb_candidates()) {
            let md = to_markdown(&cands);
            prop_assert_eq!(md.lines().count(), cands.len() + 2);
            let csv = to_csv(&cands);
            prop_assert_eq!(csv.lines().count(), cands.len() + 1);
            // CSV numeric fields parse back.
            for line in csv.lines().skip(1) {
                let tail: Vec<&str> = line.rsplitn(5, ',').collect();
                for field in &tail[..4] {
                    prop_assert!(field.parse::<f64>().is_ok(), "bad field {field}");
                }
            }
        }
    }
}
