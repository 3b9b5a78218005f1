//! `dse_grid`: the paper's triage loop over a seeded, mostly-distinct grid
//! of HDC and MANN design points spanning all seven technology presets.
//!
//! One pass runs in a fresh process and walks the grid in fixed-size
//! chunks. Each chunk is one call of a design-space exploration loop:
//! `sweep_scenarios` with the default options over the chunk's HDC points
//! and over its MANN points, then `triage::rank` under two objectives and
//! `pareto_front` for every point's candidate set. Inputs are generated
//! chunk by chunk, outside the timed calls, so the process's peak RSS is
//! the program's and not the input arrays'.
//!
//! The grid has a fixed point count rather than a fixed duration: memo
//! reuse grows along the grid, so a pass cut at a time limit would measure
//! a different mix of cold and warm work on a faster or slower build.

use crate::check::{self, Class};
use crate::child::{ChildArgs, Summary};
use crate::stats::Fnv;
use std::time::Instant;
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{sweep_scenarios, HdcScenario, MannScenario, Scenario};
use xlda_core::fom::{Candidate, Fom};
use xlda_core::pareto::pareto_front;
use xlda_core::sweep::SweepOptions;
use xlda_core::triage::{rank, Objective};
use xlda_num::batch::CandidateBatch;
use xlda_num::rng::Rng64;

/// Grid shape: every chunk holds `hdc` HDC points followed by `mann` MANN
/// points.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub hdc: usize,
    pub mann: usize,
    pub chunks: usize,
}

/// 40,960 points per pass: long enough for the memo to warm up the way a
/// real exploration does, short enough for several fresh-process passes
/// per run.
pub const FULL: Shape = Shape {
    hdc: 192,
    mann: 64,
    chunks: 160,
};

/// A few chunks, for tests.
pub const SMOKE: Shape = Shape {
    hdc: 12,
    mann: 4,
    chunks: 3,
};

impl Shape {
    pub fn per_chunk(&self) -> usize {
        self.hdc + self.mann
    }

    pub fn points(&self) -> usize {
        self.per_chunk() * self.chunks
    }
}

/// Accuracy floor both triage objectives apply.
const FLOOR: f64 = 0.9;

/// Stream tag separating this workload's draws from other seeded inputs.
const STREAM: u64 = 0xD5E_6121D;

fn pick_tech(rng: &mut Rng64, techs: &[TechNode]) -> TechNode {
    techs[rng.below(techs.len() as u64) as usize].clone()
}

/// One HDC design point. Dimensions sit on the 32/512 lattices real
/// studies use, so sub-problems (crossbar tiles, CAM arrays) recur across
/// points while whole points almost never do.
pub fn hdc_point(rng: &mut Rng64, techs: &[TechNode]) -> HdcScenario {
    let hv = 512 * (2 + rng.below(19) as usize);
    HdcScenario {
        dim_in: 32 * (2 + rng.below(127) as usize),
        classes: 2 + rng.below(127) as usize,
        hv_dim_sw: hv,
        hv_dim_3b: hv / 2,
        hv_dim_2b: hv,
        hv_dim_1b: hv,
        acc_sw: rng.uniform_in(0.85, 0.97),
        acc_3b: rng.uniform_in(0.85, 0.97),
        acc_2b: rng.uniform_in(0.80, 0.95),
        acc_1b: rng.uniform_in(0.70, 0.90),
        acc_mlp: rng.uniform_in(0.85, 0.97),
        tech: pick_tech(rng, techs),
    }
}

/// One MANN design point.
pub fn mann_point(rng: &mut Rng64, techs: &[TechNode]) -> MannScenario {
    MannScenario {
        weights: 4096 * (4 + rng.below(60) as usize),
        emb_dim: 16 * (1 + rng.below(16) as usize),
        hash_bits: 16 * (1 + rng.below(64) as usize),
        entries: 5 * (1 + rng.below(100) as usize),
        acc_software: rng.uniform_in(0.85, 0.97),
        acc_rram: rng.uniform_in(0.80, 0.96),
        tech: pick_tech(rng, techs),
    }
}

/// The inputs of chunk `c`: a pure function of `(seed, c)`.
pub fn chunk_inputs(seed: u64, c: usize, shape: &Shape) -> (Vec<HdcScenario>, Vec<MannScenario>) {
    let techs = TechNode::all();
    let mut rng = Rng64::for_trial(seed ^ STREAM, c as u64);
    let hdc = (0..shape.hdc)
        .map(|_| hdc_point(&mut rng, &techs))
        .collect();
    let mann = (0..shape.mann)
        .map(|_| mann_point(&mut rng, &techs))
        .collect();
    (hdc, mann)
}

/// The candidate sets of a swept batch, one per point.
fn batch_candidates(b: &CandidateBatch) -> Vec<Result<Vec<Candidate>, String>> {
    (0..b.points())
        .map(|p| match b.point_message(p) {
            Some(msg) => Err(msg.to_string()),
            None => Ok(b
                .lane_range(p)
                .map(|i| {
                    Candidate::new(
                        b.lane_name(i),
                        Fom {
                            latency_s: b.latency_s()[i],
                            energy_j: b.energy_j()[i],
                            area_mm2: b.area_mm2()[i],
                            accuracy: b.accuracy()[i],
                        },
                    )
                })
                .collect()),
        })
        .collect()
}

/// The triage of one point: rankings under both objectives and its Pareto
/// front.
struct Triage {
    latency: Vec<xlda_core::triage::Ranked>,
    energy: Vec<xlda_core::triage::Ranked>,
    front: Vec<usize>,
}

fn triage(cands: &[Candidate]) -> Triage {
    Triage {
        latency: rank(cands, &Objective::latency_first(Some(FLOOR))),
        energy: rank(cands, &Objective::energy_first(Some(FLOOR))),
        front: pareto_front(cands),
    }
}

/// Digest of one point's full result.
fn point_digest(result: &Result<Vec<Candidate>, String>, t: Option<&Triage>) -> u64 {
    let mut h: Fnv = check::candidates_digest(result);
    if let Some(t) = t {
        check::fold_ranking(&mut h, &t.latency);
        check::fold_ranking(&mut h, &t.energy);
        check::fold_front(&mut h, &t.front);
    }
    h.0
}

/// One measured pass (`--child dse_grid`): walks the grid in order,
/// timing each call, and writes one digest per point.
pub fn measure(args: &ChildArgs, shape: &Shape) -> Summary {
    let opts = if args.threads == 0 {
        SweepOptions::default()
    } else {
        SweepOptions::builder().threads(args.threads).build()
    };
    let mut s = Summary::new(args);
    let mut digests = Vec::with_capacity(shape.points());
    let (mut eval_hdc, mut eval_mann, mut t_triage, mut t_pareto) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..shape.chunks {
        let gen = Instant::now();
        let (hdc, mann) = chunk_inputs(args.seed, c, shape);
        s.exclude(gen.elapsed().as_secs_f64());
        let start = Instant::now();
        let hb = sweep_scenarios(&hdc, &opts);
        let t1 = Instant::now();
        let mb = sweep_scenarios(&mann, &opts);
        let t2 = Instant::now();
        let mut results = batch_candidates(&hb);
        results.extend(batch_candidates(&mb));
        let ranked: Vec<Option<(Vec<_>, Vec<_>)>> = results
            .iter()
            .map(|r| {
                r.as_ref().ok().map(|cands| {
                    (
                        rank(cands, &Objective::latency_first(Some(FLOOR))),
                        rank(cands, &Objective::energy_first(Some(FLOOR))),
                    )
                })
            })
            .collect();
        let t3 = Instant::now();
        let fronts: Vec<Option<Vec<usize>>> = results
            .iter()
            .map(|r| r.as_ref().ok().map(|cands| pareto_front(cands)))
            .collect();
        let end = Instant::now();
        s.call((end - start).as_secs_f64());
        eval_hdc += (t1 - start).as_secs_f64();
        eval_mann += (t2 - t1).as_secs_f64();
        t_triage += (t3 - t2).as_secs_f64();
        t_pareto += (end - t3).as_secs_f64();
        for ((r, rk), front) in results.iter().zip(ranked).zip(fronts) {
            let t = rk.zip(front).map(|((latency, energy), front)| Triage {
                latency,
                energy,
                front,
            });
            digests.push(point_digest(r, t.as_ref()));
        }
    }
    s.points = shape.points() as u64;
    s.set("eval_hdc_s", eval_hdc);
    s.set("eval_mann_s", eval_mann);
    s.set("hdc_points", (shape.hdc * shape.chunks) as f64);
    s.set("mann_points", (shape.mann * shape.chunks) as f64);
    s.set("triage_s", t_triage);
    s.set("pareto_s", t_pareto);
    s.finish(&digests)
}

/// A verification pass (`--child dse_grid_forward` or `dse_grid_reverse`):
/// the same inputs through direct `Scenario::candidates` calls on one
/// thread, in a process of its own, in the measured order (chunks first to
/// last, HDC points before MANN points) or in reverse. One thread keeps
/// the order, and so the reference answers and the printed digest, the
/// same on every run of a seed. Classifies every point and checks the
/// invariants: finite figures of merit and the reference candidate set
/// (names and order) for every feasible point of each kind.
pub fn verify(args: &ChildArgs, shape: &Shape, reverse: bool) -> Summary {
    let per = shape.per_chunk();
    let mut digests = vec![0u64; shape.points()];
    let mut classes = vec![Class::Failed; shape.points()];
    let mut sets = vec![0u64; shape.points()];
    for c in check::order(shape.chunks, reverse) {
        let (hdc, mann) = chunk_inputs(args.seed, c, shape);
        for j in check::order(per, reverse) {
            let result = if j < shape.hdc {
                eval(&hdc[j])
            } else {
                eval(&mann[j - shape.hdc])
            };
            let class = match &result {
                Ok(cands) => {
                    sets[c * per + j] = name_set(cands);
                    if check::finite(cands) {
                        Class::Ok
                    } else {
                        Class::Broken
                    }
                }
                Err((_, true)) => Class::Infeasible,
                Err((_, false)) => Class::Failed,
            };
            let result = result.map_err(|(msg, _)| msg);
            let t = result.as_ref().ok().map(|c| triage(c));
            digests[c * per + j] = point_digest(&result, t.as_ref());
            classes[c * per + j] = class;
        }
    }
    // The reference candidate sets are evaluated last, so that, as in a
    // measured pass, nothing but the grid runs before the grid.
    let hdc_set = reference_set(&HdcScenario::default());
    let mann_set = reference_set(&MannScenario::default());
    for (i, class) in classes.iter_mut().enumerate() {
        let want = if i % per < shape.hdc {
            hdc_set
        } else {
            mann_set
        };
        if *class == Class::Ok && sets[i] != want {
            *class = Class::Broken;
        }
    }
    let mut s = Summary::new(args);
    s.points = shape.points() as u64;
    s.set(
        "infeasible_points",
        classes.iter().filter(|&&c| c == Class::Infeasible).count() as f64,
    );
    s.write_classes(&classes);
    s.finish(&digests)
}

/// Digest of a candidate set's names, in order.
fn name_set(cands: &[Candidate]) -> u64 {
    let mut h = Fnv::default();
    h.u64(cands.len() as u64);
    for c in cands {
        h.str(&c.name);
    }
    h.0
}

fn reference_set<S: Scenario>(s: &S) -> u64 {
    name_set(&s.candidates().expect("reference scenario models"))
}

/// One point through the scalar entry point, with panics contained and
/// errors tagged by whether they are the model's infeasible answer.
fn eval<S: Scenario>(s: &S) -> Result<Vec<Candidate>, (String, bool)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.candidates())) {
        Ok(Ok(c)) => Ok(c),
        Ok(Err(e)) => Err((e.to_string(), e.is_infeasible())),
        Err(_) => Err(("panicked".to_string(), false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = chunk_inputs(7, 3, &FULL);
        let b = chunk_inputs(7, 3, &FULL);
        assert_eq!(a, b);
        assert_ne!(a, chunk_inputs(8, 3, &FULL));
        assert_ne!(a, chunk_inputs(7, 4, &FULL));
        assert_eq!(a.0.len(), FULL.hdc);
        assert_eq!(a.1.len(), FULL.mann);
    }

    #[test]
    fn grid_spans_every_tech_node_and_is_mostly_distinct() {
        let mut techs = std::collections::BTreeSet::new();
        let mut keys = std::collections::HashSet::new();
        let mut n = 0;
        for c in 0..20 {
            let (hdc, mann) = chunk_inputs(1, c, &FULL);
            for p in &hdc {
                techs.insert(p.tech.memo_key());
                keys.insert(p.store_key().unwrap());
                n += 1;
            }
            for p in &mann {
                keys.insert(p.store_key().unwrap());
                n += 1;
            }
        }
        assert_eq!(techs.len(), 7);
        assert!(keys.len() * 100 >= n * 99, "{} distinct of {n}", keys.len());
    }
}
