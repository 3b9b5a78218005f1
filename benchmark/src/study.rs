//! `variation_study`: a seeded device-variation study.
//!
//! Two parts, run in a fresh process per pass:
//!
//! - the three Monte-Carlo kinds (`cam_yield_mc`, `mann_mc`, `nvm_mc`)
//!   over a grid of variation parameters, swept with `sweep_scenarios` in
//!   chunks of one kind each; trial counts per kind are set so one point of
//!   each kind costs about the same, and no kind dominates the study;
//! - the functional accuracy simulations behind Figs. 3C, 3F and 4E: HDC
//!   training and classification, variation-aware FeFET-CAM search on a
//!   synthetic ISOLET-like dataset, and MANN controller training with
//!   episodes scored through RRAM ternary LSH hashing.
//!
//! Device sampling, `mc.batch` and the functional simulators do the work
//! here and almost none in the other workloads, so this workload is the
//! target for Monte-Carlo changes and the no-change control for nvram,
//! memo and serve changes.

use crate::check::{self, Class};
use crate::child::{ChildArgs, Summary};
use crate::stats::Fnv;
use std::time::Instant;
use xlda_core::evaluate::{sweep_scenarios, Scenario};
use xlda_core::fom::{Candidate, Fom};
use xlda_core::mc::{CamYieldMcScenario, MannAccuracyMcScenario, McParams, NvmLifetimeMcScenario};
use xlda_core::sweep::SweepOptions;
use xlda_datagen::fewshot::FewShotSpec;
use xlda_datagen::ClassificationSpec;
use xlda_device::fefet::Fefet;
use xlda_evacam::variation::CellVariation;
use xlda_hdc::cam::{CamAm, CamSearchConfig};
use xlda_hdc::encode::{Encoder, EncoderConfig};
use xlda_hdc::model::{Distance, HdcModel};
use xlda_mann::controller::{train_controller, TrainConfig};
use xlda_mann::episode::{evaluate as run_episodes, EpisodeConfig, MannVariant};
use xlda_num::batch::CandidateBatch;
use xlda_num::rng::Rng64;

/// Study size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Monte-Carlo chunks; chunk `c` sweeps `per_chunk` points of kind
    /// `c % 3`.
    pub mc_chunks: usize,
    pub per_chunk: usize,
    /// Trials per point of each kind: `[cam_yield, mann, nvm]`.
    pub trials: [usize; 3],
    /// HDC hypervector length and training/test samples per class.
    pub hv_dim: usize,
    pub train_per_class: usize,
    pub test_per_class: usize,
    /// FeFET programming spreads (V) swept by the CAM search.
    pub cam_sigmas: &'static [f64],
    /// MANN controller epochs, episodes per evaluation, and the
    /// relaxation times (decades) the RRAM hashing is read at.
    pub epochs: usize,
    pub episodes: usize,
    pub relax_decades: &'static [f64],
}

/// One study per pass: 288 Monte-Carlo points and ten functional
/// simulations. Per-thread trial rates measured on the reference box
/// (cam ≈146k, mann ≈23k, nvm ≈3.4M trials/s) put each point near 4 ms.
pub const FULL: Shape = Shape {
    mc_chunks: 48,
    per_chunk: 6,
    trials: [600, 96, 14_000],
    hv_dim: 1024,
    train_per_class: 20,
    test_per_class: 8,
    cam_sigmas: &[0.0, 0.03, 0.06, 0.09],
    epochs: 2,
    episodes: 8,
    relax_decades: &[1.0, 2.0, 3.0],
};

/// A few points of everything, for tests.
pub const SMOKE: Shape = Shape {
    mc_chunks: 3,
    per_chunk: 2,
    trials: [64, 16, 512],
    hv_dim: 256,
    train_per_class: 4,
    test_per_class: 2,
    cam_sigmas: &[0.05],
    epochs: 1,
    episodes: 2,
    relax_decades: &[3.0],
};

impl Shape {
    pub fn mc_points(&self) -> usize {
        self.mc_chunks * self.per_chunk
    }

    /// Functional simulations: HDC train, classify and one CAM search per
    /// spread; MANN train and one evaluation per relaxation time.
    pub fn functional(&self) -> usize {
        3 + self.cam_sigmas.len() + self.relax_decades.len()
    }

    pub fn points(&self) -> usize {
        self.mc_points() + self.functional()
    }
}

const STREAM: u64 = 0x57D_7A21A;
pub const KINDS: [&str; 3] = ["cam_yield", "mann", "nvm"];

/// The Monte-Carlo points of one chunk, all of kind `c % 3`.
pub enum McChunk {
    Cam(Vec<CamYieldMcScenario>),
    Mann(Vec<MannAccuracyMcScenario>),
    Nvm(Vec<NvmLifetimeMcScenario>),
}

impl McChunk {
    fn kind(&self) -> usize {
        match self {
            McChunk::Cam(_) => 0,
            McChunk::Mann(_) => 1,
            McChunk::Nvm(_) => 2,
        }
    }
}

/// The points of Monte-Carlo chunk `c`: a pure function of `(seed, c)`.
/// Every point gets its own trial seed, so no two populations coincide.
/// The grid varies the variation parameters (spreads, relaxation, noise)
/// and keeps array sizes at their defaults, so a point of each kind costs
/// the same on every seed.
pub fn mc_chunk(seed: u64, c: usize, shape: &Shape) -> McChunk {
    let mut rng = Rng64::for_trial(seed ^ STREAM, c as u64);
    let kind = c % 3;
    let mc = |rng: &mut Rng64| McParams {
        trials: shape.trials[kind],
        seed: rng.next_u64(),
        ..McParams::default()
    };
    let n = shape.per_chunk;
    match kind {
        0 => McChunk::Cam(
            (0..n)
                .map(|_| CamYieldMcScenario {
                    mc: mc(&mut rng),
                    mismatches: 1 + rng.below(8) as usize,
                    g_on: rng.uniform_in(20e-6, 40e-6),
                    g_off: rng.uniform_in(5e-6, 15e-6),
                    variation: CellVariation {
                        sigma_g_on_rel: rng.uniform_in(0.02, 0.2),
                        sigma_g_off_rel: rng.uniform_in(0.05, 0.4),
                    },
                    ..CamYieldMcScenario::default()
                })
                .collect(),
        ),
        1 => McChunk::Mann(
            (0..n)
                .map(|_| MannAccuracyMcScenario {
                    mc: mc(&mut rng),
                    relax_decades: rng.uniform_in(0.0, 4.0),
                    read_noise: rng.uniform_in(0.0, 0.05),
                    ..MannAccuracyMcScenario::default()
                })
                .collect(),
        ),
        _ => McChunk::Nvm(
            (0..n)
                .map(|_| NvmLifetimeMcScenario {
                    mc: mc(&mut rng),
                    leveling_sigma: rng.uniform_in(0.01, 0.1),
                    endurance_sigma_decades: rng.uniform_in(0.1, 0.5),
                    vth_sigma: rng.uniform_in(0.05, 0.15),
                    ..NvmLifetimeMcScenario::default()
                })
                .collect(),
        ),
    }
}

fn batch_digests(b: &CandidateBatch) -> Vec<u64> {
    (0..b.points())
        .map(|p| {
            let r = match b.point_message(p) {
                Some(m) => Err(m.to_string()),
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
            };
            check::candidates_digest(&r).0
        })
        .collect()
}

fn sweep_chunk(chunk: &McChunk, opts: &SweepOptions) -> CandidateBatch {
    match chunk {
        McChunk::Cam(v) => sweep_scenarios(v, opts),
        McChunk::Mann(v) => sweep_scenarios(v, opts),
        McChunk::Nvm(v) => sweep_scenarios(v, opts),
    }
}

/// Digest and class of one point through the scalar entry point.
fn eval_point<S: Scenario>(s: &S) -> (u64, Class) {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.candidates()));
    let (result, class) = match r {
        Ok(Ok(c)) => {
            let class = if check::finite(&c) && !c.is_empty() {
                Class::Ok
            } else {
                Class::Broken
            };
            (Ok(c), class)
        }
        Ok(Err(e)) => {
            let class = if e.is_infeasible() {
                Class::Infeasible
            } else {
                Class::Failed
            };
            (Err(e.to_string()), class)
        }
        Err(_) => (Err("panicked".to_string()), Class::Failed),
    };
    (check::candidates_digest(&result).0, class)
}

/// A chunk's points through the scalar entry point, in chunk order;
/// `reverse` evaluates them last to first.
fn chunk_points(chunk: &McChunk, reverse: bool) -> Vec<(u64, Class)> {
    fn each<S: Scenario>(v: &[S], reverse: bool) -> Vec<(u64, Class)> {
        let mut out: Vec<(u64, Class)> = check::order(v.len(), reverse)
            .map(|i| eval_point(&v[i]))
            .collect();
        if reverse {
            out.reverse();
        }
        out
    }
    match chunk {
        McChunk::Cam(v) => each(v, reverse),
        McChunk::Mann(v) => each(v, reverse),
        McChunk::Nvm(v) => each(v, reverse),
    }
}

/// The functional simulations, in a fixed order; each call is timed and
/// reduced to one digest. `reverse` runs the MANN part before the HDC
/// part (the reverse verification order).
struct Functional {
    /// `(call name, seconds, digest, valid)` per simulation.
    calls: Vec<(&'static str, f64, u64, bool)>,
    /// Queries classified by the HDC classifier and by the CAM searches,
    /// and MANN episodes evaluated.
    classify_queries: usize,
    cam_queries: usize,
    episodes: usize,
}

fn accuracy_ok(a: f64) -> bool {
    a.is_finite() && (0.0..=1.0).contains(&a)
}

fn run_hdc(seed: u64, shape: &Shape, out: &mut Functional) {
    let mut spec = ClassificationSpec::isolet_like();
    spec.noise = 4.0;
    spec.train_per_class = shape.train_per_class;
    spec.test_per_class = shape.test_per_class;
    spec.seed = seed ^ 0x3C;
    let data = spec.generate();
    let encoder = Encoder::new(&EncoderConfig {
        dim_in: data.dim(),
        hv_dim: shape.hv_dim,
        seed: seed ^ 0x3F,
        ..EncoderConfig::default()
    });
    let t = Instant::now();
    let model = HdcModel::train(&encoder, &data, 3, 1);
    let secs = t.elapsed().as_secs_f64();
    let mut h = Fnv::default();
    for &x in model.class_hvs().as_slice() {
        h.f64(x);
    }
    let valid = model.class_hvs().as_slice().iter().all(|x| x.is_finite());
    out.calls.push(("hdc.train", secs, h.0, valid));

    let t = Instant::now();
    let acc = model.accuracy_with(&encoder, &data, Distance::Cosine);
    out.calls.push((
        "hdc.classify",
        t.elapsed().as_secs_f64(),
        acc.to_bits(),
        accuracy_ok(acc),
    ));
    out.classify_queries += data.test_labels.len();

    for (k, &sigma) in shape.cam_sigmas.iter().enumerate() {
        let t = Instant::now();
        let config = CamSearchConfig {
            device: Fefet::silicon().with_sigma(sigma),
            ..CamSearchConfig::default()
        };
        let cam = CamAm::program(
            &model,
            &config,
            &mut Rng64::for_trial(seed ^ 0x3F6, k as u64),
        );
        let acc = cam.accuracy(&encoder, &data);
        out.calls.push((
            "hdc.cam",
            t.elapsed().as_secs_f64(),
            acc.to_bits(),
            accuracy_ok(acc),
        ));
        out.cam_queries += data.test_labels.len();
    }
}

fn run_mann(seed: u64, shape: &Shape, out: &mut Functional) {
    let data = FewShotSpec {
        background_classes: 6,
        eval_classes: 8,
        samples_per_class: 6,
        seed: seed ^ 0x4E,
        ..FewShotSpec::default()
    }
    .generate();
    let t = Instant::now();
    let (net, loss) = train_controller(
        &data,
        &TrainConfig {
            epochs: shape.epochs,
            seed: seed ^ 0x4E7,
            ..TrainConfig::default()
        },
    );
    out.calls.push((
        "mann.train",
        t.elapsed().as_secs_f64(),
        loss.to_bits(),
        loss.is_finite(),
    ));
    for &relax in shape.relax_decades {
        let t = Instant::now();
        let acc = run_episodes(
            &net,
            &data,
            MannVariant::RramTlsh {
                bits: 128,
                relax_decades: relax,
                threshold_frac: 0.2,
            },
            &EpisodeConfig {
                episodes: shape.episodes,
                seed: seed ^ 0xE9,
                ..EpisodeConfig::default()
            },
        );
        out.calls.push((
            "mann.eval",
            t.elapsed().as_secs_f64(),
            acc.to_bits(),
            accuracy_ok(acc),
        ));
        out.episodes += shape.episodes;
    }
}

fn functional(seed: u64, shape: &Shape, reverse: bool) -> Functional {
    let mut f = Functional {
        calls: Vec::new(),
        classify_queries: 0,
        cam_queries: 0,
        episodes: 0,
    };
    if reverse {
        run_mann(seed, shape, &mut f);
        run_hdc(seed, shape, &mut f);
        // Back to the canonical order, so digests line up.
        let mann = 1 + shape.relax_decades.len();
        f.calls.rotate_left(mann);
    } else {
        run_hdc(seed, shape, &mut f);
        run_mann(seed, shape, &mut f);
    }
    f
}

/// One measured pass (`--child variation_study`): the Monte-Carlo chunks
/// in order, then the functional simulations.
pub fn measure(args: &ChildArgs, shape: &Shape) -> Summary {
    let opts = if args.threads == 0 {
        SweepOptions::default()
    } else {
        SweepOptions::builder().threads(args.threads).build()
    };
    let mut s = Summary::new(args);
    let mut digests = Vec::with_capacity(shape.points());
    let mut kind_s = [0.0f64; 3];
    let mut kind_trials = [0usize; 3];
    for c in 0..shape.mc_chunks {
        let gen = Instant::now();
        let chunk = mc_chunk(args.seed, c, shape);
        s.exclude(gen.elapsed().as_secs_f64());
        let t = Instant::now();
        let b = sweep_chunk(&chunk, &opts);
        let secs = t.elapsed().as_secs_f64();
        s.call(secs);
        kind_s[chunk.kind()] += secs;
        kind_trials[chunk.kind()] += shape.trials[chunk.kind()] * shape.per_chunk;
        digests.extend(batch_digests(&b));
    }
    let f = functional(args.seed, shape, false);
    let mut by_name: Vec<(&str, f64)> = Vec::new();
    for &(name, secs, d, _) in &f.calls {
        s.call(secs);
        digests.push(d);
        match by_name.iter_mut().find(|(n, _)| *n == name) {
            Some(e) => e.1 += secs,
            None => by_name.push((name, secs)),
        }
    }
    for (k, name) in KINDS.iter().enumerate() {
        s.set(&format!("mc.{name}.s"), kind_s[k]);
        s.set(&format!("mc.{name}.trials"), kind_trials[k] as f64);
    }
    for (name, secs) in by_name {
        s.set(&format!("{name}.s"), secs);
    }
    s.set("hdc.classify.queries", f.classify_queries as f64);
    s.set("hdc.cam.queries", f.cam_queries as f64);
    s.set("mann.episodes", f.episodes as f64);
    s.points = shape.points() as u64;
    s.finish(&digests)
}

/// A verification pass (`--child variation_study_forward` or
/// `variation_study_reverse`), on one thread. Forward runs the measured
/// order: every Monte-Carlo point through `Scenario::candidates`, chunk by
/// chunk, then the functional simulations. Reverse runs the functional
/// simulations first (MANN before HDC), then the Monte-Carlo points,
/// chunks last to first and points last to first.
pub fn verify(args: &ChildArgs, shape: &Shape, reverse: bool) -> Summary {
    let first = reverse.then(|| functional(args.seed, shape, true));
    let mut parts: Vec<Vec<(u64, Class)>> = vec![Vec::new(); shape.mc_chunks];
    for c in check::order(shape.mc_chunks, reverse) {
        parts[c] = chunk_points(&mc_chunk(args.seed, c, shape), reverse);
    }
    let f = first.unwrap_or_else(|| functional(args.seed, shape, false));
    let mut digests = Vec::with_capacity(shape.points());
    let mut classes = Vec::with_capacity(shape.points());
    for (d, class) in parts.into_iter().flatten() {
        digests.push(d);
        classes.push(class);
    }
    for &(_, _, d, valid) in &f.calls {
        digests.push(d);
        classes.push(if valid { Class::Ok } else { Class::Broken });
    }
    let mut s = Summary::new(args);
    s.points = shape.points() as u64;
    s.write_classes(&classes);
    s.finish(&digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(chunk: &McChunk) -> Vec<u64> {
        match chunk {
            McChunk::Cam(v) => v.iter().map(|p| p.mc.seed).collect(),
            McChunk::Mann(v) => v.iter().map(|p| p.mc.seed).collect(),
            McChunk::Nvm(v) => v.iter().map(|p| p.mc.seed).collect(),
        }
    }

    #[test]
    fn chunks_are_deterministic_per_seed_and_differ_across_seeds() {
        for c in 0..3 {
            let a = seeds(&mc_chunk(5, c, &FULL));
            assert_eq!(a, seeds(&mc_chunk(5, c, &FULL)));
            assert_ne!(a, seeds(&mc_chunk(6, c, &FULL)));
            assert_eq!(a.len(), FULL.per_chunk);
        }
        assert_eq!(mc_chunk(5, 0, &FULL).kind(), 0);
        assert_eq!(mc_chunk(5, 4, &FULL).kind(), 1);
        assert_eq!(mc_chunk(5, 8, &FULL).kind(), 2);
    }
}
