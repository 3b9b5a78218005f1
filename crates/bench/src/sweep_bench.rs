//! Sweep-engine benchmark workloads (the `xlda-bench` binary).
//!
//! Measures the sweep engine with cross-point memoization (the `v2` arm,
//! see `xlda_core::sweep`) against the same work-stealing engine with
//! memoization globally disabled (the `baseline` arm), so the speedup
//! is the memo's payoff alone, on four fixed design-space-exploration
//! workloads:
//!
//! - **hdc** — the Fig. 3H candidate set evaluated over a grid of
//!   scenario shapes (feature dim × class count × HV length);
//! - **mann** — the Fig. 4E MANN platform comparison over a grid of
//!   network/memory shapes;
//! - **triage** — full cross-layer triage: the HDC candidate set plus
//!   weighted ranking under two objectives per scenario, the paper's
//!   "rapidly triage technology-enabled architectures" loop;
//! - **mc** — Monte-Carlo MANN accuracy distributions under device
//!   variation (`xlda_core::mc`), a grid of hash/relaxation shapes; each
//!   point runs a full trial population, so the report also carries
//!   `trials_per_sec`.
//!
//! Both runs evaluate the identical point set and must produce
//! bit-identical results (`checksum_match`); the JSON report
//! (`BENCH_sweep.json`) is the trajectory format the CI `bench-smoke`
//! job gates on.

use std::fmt::Write as _;
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{HdcScenario, MannScenario, Scenario};
use xlda_core::mc::{MannAccuracyMcScenario, McParams};
use xlda_core::sweep::{memo, sweep_with_stats, SweepOptions};
use xlda_core::triage::{rank, Objective};
use xlda_serve::json::Json;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3H HDC candidate evaluation over a scenario grid.
    Hdc,
    /// MANN platform comparison over a shape grid.
    Mann,
    /// HDC candidates + dual-objective ranking (full triage loop).
    Triage,
    /// MANN accuracy Monte-Carlo under variation, over a shape grid.
    Mc,
}

impl Workload {
    /// All workloads, in report order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::Hdc,
            Workload::Mann,
            Workload::Triage,
            Workload::Mc,
        ]
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Hdc => "hdc",
            Workload::Mann => "mann",
            Workload::Triage => "triage",
            Workload::Mc => "mc",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hdc" => Some(Workload::Hdc),
            "mann" => Some(Workload::Mann),
            "triage" => Some(Workload::Triage),
            "mc" => Some(Workload::Mc),
            _ => None,
        }
    }
}

/// Measurements of one engine configuration over one workload.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall time of the sweep (s).
    pub elapsed_s: f64,
    /// Evaluated design points per second.
    pub points_per_sec: f64,
    /// Total memo-cache hits during the sweep.
    pub cache_hits: u64,
    /// Total memo-cache misses during the sweep.
    pub cache_misses: u64,
    /// Aggregate cache hit rate (0 when memoization is disabled).
    pub cache_hit_rate: f64,
    /// Per-cache counters: (name, hits, misses, entries).
    pub caches: Vec<(String, u64, u64, u64)>,
    /// Per-span aggregates from the obs layer:
    /// (name, total seconds, self seconds, calls).
    pub layers: Vec<(String, f64, f64, u64)>,
    /// Order-sensitive FNV fold of every output bit pattern.
    pub checksum: u64,
}

/// One workload's memo-off baseline vs memoized (`v2`) comparison.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Number of sweep points.
    pub points: usize,
    /// Baseline arm: work-stealing, memoization off.
    pub baseline: RunStats,
    /// v2 arm: work-stealing, memoization on.
    pub v2: RunStats,
    /// Monte-Carlo trials evaluated inside each point (0 for the
    /// deterministic workloads).
    pub trials_per_point: usize,
}

impl WorkloadResult {
    /// Throughput ratio of v2 over the baseline arm: the memo's payoff.
    pub fn speedup(&self) -> f64 {
        self.v2.points_per_sec / self.baseline.points_per_sec
    }

    /// Whether both paths produced bit-identical outputs.
    pub fn checksum_match(&self) -> bool {
        self.baseline.checksum == self.v2.checksum
    }

    /// Monte-Carlo trials per second on the v2 path (0 for the
    /// deterministic workloads).
    pub fn trials_per_sec(&self) -> f64 {
        self.v2.points_per_sec * self.trials_per_point as f64
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fold_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v.to_bits()).wrapping_mul(FNV_PRIME))
}

pub(crate) fn grid_hdc(smoke: bool) -> Vec<HdcScenario> {
    let dims: &[usize] = if smoke {
        &[256, 617]
    } else {
        &[256, 512, 617, 784, 1024]
    };
    let classes: &[usize] = if smoke {
        &[10, 26]
    } else {
        &[10, 16, 26, 40, 50]
    };
    let hvs: &[usize] = if smoke {
        &[1024, 2048]
    } else {
        &[1024, 2048, 4096, 8192]
    };
    let mut out = Vec::new();
    for &dim_in in dims {
        for &cls in classes {
            for &hv in hvs {
                out.push(HdcScenario {
                    dim_in,
                    classes: cls,
                    hv_dim_sw: hv,
                    hv_dim_3b: hv / 2,
                    hv_dim_2b: hv,
                    hv_dim_1b: hv,
                    tech: TechNode::n40(),
                    ..HdcScenario::default()
                });
            }
        }
    }
    out
}

pub(crate) fn grid_mann(smoke: bool) -> Vec<MannScenario> {
    let weights: &[usize] = if smoke {
        &[16_000, 65_000]
    } else {
        &[16_000, 65_000, 131_000, 262_000]
    };
    let embs: &[usize] = if smoke { &[64] } else { &[32, 64, 128] };
    let hashes: &[usize] = &[128, 256];
    let entries: &[usize] = if smoke {
        &[125, 1000]
    } else {
        &[125, 500, 1000, 5000]
    };
    let mut out = Vec::new();
    for &w in weights {
        for &e in embs {
            for &h in hashes {
                for &n in entries {
                    out.push(MannScenario {
                        weights: w,
                        emb_dim: e,
                        hash_bits: h,
                        entries: n,
                        tech: TechNode::n40(),
                        ..MannScenario::default()
                    });
                }
            }
        }
    }
    out
}

/// Trial population per MC grid point. Constant across the grid so the
/// report's `trials_per_sec` is exact, not an average.
pub(crate) const MC_TRIALS_PER_POINT: usize = 1024;

pub(crate) fn grid_mc(smoke: bool) -> Vec<MannAccuracyMcScenario> {
    let hash_bits: &[usize] = if smoke { &[64] } else { &[64, 128] };
    let decades: &[f64] = if smoke { &[3.0] } else { &[0.5, 1.5, 3.0, 4.5] };
    let noises: &[f64] = if smoke { &[0.01] } else { &[0.01, 0.05] };
    let mut out = Vec::new();
    for (i, &bits) in hash_bits.iter().enumerate() {
        for (j, &d) in decades.iter().enumerate() {
            for (k, &rn) in noises.iter().enumerate() {
                out.push(MannAccuracyMcScenario {
                    mc: McParams {
                        trials: MC_TRIALS_PER_POINT,
                        // Distinct seeds per point: the workload must not
                        // degenerate into one repeated stream.
                        seed: 0xBE2C_0000 + (i * 100 + j * 10 + k) as u64,
                        ..McParams::default()
                    },
                    hash_bits: bits,
                    relax_decades: d,
                    read_noise: rn,
                    ..MannAccuracyMcScenario::default()
                });
            }
        }
    }
    out
}

fn eval_mc(s: &MannAccuracyMcScenario) -> u64 {
    match s.evaluate() {
        Ok(eval) => eval.distributions.iter().fold(FNV_OFFSET, |h, d| {
            let h = [
                d.summary.mean,
                d.summary.std_dev,
                d.summary.p5,
                d.summary.p50,
                d.summary.p95,
                d.yield_fraction,
            ]
            .iter()
            .fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(FNV_PRIME));
            // The per-column checksum covers every trial bit, so a
            // single drifting draw anywhere fails the baseline/v2 match.
            (h ^ d.checksum).wrapping_mul(FNV_PRIME)
        }),
        Err(_) => FNV_PRIME,
    }
}

fn eval_hdc(s: &HdcScenario) -> u64 {
    match s.candidates() {
        Ok(cands) => {
            let foms: Vec<f64> = cands
                .iter()
                .flat_map(|c| {
                    [
                        c.fom.latency_s,
                        c.fom.energy_j,
                        c.fom.area_mm2,
                        c.fom.accuracy,
                    ]
                })
                .collect();
            fold_f64s(&foms)
        }
        Err(_) => FNV_PRIME, // error marker, identical in both modes
    }
}

fn eval_mann(s: &MannScenario) -> u64 {
    match s.candidates() {
        Ok(cands) => {
            let foms: Vec<f64> = cands
                .iter()
                .flat_map(|c| [c.fom.latency_s, c.fom.energy_j, c.fom.area_mm2])
                .collect();
            fold_f64s(&foms)
        }
        Err(_) => FNV_PRIME,
    }
}

fn eval_triage(s: &HdcScenario) -> u64 {
    match s.candidates() {
        Ok(cands) => {
            let mut scores = Vec::new();
            for obj in [
                Objective::latency_first(Some(0.9)),
                Objective::energy_first(Some(0.9)),
            ] {
                for r in rank(&cands, &obj) {
                    scores.push(r.score);
                }
            }
            fold_f64s(&scores)
        }
        Err(_) => FNV_PRIME,
    }
}

/// Timing trials per measurement; the fastest is reported. The
/// workloads run in milliseconds, so a single trial is at the mercy of
/// scheduler noise; best-of-N recovers the engine's actual throughput.
const TRIALS: usize = 3;

fn measure<I, F>(inputs: &[I], f: F, opts: &SweepOptions, memo_on: bool, obs_on: bool) -> RunStats
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    let mut best: Option<RunStats> = None;
    for _ in 0..TRIALS {
        let run = measure_once(inputs, &f, opts, memo_on, obs_on);
        if best.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            best = Some(run);
        }
    }
    best.expect("TRIALS >= 1")
}

fn measure_once<I, F>(
    inputs: &[I],
    f: F,
    opts: &SweepOptions,
    memo_on: bool,
    obs_on: bool,
) -> RunStats
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    // Cold caches every trial: each memoized run starts from scratch so
    // the reported speedup is the honest cold-sweep figure, not a
    // warm-cache replay. Span aggregates reset too, so the per-layer
    // breakdown reflects exactly this run.
    memo::clear_all();
    memo::set_enabled(memo_on);
    xlda_obs::reset_aggregates();
    xlda_obs::set_enabled(obs_on);
    let (out, stats) = sweep_with_stats(inputs, f, opts);
    xlda_obs::set_enabled(false);
    memo::set_enabled(true);
    let checksum = out
        .iter()
        .fold(FNV_OFFSET, |h, &c| (h ^ c).wrapping_mul(FNV_PRIME));
    RunStats {
        elapsed_s: stats.elapsed.as_secs_f64(),
        points_per_sec: stats.points_per_sec(),
        cache_hits: stats.cache_hits(),
        cache_misses: stats.cache_misses(),
        cache_hit_rate: stats.cache_hit_rate(),
        caches: stats
            .caches
            .iter()
            .filter(|c| c.hits + c.misses > 0)
            .map(|c| (c.name.to_string(), c.hits, c.misses, c.entries))
            .collect(),
        layers: stats
            .layers
            .iter()
            .map(|l| {
                (
                    l.name.to_string(),
                    l.total_nanos as f64 * 1e-9,
                    l.self_nanos as f64 * 1e-9,
                    l.calls,
                )
            })
            .collect(),
        checksum,
    }
}

fn compare<I, F>(name: &'static str, inputs: &[I], f: F, obs_on: bool) -> WorkloadResult
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    // Same engine shape for both arms, so the ratio isolates the memo.
    // Baseline first so its cold run cannot benefit from v2's caches.
    let opts = SweepOptions::default();
    let baseline = measure(inputs, &f, &opts, false, obs_on);
    let v2 = measure(inputs, &f, &opts, true, obs_on);
    WorkloadResult {
        name,
        points: inputs.len(),
        baseline,
        v2,
        trials_per_point: 0,
    }
}

/// Runs one workload and returns its baseline-vs-v2 comparison.
/// `obs_on` controls span instrumentation (the per-layer breakdown is
/// empty when off).
pub fn run_workload_obs(w: Workload, smoke: bool, obs_on: bool) -> WorkloadResult {
    match w {
        Workload::Hdc => compare("hdc", &grid_hdc(smoke), eval_hdc, obs_on),
        Workload::Mann => compare("mann", &grid_mann(smoke), eval_mann, obs_on),
        Workload::Triage => compare("triage", &grid_hdc(smoke), eval_triage, obs_on),
        Workload::Mc => {
            let mut r = compare("mc", &grid_mc(smoke), eval_mc, obs_on);
            r.trials_per_point = MC_TRIALS_PER_POINT;
            r
        }
    }
}

/// [`run_workload_obs`] with instrumentation on.
pub fn run_workload(w: Workload, smoke: bool) -> WorkloadResult {
    run_workload_obs(w, smoke, true)
}

/// Runs the selected workloads (all of them when `which` is empty).
pub fn run(which: &[Workload], smoke: bool, obs_on: bool) -> Vec<WorkloadResult> {
    let list: Vec<Workload> = if which.is_empty() {
        Workload::all().to_vec()
    } else {
        which.to_vec()
    };
    list.into_iter()
        .map(|w| run_workload_obs(w, smoke, obs_on))
        .collect()
}

/// Disabled-vs-enabled instrumentation comparison of one workload's v2
/// path (the `--obs-overhead` mode, gated in CI).
#[derive(Debug, Clone)]
pub struct ObsOverhead {
    /// Workload name.
    pub workload: &'static str,
    /// Number of sweep points.
    pub points: usize,
    /// Spans disabled (the production default); fastest trial.
    pub off: RunStats,
    /// Spans enabled; fastest trial.
    pub on: RunStats,
    /// Interleaved off/on trial pairs behind the two minima.
    pub trials: usize,
}

impl ObsOverhead {
    /// Fractional wall-time cost of enabling spans (0.05 = 5% slower):
    /// `min(on) / min(off) − 1` over the interleaved trials. Scheduler
    /// noise on a small shared box only ever adds time, so each mode's
    /// fastest trial is the cleanest estimate of its true cost (the
    /// same estimator as the flight-recorder gate).
    pub fn overhead_frac(&self) -> f64 {
        self.on.elapsed_s / self.off.elapsed_s - 1.0
    }

    /// Whether instrumentation left every output bit untouched.
    pub fn checksum_match(&self) -> bool {
        self.off.checksum == self.on.checksum
    }
}

/// Interleaved off/on trial pairs for the overhead gate. Single-trial
/// jitter on a shared small box is ±10% — far above the 5% threshold —
/// so the gate needs enough trials that both minima are clean.
const OVERHEAD_TRIALS: usize = 25;

fn overhead_compare<I, F>(name: &'static str, inputs: &[I], f: F) -> ObsOverhead
where
    I: Sync,
    F: Fn(&I) -> u64 + Sync,
{
    let opts = SweepOptions::default();
    // Interleave off/on trials so slow drift (CPU frequency, noisy
    // neighbours) hits both configurations equally instead of biasing
    // whichever ran second; the gate then compares the two minima.
    let mut off: Option<RunStats> = None;
    let mut on: Option<RunStats> = None;
    for _ in 0..OVERHEAD_TRIALS {
        let o = measure_once(inputs, &f, &opts, true, false);
        let e = measure_once(inputs, &f, &opts, true, true);
        if off.as_ref().is_none_or(|b| o.elapsed_s < b.elapsed_s) {
            off = Some(o);
        }
        if on.as_ref().is_none_or(|b| e.elapsed_s < b.elapsed_s) {
            on = Some(e);
        }
    }
    ObsOverhead {
        workload: name,
        points: inputs.len(),
        off: off.expect("OVERHEAD_TRIALS >= 1"),
        on: on.expect("OVERHEAD_TRIALS >= 1"),
        trials: OVERHEAD_TRIALS,
    }
}

/// Runs one workload's v2 path with spans off, then on.
///
/// The comparison always uses the full grid, even under `--smoke`: a
/// smoke grid finishes in hundreds of microseconds, where scheduler
/// jitter alone exceeds the 5% overhead gate, while the full grid is a
/// realistic cold sweep that still completes in well under a second.
pub fn run_obs_overhead(w: Workload, _smoke: bool) -> ObsOverhead {
    match w {
        Workload::Hdc => overhead_compare("hdc", &grid_hdc(false), eval_hdc),
        Workload::Mann => overhead_compare("mann", &grid_mann(false), eval_mann),
        Workload::Triage => overhead_compare("triage", &grid_hdc(false), eval_triage),
        Workload::Mc => overhead_compare("mc", &grid_mc(false), eval_mc),
    }
}

pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

fn push_run(out: &mut String, r: &RunStats) {
    out.push_str("{\"elapsed_s\":");
    push_json_f64(out, r.elapsed_s);
    out.push_str(",\"points_per_sec\":");
    push_json_f64(out, r.points_per_sec);
    let _ = write!(
        out,
        ",\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":",
        r.cache_hits, r.cache_misses
    );
    push_json_f64(out, r.cache_hit_rate);
    out.push_str(",\"caches\":[");
    for (i, (name, hits, misses, entries)) in r.caches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cache\":\"{name}\",\"hits\":{hits},\"misses\":{misses},\"entries\":{entries}}}"
        );
    }
    out.push_str("],\"layers\":[");
    for (i, (name, total_s, self_s, calls)) in r.layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"layer\":\"{name}\",\"seconds\":");
        push_json_f64(out, *total_s);
        out.push_str(",\"self_seconds\":");
        push_json_f64(out, *self_s);
        let _ = write!(out, ",\"calls\":{calls}}}");
    }
    let _ = write!(out, "],\"checksum\":\"{:016x}\"}}", r.checksum);
}

/// Renders the results as the `BENCH_sweep.json` trajectory document.
///
/// Hand-rolled emission: the workspace has no serialization dependency,
/// so the report writes this fixed schema directly.
pub fn to_json(results: &[WorkloadResult], smoke: bool) -> String {
    to_json_with_store(results, &[], smoke)
}

/// [`to_json`] with the persistent-store arm appended as a
/// `store_arms` array (omitted when empty). Store-arm entries key on
/// `store_workload` rather than `name`, so a lookup by workload name in
/// `workloads` cannot be confused with them.
pub fn to_json_with_store(
    results: &[WorkloadResult],
    store_arms: &[crate::store_bench::StoreArmResult],
    smoke: bool,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"xlda-bench-sweep-v1\",\"mode\":\"{}\",\"workloads\":[",
        if smoke { "smoke" } else { "full" }
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"points\":{},", r.name, r.points);
        out.push_str("\"baseline\":");
        push_run(&mut out, &r.baseline);
        out.push_str(",\"v2\":");
        push_run(&mut out, &r.v2);
        out.push_str(",\"speedup\":");
        push_json_f64(&mut out, r.speedup());
        if r.trials_per_point > 0 {
            let _ = write!(out, ",\"trials_per_point\":{},", r.trials_per_point);
            out.push_str("\"trials_per_sec\":");
            push_json_f64(&mut out, r.trials_per_sec());
        }
        let _ = write!(out, ",\"checksum_match\":{}", r.checksum_match());
        out.push('}');
    }
    out.push(']');
    if !store_arms.is_empty() {
        out.push_str(",\"store_arms\":[");
        for (i, a) in store_arms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::store_bench::push_store_arm(&mut out, a);
        }
        out.push(']');
    }
    out.push_str("}\n");
    out
}

/// The numeric `field` of the `workloads` entry named `name` in a
/// baseline file or report document.
pub fn workload_field(doc: &Json, name: &str, field: &str) -> Option<f64> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))?
        .get(field)
        .and_then(Json::as_f64)
}

/// Gates `results` against a committed baseline document.
///
/// For each workload present in `baseline`, fails when v2
/// throughput drops below `(1 - tolerance)` of the recorded
/// `points_per_sec` floor, when the measured speedup falls below a
/// recorded `min_speedup`, or when the two arms disagree bit-for-bit.
/// Every message names the workload *and* the arm that failed. Returns
/// the list of failure messages (empty = pass).
pub fn check_against_baseline(
    results: &[WorkloadResult],
    baseline: &Json,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in results {
        if !r.checksum_match() {
            failures.push(format!(
                "{} [memo-off baseline vs v2 warm]: checksum mismatch ({:016x} vs {:016x})",
                r.name, r.baseline.checksum, r.v2.checksum
            ));
        }
        if let Some(floor) = workload_field(baseline, r.name, "points_per_sec") {
            let min = floor * (1.0 - tolerance);
            if r.v2.points_per_sec < min {
                failures.push(format!(
                    "{} [v2 warm]: throughput {:.1} pts/s regressed below {:.1} \
                     (floor {:.1} − {:.0}% tolerance)",
                    r.name,
                    r.v2.points_per_sec,
                    min,
                    floor,
                    tolerance * 100.0
                ));
            }
        }
        if let Some(min_speedup) = workload_field(baseline, r.name, "min_speedup") {
            if r.speedup() < min_speedup {
                failures.push(format!(
                    "{} [v2 warm]: speedup {:.2}x below required {:.2}x",
                    r.name,
                    r.speedup(),
                    min_speedup
                ));
            }
        }
        // Gated only for MC workloads, the only ones that run trials.
        if r.trials_per_point > 0 {
            if let Some(floor) = workload_field(baseline, r.name, "trials_per_sec") {
                let min = floor * (1.0 - tolerance);
                if r.trials_per_sec() < min {
                    failures.push(format!(
                        "{} [v2 warm]: {:.0} trials/s regressed below {:.0} \
                         (floor {:.0} − {:.0}% tolerance)",
                        r.name,
                        r.trials_per_sec(),
                        min,
                        floor,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    failures
}

/// Prints a human-readable comparison table.
pub fn print(results: &[WorkloadResult]) {
    println!("sweep engine: baseline (memo off) vs v2 (memo on)");
    crate::rule(92);
    println!(
        "{:>8} {:>7} {:>12} {:>12} {:>9} {:>10} {:>9} {:>10}",
        "workload",
        "points",
        "base pts/s",
        "v2 pts/s",
        "speedup",
        "hit rate",
        "entries",
        "identical"
    );
    for r in results {
        let entries: u64 = r.v2.caches.iter().map(|c| c.3).sum();
        println!(
            "{:>8} {:>7} {:>12.1} {:>12.1} {:>8.2}x {:>9.1}% {:>9} {:>10}",
            r.name,
            r.points,
            r.baseline.points_per_sec,
            r.v2.points_per_sec,
            r.speedup(),
            r.v2.cache_hit_rate * 100.0,
            entries,
            if r.checksum_match() { "yes" } else { "NO" },
        );
    }
    for r in results {
        if r.trials_per_point > 0 {
            println!(
                "{:>8} {} MC trials/point -> {:.0} trials/s (v2)",
                r.name,
                r.trials_per_point,
                r.trials_per_sec()
            );
        }
    }
    println!();
    for r in results {
        if r.v2.layers.is_empty() {
            continue;
        }
        // Percentages are of total span-covered time (the summed
        // self-times), which equals the roots' total time by telescoping.
        let covered: f64 = r.v2.layers.iter().map(|l| l.2).sum();
        println!("{} v2 per-layer self time:", r.name);
        for (name, total_s, self_s, calls) in &r.v2.layers {
            println!(
                "  {:>24} self {:>10} ({:>5.1}%)  total {:>10}  {calls} calls",
                name,
                crate::fmt_time(*self_s),
                100.0 * self_s / covered.max(1e-12),
                crate::fmt_time(*total_s),
            );
        }
    }
}

/// Prints the `--obs-overhead` comparison.
pub fn print_obs_overhead(o: &ObsOverhead) {
    println!(
        "obs overhead: {} ({} points, v2 path)",
        o.workload, o.points
    );
    crate::rule(64);
    println!(
        "  spans off: {:>10}  ({:.1} pts/s)",
        crate::fmt_time(o.off.elapsed_s),
        o.off.points_per_sec
    );
    println!(
        "  spans on:  {:>10}  ({:.1} pts/s)",
        crate::fmt_time(o.on.elapsed_s),
        o.on.points_per_sec
    );
    println!(
        "  overhead:  {:+.2}%  (min(on)/min(off) over {} interleaved pairs)   checksums {}",
        o.overhead_frac() * 100.0,
        o.trials,
        if o.checksum_match() {
            "bit-identical"
        } else {
            "DIFFER"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::MEMO_LOCK;

    /// A baseline document holding the one workload entry `entry`.
    fn baseline(entry: &str) -> Json {
        Json::parse(&format!("{{\"workloads\":[{entry}]}}")).expect("test baseline parses")
    }

    #[test]
    fn triage_smoke_is_transparent_and_faster() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_workload(Workload::Triage, true);
        assert_eq!(r.points, 8);
        assert!(
            r.checksum_match(),
            "memoized sweep must be bit-identical: {:016x} vs {:016x}",
            r.baseline.checksum,
            r.v2.checksum
        );
        assert!(r.v2.cache_hits > 0, "caches must engage");
        assert!(r.baseline.cache_hits == 0, "baseline must not memoize");
        assert!(r.speedup() > 1.0, "speedup {:.2}", r.speedup());
    }

    #[test]
    fn layer_breakdown_accounts_for_wall_time() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Single-threaded so span-covered time is comparable to wall
        // time (with N workers the spans sum to ~N× wall).
        let inputs = grid_hdc(true);
        let opts = SweepOptions::builder().threads(1).build();
        let run = measure_once(&inputs, eval_triage, &opts, true, true);
        let self_sum: f64 = run.layers.iter().map(|l| l.2).sum();
        assert!(
            self_sum >= 0.9 * run.elapsed_s,
            "per-layer self time {self_sum:.6}s must cover >=90% of wall {:.6}s",
            run.elapsed_s
        );
        for expected in ["sweep.point", "evacam.report", "crossbar"] {
            assert!(
                run.layers.iter().any(|l| l.0 == expected),
                "breakdown missing span {expected}: {:?}",
                run.layers.iter().map(|l| &l.0).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn obs_overhead_is_transparent() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let o = run_obs_overhead(Workload::Triage, true);
        assert!(
            o.checksum_match(),
            "instrumentation must not change outputs: {:016x} vs {:016x}",
            o.off.checksum,
            o.on.checksum
        );
        assert!(o.off.layers.is_empty(), "disabled run must record no spans");
        assert!(!o.on.layers.is_empty(), "enabled run must record spans");
    }

    #[test]
    fn mc_smoke_is_deterministic_across_engine_paths() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_workload(Workload::Mc, true);
        assert_eq!(r.trials_per_point, MC_TRIALS_PER_POINT);
        // The two arms differ only in memoization, which cannot touch
        // fresh random draws; identical checksums are the MC gate.
        assert!(
            r.checksum_match(),
            "MC results must be memo-invariant: {:016x} vs {:016x}",
            r.baseline.checksum,
            r.v2.checksum
        );
        assert!(r.trials_per_sec() > 0.0);
        let json = Json::parse(&to_json(std::slice::from_ref(&r), true)).expect("report parses");
        assert_eq!(
            workload_field(&json, "mc", "trials_per_point").map(|p| p as usize),
            Some(MC_TRIALS_PER_POINT)
        );
        let tps = workload_field(&json, "mc", "trials_per_sec").expect("trials_per_sec in report");
        assert!((tps - r.trials_per_sec()).abs() < 1.0);
        // The trials_per_sec floor gates like points_per_sec does.
        let impossible = baseline("{\"name\":\"mc\",\"trials_per_sec\":1e15}");
        let failures = check_against_baseline(std::slice::from_ref(&r), &impossible, 0.3);
        assert!(
            failures.iter().any(|f| f.contains("trials/s")),
            "{failures:?}"
        );
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_workload(Workload::Mann, true);
        let json = Json::parse(&to_json(std::slice::from_ref(&r), true)).expect("report parses");
        let mann = &json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")[0];
        let pps = mann
            .get("v2")
            .and_then(|v2| v2.get("points_per_sec"))
            .and_then(Json::as_f64)
            .expect("v2 pts/s");
        assert!((pps - r.v2.points_per_sec).abs() < 1e-3);
        assert_eq!(
            workload_field(&json, "mann", "points").map(|p| p as usize),
            Some(r.points)
        );
        assert!(workload_field(&json, "absent", "points").is_none());
    }

    #[test]
    fn committed_baseline_floors_are_all_found() {
        let json = Json::parse(include_str!("../../../ci/bench_baseline.json")).expect("parses");
        let floors = |name| {
            [
                "points_per_sec",
                "min_speedup",
                "trials_per_sec",
                "store_min_warm_speedup",
            ]
            .map(|field| workload_field(&json, name, field))
        };
        assert_eq!(floors("hdc"), [Some(4500.0), Some(1.15), None, Some(10.0)]);
        assert_eq!(floors("mann"), [Some(32000.0), Some(1.15), None, Some(1.2)]);
        assert_eq!(
            floors("triage"),
            [Some(4500.0), Some(1.25), None, Some(10.0)]
        );
        assert_eq!(floors("mc"), [Some(20.0), None, Some(24000.0), Some(50.0)]);
        assert_eq!(
            json.get("store")
                .and_then(|s| s.get("min_warm_hit_rate"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn baseline_gate_catches_regressions() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = run_workload(Workload::Hdc, true);
        let generous = baseline("{\"name\":\"hdc\",\"points_per_sec\":1e-6}");
        assert!(check_against_baseline(std::slice::from_ref(&r), &generous, 0.3).is_empty());
        let impossible = baseline("{\"name\":\"hdc\",\"points_per_sec\":1e15,\"min_speedup\":1e9}");
        let failures = check_against_baseline(&[r], &impossible, 0.3);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("regressed"));
        assert!(failures[1].contains("speedup"));
    }
}
