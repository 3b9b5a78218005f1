//! Persistent result-store benchmark arm and the `--store-smoke`
//! crash-recovery gate.
//!
//! The store's performance claim is about *restarts*: a sweep that
//! already ran — in a previous process — should replay as pure digest
//! lookups. Each workload therefore measures two regimes on the same
//! grid:
//!
//! - **cold** — the store file is deleted and recreated, so every point
//!   is a miss + engine evaluation + append (the store's worst case,
//!   also covering its write overhead);
//! - **warm** — the store is *reopened from disk* (a fresh
//!   [`ResultStore`] instance per trial, simulating a process restart)
//!   and the memo caches are cleared, so the measured speed comes only
//!   from the persistent store, not from warm derivation caches.
//!
//! Both regimes fold every output bit into one checksum; `warm` must be
//! bit-identical to `cold` and must resolve every point as a hit. The
//! `--store-smoke` mode runs the same comparison across two *processes*
//! with a CI-injected torn tail in between (see `.github/workflows`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::sweep_bench::{
    grid_hdc, grid_mann, grid_mc, push_json_f64, workload_field, Workload, FNV_OFFSET, FNV_PRIME,
};
use xlda_core::evaluate::{Evaluation, Scenario};
use xlda_core::store::{LoadReport, ResultStore};
use xlda_core::sweep::memo;
use xlda_core::triage::{rank, Objective};
use xlda_serve::json::Json;

/// Measurements of one regime (cold or restart-warm) over one workload.
#[derive(Debug, Clone)]
pub struct ArmStats {
    /// Wall time of the fastest trial (s).
    pub elapsed_s: f64,
    /// Points resolved per second (fastest trial).
    pub points_per_sec: f64,
    /// Store hits during the fastest trial.
    pub hits: u64,
    /// Store misses during the fastest trial.
    pub misses: u64,
    /// Order-sensitive FNV fold of every output bit pattern.
    pub checksum: u64,
}

/// One workload's cold-vs-restart-warm store comparison.
#[derive(Debug, Clone)]
pub struct StoreArmResult {
    /// Workload name.
    pub name: &'static str,
    /// Number of grid points.
    pub points: usize,
    /// Fresh store file: miss + evaluate + append per point.
    pub cold: ArmStats,
    /// Store reopened from disk per trial, memo caches cleared.
    pub warm: ArmStats,
}

impl StoreArmResult {
    /// Throughput ratio of the restart-warm pass over the cold pass.
    pub fn warm_speedup(&self) -> f64 {
        self.warm.points_per_sec / self.cold.points_per_sec
    }

    /// Fraction of warm-pass points resolved as store hits. The gate
    /// requires exactly 1.0: a single miss means a digest failed to
    /// survive the disk round trip.
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm.hits + self.warm.misses;
        if total == 0 {
            0.0
        } else {
            self.warm.hits as f64 / total as f64
        }
    }

    /// Whether the warm pass reproduced the cold pass bit-for-bit.
    pub fn checksum_match(&self) -> bool {
        self.cold.checksum == self.warm.checksum
    }
}

/// Folds one evaluation's full bit content (candidate FOMs plus
/// Monte-Carlo distribution summaries) — the uniform checksum both
/// regimes use, unlike the engine comparison's per-workload folds.
fn fold_eval(h: u64, r: &Result<Evaluation, xlda_core::XldaError>) -> u64 {
    let fold = |h: u64, bits: u64| (h ^ bits).wrapping_mul(FNV_PRIME);
    match r {
        Ok(ev) => {
            let mut h = h;
            for c in &ev.candidates {
                for v in [
                    c.fom.latency_s,
                    c.fom.energy_j,
                    c.fom.area_mm2,
                    c.fom.accuracy,
                ] {
                    h = fold(h, v.to_bits());
                }
            }
            for d in &ev.distributions {
                for v in [
                    d.summary.mean,
                    d.summary.std_dev,
                    d.summary.min,
                    d.summary.max,
                    d.summary.p5,
                    d.summary.p50,
                    d.summary.p95,
                    d.yield_fraction,
                ] {
                    h = fold(h, v.to_bits());
                }
                h = fold(h, d.checksum);
            }
            h
        }
        Err(_) => fold(h, FNV_PRIME), // error marker, identical in both regimes
    }
}

/// The triage workload ranks each point's candidates under both paper
/// objectives on top of the evaluation, so the warm pass proves the
/// whole triage loop — not just raw evaluation — replays from the store.
fn fold_triage(h: u64, r: &Result<Evaluation, xlda_core::XldaError>) -> u64 {
    let mut h = fold_eval(h, r);
    if let Ok(ev) = r {
        for obj in [
            Objective::latency_first(Some(0.9)),
            Objective::energy_first(Some(0.9)),
        ] {
            for ranked in rank(&ev.candidates, &obj) {
                h = (h ^ ranked.score.to_bits()).wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// Timing trials per regime; the fastest is reported (same rationale as
/// the engine comparison's best-of-N).
const TRIALS: usize = 3;

/// One timed pass: resolves every scenario through the store in grid
/// order and folds the outputs.
fn pass<S: Scenario>(
    scenarios: &[S],
    store: &ResultStore,
    fold: impl Fn(u64, &Result<Evaluation, xlda_core::XldaError>) -> u64,
) -> ArmStats {
    // Cleared memo caches isolate what is being measured: cold pays the
    // full evaluation price, warm speed comes only from the store.
    memo::clear_all();
    let before = store.stats();
    let started = Instant::now();
    let mut checksum = FNV_OFFSET;
    for s in scenarios {
        checksum = fold(checksum, &store.evaluate_cached(s));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let after = store.stats();
    ArmStats {
        elapsed_s: elapsed,
        points_per_sec: scenarios.len() as f64 / elapsed.max(1e-12),
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        checksum,
    }
}

fn compare_store<S: Scenario>(
    name: &'static str,
    scenarios: &[S],
    path: &Path,
    fold: impl Fn(u64, &Result<Evaluation, xlda_core::XldaError>) -> u64 + Copy,
) -> StoreArmResult {
    let mut cold: Option<ArmStats> = None;
    for _ in 0..TRIALS {
        // A deleted file per trial keeps every cold trial honestly
        // cold; the last trial leaves the file populated for warm.
        let _ = std::fs::remove_file(path);
        let store = ResultStore::open(path).expect("open store for cold trial");
        let run = pass(scenarios, &store, fold);
        store.flush();
        if cold.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            cold = Some(run);
        }
    }
    let mut warm: Option<ArmStats> = None;
    for _ in 0..TRIALS {
        // A fresh instance per trial replays the segment file from
        // disk — the restart the store exists for.
        let store = ResultStore::open(path).expect("reopen store for warm trial");
        let run = pass(scenarios, &store, fold);
        if warm.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            warm = Some(run);
        }
    }
    StoreArmResult {
        name,
        points: scenarios.len(),
        cold: cold.expect("TRIALS >= 1"),
        warm: warm.expect("TRIALS >= 1"),
    }
}

/// Runs one workload's store arm against the segment file at `path`
/// (created, repopulated, and left on disk).
pub fn run_store_arm(w: Workload, smoke: bool, path: &Path) -> StoreArmResult {
    match w {
        Workload::Hdc => compare_store("hdc", &grid_hdc(smoke), path, fold_eval),
        Workload::Mann => compare_store("mann", &grid_mann(smoke), path, fold_eval),
        Workload::Triage => compare_store("triage", &grid_hdc(smoke), path, fold_triage),
        Workload::Mc => compare_store("mc", &grid_mc(smoke), path, fold_eval),
    }
}

/// Runs the selected workloads' store arms (all when `which` is empty)
/// on a scratch file that is removed afterwards.
pub fn run_store_arms(which: &[Workload], smoke: bool) -> Vec<StoreArmResult> {
    let list: Vec<Workload> = if which.is_empty() {
        Workload::all().to_vec()
    } else {
        which.to_vec()
    };
    let mut path = std::env::temp_dir();
    path.push(format!("xlda_bench_store_{}.bin", std::process::id()));
    let out = list
        .into_iter()
        .map(|w| run_store_arm(w, smoke, &path))
        .collect();
    let _ = std::fs::remove_file(&path);
    out
}

/// Serializes one store arm into the `BENCH_sweep.json` report.
pub(crate) fn push_store_arm(out: &mut String, a: &StoreArmResult) {
    let _ = write!(
        out,
        "{{\"store_workload\":\"{}\",\"points\":{},\"cold_points_per_sec\":",
        a.name, a.points
    );
    push_json_f64(out, a.cold.points_per_sec);
    out.push_str(",\"warm_points_per_sec\":");
    push_json_f64(out, a.warm.points_per_sec);
    out.push_str(",\"warm_speedup\":");
    push_json_f64(out, a.warm_speedup());
    out.push_str(",\"warm_hit_rate\":");
    push_json_f64(out, a.warm_hit_rate());
    let _ = write!(
        out,
        ",\"warm_hits\":{},\"warm_misses\":{},\"cold_checksum\":\"{:016x}\",\"checksum_match\":{}}}",
        a.warm.hits,
        a.warm.misses,
        a.cold.checksum,
        a.checksum_match()
    );
}

/// Gates the store arms: bit-exact warm replay, hit rate exactly 1.0,
/// and per-workload `store_min_warm_speedup` floors from the committed
/// baseline (a ratio, so no machine tolerance applies). With
/// [`Json::Null`] for `baseline`, only the exact invariants are checked.
pub fn check_store_baseline(arms: &[StoreArmResult], baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    for a in arms {
        if !a.checksum_match() {
            failures.push(format!(
                "store/{}: warm replay changed bits ({:016x} vs {:016x})",
                a.name, a.cold.checksum, a.warm.checksum
            ));
        }
        let min_hit_rate = baseline
            .get("store")
            .and_then(|s| s.get("min_warm_hit_rate"))
            .and_then(Json::as_f64)
            .unwrap_or(1.0);
        if a.warm_hit_rate() < min_hit_rate {
            failures.push(format!(
                "store/{}: warm hit rate {:.4} below {:.4} ({} misses after restart)",
                a.name,
                a.warm_hit_rate(),
                min_hit_rate,
                a.warm.misses
            ));
        }
        if let Some(floor) = workload_field(baseline, a.name, "store_min_warm_speedup") {
            if a.warm_speedup() < floor {
                failures.push(format!(
                    "store/{}: restart-warm speedup {:.2}x below required {:.2}x",
                    a.name,
                    a.warm_speedup(),
                    floor
                ));
            }
        }
    }
    failures
}

/// Prints the store-arm comparison table.
pub fn print_store_arms(arms: &[StoreArmResult]) {
    if arms.is_empty() {
        return;
    }
    println!("\nresult store: cold (evaluate + append) vs restart-warm (disk replay)");
    crate::rule(86);
    println!(
        "{:>8} {:>7} {:>13} {:>13} {:>9} {:>9} {:>10}",
        "workload", "points", "cold pts/s", "warm pts/s", "speedup", "hit rate", "identical"
    );
    for a in arms {
        println!(
            "{:>8} {:>7} {:>13.1} {:>13.1} {:>8.2}x {:>8.1}% {:>10}",
            a.name,
            a.points,
            a.cold.points_per_sec,
            a.warm.points_per_sec,
            a.warm_speedup(),
            a.warm_hit_rate() * 100.0,
            if a.checksum_match() { "yes" } else { "NO" },
        );
    }
}

// ---------------------------------------------------------------------------
// --store-smoke: the cross-process crash-recovery gate
// ---------------------------------------------------------------------------

/// One `--store-smoke` pass (one process, one regime).
#[derive(Debug, Clone)]
pub struct StoreSmokeReport {
    /// `"cold"` (fresh store file) or `"warm"` (reopened, post-crash).
    pub mode: &'static str,
    /// What replaying the segment file found on open.
    pub load: LoadReport,
    /// Per-workload passes, in [`Workload::all`] order.
    pub workloads: Vec<SmokeWorkload>,
}

/// One workload inside a `--store-smoke` pass.
#[derive(Debug, Clone)]
pub struct SmokeWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Number of grid points.
    pub points: usize,
    /// Store hits while resolving this workload.
    pub hits: u64,
    /// Store misses while resolving this workload.
    pub misses: u64,
    /// Points resolved per second.
    pub points_per_sec: f64,
    /// Uniform output checksum (must match across processes).
    pub checksum: u64,
}

impl StoreSmokeReport {
    /// Hit rate across every workload of the pass.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self
            .workloads
            .iter()
            .fold((0u64, 0u64), |(h, m), w| (h + w.hits, m + w.misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Runs one `--store-smoke` pass over every workload. `cold` deletes
/// the store file first; warm opens whatever the previous process (and
/// any CI-injected corruption) left behind.
pub fn run_store_smoke(smoke: bool, path: &Path, cold: bool) -> StoreSmokeReport {
    if cold {
        let _ = std::fs::remove_file(path);
    }
    let store = ResultStore::open(path).expect("open store");
    let load = store.load_report();
    let mut workloads = Vec::new();
    for w in Workload::all() {
        let run = match w {
            Workload::Hdc => pass(&grid_hdc(smoke), &store, fold_eval),
            Workload::Mann => pass(&grid_mann(smoke), &store, fold_eval),
            Workload::Triage => pass(&grid_hdc(smoke), &store, fold_triage),
            Workload::Mc => pass(&grid_mc(smoke), &store, fold_eval),
        };
        workloads.push(SmokeWorkload {
            name: w.name(),
            points: match w {
                Workload::Hdc | Workload::Triage => grid_hdc(smoke).len(),
                Workload::Mann => grid_mann(smoke).len(),
                Workload::Mc => grid_mc(smoke).len(),
            },
            hits: run.hits,
            misses: run.misses,
            points_per_sec: run.points_per_sec,
            checksum: run.checksum,
        });
    }
    store.flush();
    StoreSmokeReport {
        mode: if cold { "cold" } else { "warm" },
        load,
        workloads,
    }
}

/// Renders the `--store-smoke` report (`xlda-bench-store-v1`).
pub fn smoke_to_json(r: &StoreSmokeReport, path: &Path) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"xlda-bench-store-v1\",\"mode\":\"{}\",\"store_path\":{:?},\
         \"recovered_records\":{},\"truncated_bytes\":{},\"reset\":{},\"hit_rate\":",
        r.mode,
        path.display().to_string(),
        r.load.recovered_records,
        r.load.truncated_bytes,
        r.load.reset,
    );
    push_json_f64(&mut out, r.hit_rate());
    out.push_str(",\"workloads\":[");
    for (i, w) in r.workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"store_workload\":\"{}\",\"points\":{},\"hits\":{},\"misses\":{},\
             \"points_per_sec\":",
            w.name, w.points, w.hits, w.misses
        );
        push_json_f64(&mut out, w.points_per_sec);
        let _ = write!(out, ",\"checksum\":\"{:016x}\"}}", w.checksum);
    }
    out.push_str("]}\n");
    out
}

/// Scans one workload's checksum string out of a `--store-smoke` report.
fn scan_checksum(json: &str, name: &str) -> Option<String> {
    let anchor = format!("\"store_workload\":\"{name}\"");
    let start = json.find(&anchor)? + anchor.len();
    let rest = &json[start..];
    let key = "\"checksum\":\"";
    let at = rest.find(key)? + key.len();
    let tail = &rest[at..];
    Some(tail[..tail.find('"')?].to_string())
}

/// Gates a warm `--store-smoke` pass against the cold pass's report
/// (from the previous process): result-level hit rate must be exactly
/// 1.0 and every workload checksum must match bit-for-bit.
pub fn verify_store_smoke(warm: &StoreSmokeReport, cold_json: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if warm.hit_rate() < 1.0 {
        failures.push(format!(
            "store-smoke: warm hit rate {:.4} != 1.0 — the persisted store did not \
             resolve every repeated point",
            warm.hit_rate()
        ));
    }
    for w in &warm.workloads {
        match scan_checksum(cold_json, w.name) {
            Some(cold) => {
                let ours = format!("{:016x}", w.checksum);
                if ours != cold {
                    failures.push(format!(
                        "store-smoke/{}: warm checksum {ours} != cold {cold}",
                        w.name
                    ));
                }
            }
            None => failures.push(format!(
                "store-smoke/{}: cold report has no checksum for this workload",
                w.name
            )),
        }
    }
    failures
}

/// Prints one `--store-smoke` pass.
pub fn print_store_smoke(r: &StoreSmokeReport) {
    println!(
        "store smoke ({}): {} records recovered, {} torn bytes truncated{}",
        r.mode,
        r.load.recovered_records,
        r.load.truncated_bytes,
        if r.load.reset { ", file reset" } else { "" },
    );
    crate::rule(72);
    for w in &r.workloads {
        println!(
            "{:>8} {:>5} points  {:>6} hits {:>6} misses  {:>12.1} pts/s  {:016x}",
            w.name, w.points, w.hits, w.misses, w.points_per_sec, w.checksum
        );
    }
    println!("overall hit rate: {:.4}", r.hit_rate());
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::MEMO_LOCK;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "xlda_store_bench_{}_{}.bin",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn store_arm_warm_pass_is_all_hits_and_bit_exact() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp("arm");
        let a = run_store_arm(Workload::Hdc, true, &path);
        assert_eq!(a.points, 8);
        assert!(a.checksum_match(), "warm replay must be bit-identical");
        assert_eq!(a.warm_hit_rate(), 1.0, "warm pass must be pure lookups");
        assert_eq!(a.warm.misses, 0);
        assert_eq!(a.cold.hits, 0, "cold pass must start from an empty store");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_arm_json_and_gate_round_trip() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp("gate");
        let a = run_store_arm(Workload::Triage, true, &path);
        let json = crate::sweep_bench::to_json_with_store(&[], std::slice::from_ref(&a), true);
        let report = Json::parse(&json).expect("report parses");
        let arm = &report
            .get("store_arms")
            .and_then(Json::as_arr)
            .expect("store_arms")[0];
        assert_eq!(
            arm.get("store_workload").and_then(Json::as_str),
            Some("triage")
        );
        let speedup = arm
            .get("warm_speedup")
            .and_then(Json::as_f64)
            .expect("warm_speedup in report");
        assert!((speedup - a.warm_speedup()).abs() < 1e-3);
        assert_eq!(
            arm.get("checksum_match").and_then(Json::as_bool),
            Some(true)
        );
        // A satisfiable baseline passes; an impossible floor fails.
        let ok = Json::parse(
            "{\"workloads\":[{\"name\":\"triage\",\"store_min_warm_speedup\":0.001}],\
             \"store\":{\"min_warm_hit_rate\":1.0}}",
        )
        .expect("parses");
        assert_eq!(
            check_store_baseline(std::slice::from_ref(&a), &ok),
            Vec::<String>::new()
        );
        let bad =
            Json::parse("{\"workloads\":[{\"name\":\"triage\",\"store_min_warm_speedup\":1e9}]}")
                .expect("parses");
        let failures = check_store_baseline(std::slice::from_ref(&a), &bad);
        assert!(
            failures.iter().any(|f| f.contains("speedup")),
            "{failures:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_smoke_warm_process_verifies_against_cold_report() {
        let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp("smoke");
        let cold = run_store_smoke(true, &path, true);
        assert_eq!(cold.mode, "cold");
        // The first workload starts from an empty file, so it is all
        // misses; later workloads may legitimately hit (triage shares
        // the hdc grid), so the overall rate is merely below 1.0.
        assert_eq!(
            cold.workloads[0].hits, 0,
            "first cold workload is all misses"
        );
        assert!(cold.hit_rate() < 1.0);
        let cold_json = smoke_to_json(&cold, &path);
        // Simulate the CI torn-tail injection between the processes.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("append garbage");
        f.write_all(&[0x2c, 0x00, 0x00, 0x00, 0xde, 0xad])
            .expect("write");
        drop(f);
        let warm = run_store_smoke(true, &path, false);
        assert!(warm.load.truncated_bytes >= 6, "{:?}", warm.load);
        assert_eq!(warm.hit_rate(), 1.0, "warm pass must be pure lookups");
        assert_eq!(verify_store_smoke(&warm, &cold_json), Vec::<String>::new());
        // A doctored cold report fails the gate.
        let doctored = cold_json.replace(
            &format!("{:016x}", cold.workloads[0].checksum),
            "0000000000000000",
        );
        let failures = verify_store_smoke(&warm, &doctored);
        assert!(
            failures.iter().any(|f| f.contains("checksum")),
            "{failures:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
