//! `xlda-bench` — sweep-engine benchmark harness and CI throughput gate.
//!
//! Runs the fixed HDC/MANN/triage/MC sweep workloads, comparing the
//! memo-off baseline against the v2 path (cross-point memoization on the
//! same work-stealing engine) plus a persistent
//! result-store cold/restart-warm arm per workload, writes the
//! `BENCH_sweep.json` trajectory report, and optionally gates against a
//! committed baseline.
//!
//! ```text
//! xlda-bench [--smoke] [--workload NAME]... [--out PATH]
//!            [--baseline PATH] [--tolerance FRACTION]
//!            [--no-obs] [--trace PATH]
//! xlda-bench --obs-overhead [--smoke] [--workload NAME] [--trace PATH]
//! xlda-bench --flight-overhead [--smoke]
//! xlda-bench --loadgen [--smoke] [--duration-secs N] [--connections N]
//!            [--serve-addr ADDR] [--access-log PATH] [--out PATH]
//! xlda-bench --store-smoke [--smoke] [--store-path PATH]
//!            [--verify COLD.json] [--out PATH]
//! ```
//!
//! - `--smoke`: shrunken grids for CI (seconds, not minutes).
//! - `--workload`: `hdc`, `mann`, `triage`, or `mc`; repeatable;
//!   default all. `mc` runs Monte-Carlo trial populations per point and
//!   adds `trials_per_sec` to the report.
//! - `--out`: report path (default `BENCH_sweep.json`, or
//!   `BENCH_serve.json` under `--loadgen`).
//! - `--baseline`: gate against this committed report; exit 1 when v2
//!   throughput falls below its `points_per_sec` floors minus
//!   `--tolerance` (default 0.30), when a recorded `min_speedup` is
//!   missed, or when baseline/v2 outputs are not bit-identical.
//! - `--no-obs`: leave span instrumentation off (no per-layer
//!   breakdown; what production embedders see by default).
//! - `--trace PATH`: capture per-span events during the run and write
//!   an NDJSON trace dump (span events + aggregates) to `PATH`.
//! - `--obs-overhead`: instead of the engine comparison, run one
//!   workload's v2 path with spans off then on; exit 1 when the
//!   checksums differ or the enabled-mode wall-time overhead
//!   (`min(on)/min(off) − 1` over interleaved trials) exceeds 5% (the
//!   CI `obs-overhead` gate).
//! - `--flight-overhead`: the flight-recorder cost gate. Drives the
//!   loadgen mix through recorder-off and recorder-on (+ access log)
//!   in-process servers in interleaved pairs; exit 1 when the sorted
//!   response checksums are not bit-identical or the best-batch
//!   overhead `min(on)/min(off) − 1` exceeds 5% (the CI gate next to
//!   `obs-overhead`).
//! - `--loadgen`: instead of the sweep benchmark, hammer `xlda-serve`
//!   with a mixed hdc/mann/triage stream (in-process server unless
//!   `--serve-addr` names a running daemon), verify bit-exact parity,
//!   and write the serving trajectory report. `--access-log PATH`
//!   routes every benchmarked request through the wide-event NDJSON
//!   log; the post-warm `debug` probe asserts the flight recorder
//!   retained the slowest request with an exactly-telescoping stage
//!   breakdown.
//! - `--store-smoke`: the cross-process crash-recovery gate. Without
//!   `--verify`, deletes the store file at `--store-path` (default
//!   `xlda_store.bin`), resolves every workload cold, and writes a
//!   `xlda-bench-store-v1` report. With `--verify COLD.json` — run as a
//!   *separate process*, optionally after corrupting the store's tail —
//!   reopens the persisted file and exits 1 unless every point is a
//!   store hit (hit rate exactly 1.0) and every workload checksum is
//!   bit-identical to the cold report's.

use std::process::ExitCode;
use std::time::Duration;
use xlda_bench::flight_bench;
use xlda_bench::loadgen::{self, LoadgenConfig};
use xlda_bench::store_bench;
use xlda_bench::sweep_bench::{self, Workload};
use xlda_serve::json::Json;

struct Args {
    smoke: bool,
    workloads: Vec<Workload>,
    out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    no_obs: bool,
    trace: Option<String>,
    obs_overhead: bool,
    flight_overhead: bool,
    loadgen: bool,
    duration_secs: Option<u64>,
    connections: Option<usize>,
    serve_addr: Option<String>,
    access_log: Option<String>,
    store_smoke: bool,
    store_path: String,
    verify: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xlda-bench [--smoke] [--workload hdc|mann|triage|mc]... \
         [--out PATH] [--baseline PATH] [--tolerance FRACTION] \
         [--no-obs] [--trace PATH]\n\
         \x20      xlda-bench --obs-overhead [--smoke] [--workload NAME] [--trace PATH]\n\
         \x20      xlda-bench --flight-overhead [--smoke]\n\
         \x20      xlda-bench --loadgen [--smoke] [--duration-secs N] \
         [--connections N] [--serve-addr ADDR] [--access-log PATH] [--baseline PATH] [--out PATH]\n\
         \x20      xlda-bench --store-smoke [--smoke] [--store-path PATH] \
         [--verify COLD.json] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        workloads: Vec::new(),
        out: None,
        baseline: None,
        tolerance: 0.30,
        no_obs: false,
        trace: None,
        obs_overhead: false,
        flight_overhead: false,
        loadgen: false,
        duration_secs: None,
        connections: None,
        serve_addr: None,
        access_log: None,
        store_smoke: false,
        store_path: "xlda_store.bin".to_string(),
        verify: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--loadgen" => args.loadgen = true,
            "--no-obs" => args.no_obs = true,
            "--obs-overhead" => args.obs_overhead = true,
            "--flight-overhead" => args.flight_overhead = true,
            "--trace" => match it.next() {
                Some(p) => args.trace = Some(p),
                None => usage(),
            },
            "--workload" => match it.next().as_deref().and_then(Workload::parse) {
                Some(w) => args.workloads.push(w),
                None => usage(),
            },
            "--out" => match it.next() {
                Some(p) => args.out = Some(p),
                None => usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => args.baseline = Some(p),
                None => usage(),
            },
            "--tolerance" => match it.next().and_then(|t| t.parse().ok()) {
                Some(t) => args.tolerance = t,
                None => usage(),
            },
            "--duration-secs" => match it.next().and_then(|t| t.parse().ok()) {
                Some(t) => args.duration_secs = Some(t),
                None => usage(),
            },
            "--connections" => match it.next().and_then(|t| t.parse().ok()) {
                Some(t) if t > 0 => args.connections = Some(t),
                _ => usage(),
            },
            "--serve-addr" => match it.next() {
                Some(a) => args.serve_addr = Some(a),
                None => usage(),
            },
            "--access-log" => match it.next() {
                Some(p) => args.access_log = Some(p),
                None => usage(),
            },
            "--store-smoke" => args.store_smoke = true,
            "--store-path" => match it.next() {
                Some(p) => args.store_path = p,
                None => usage(),
            },
            "--verify" => match it.next() {
                Some(p) => args.verify = Some(p),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn run_loadgen(args: &Args) -> ExitCode {
    let mut config = LoadgenConfig::new(args.smoke);
    if let Some(secs) = args.duration_secs {
        config.duration = Duration::from_secs(secs.max(1));
    }
    if let Some(n) = args.connections {
        config.connections = n;
    }
    config.serve_addr = args.serve_addr.clone();
    config.access_log = args.access_log.clone();

    let report = loadgen::run(&config);
    loadgen::print(&report);

    let out = args.out.as_deref().unwrap_or("BENCH_serve.json");
    let json = loadgen::to_json(&report, args.smoke, &config);
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("xlda-bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nreport written to {out}");

    let mut failures = loadgen::failures(&report);
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Ok(baseline) => {
                let gate = loadgen::check_against_baseline(&report, &baseline);
                if gate.is_empty() {
                    println!("serve baseline gate: PASS (vs {path})");
                }
                failures.extend(gate);
            }
            Err(e) => failures.push(format!("cannot read baseline {path}: {e}")),
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Starts event capture if `--trace` was given; returns whether it did.
fn trace_start(args: &Args) -> bool {
    if args.trace.is_some() {
        xlda_obs::trace::start();
        true
    } else {
        false
    }
}

/// Stops capture and writes the NDJSON dump. Aggregates are from the
/// final measured run (each trial resets them); events span the whole
/// capture window.
fn trace_finish(args: &Args) -> Result<(), ExitCode> {
    let Some(path) = &args.trace else {
        return Ok(());
    };
    let events = xlda_obs::trace::stop();
    let aggregates = xlda_obs::aggregate_snapshot();
    let dump = xlda_obs::export::trace_ndjson(&events, &aggregates, xlda_obs::trace::dropped());
    if let Err(e) = std::fs::write(path, dump) {
        eprintln!("xlda-bench: cannot write trace {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("trace written to {path} ({} span events)", events.len());
    Ok(())
}

/// The `--store-smoke` gate: one process's cold or warm pass over the
/// persistent store, reported as `xlda-bench-store-v1`.
fn run_store_smoke(args: &Args) -> ExitCode {
    let path = std::path::Path::new(&args.store_path);
    let cold = args.verify.is_none();
    let report = store_bench::run_store_smoke(args.smoke, path, cold);
    store_bench::print_store_smoke(&report);

    let out = args.out.as_deref().unwrap_or(if cold {
        "BENCH_store_cold.json"
    } else {
        "BENCH_store_warm.json"
    });
    let json = store_bench::smoke_to_json(&report, path);
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("xlda-bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {out}");

    let mut failures = Vec::new();
    if let Some(cold_path) = &args.verify {
        match std::fs::read_to_string(cold_path) {
            Ok(cold_json) => {
                failures = store_bench::verify_store_smoke(&report, &cold_json);
                if failures.is_empty() {
                    println!("store-smoke gate: PASS (vs {cold_path})");
                }
            }
            Err(e) => failures.push(format!("cannot read cold report {cold_path}: {e}")),
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Maximum tolerated wall-time cost of enabled instrumentation.
const OBS_OVERHEAD_LIMIT: f64 = 0.05;

fn run_obs_overhead(args: &Args) -> ExitCode {
    let w = args.workloads.first().copied().unwrap_or(Workload::Triage);
    trace_start(args);
    let o = sweep_bench::run_obs_overhead(w, args.smoke);
    sweep_bench::print_obs_overhead(&o);
    if let Err(code) = trace_finish(args) {
        return code;
    }
    let mut failures = Vec::new();
    if !o.checksum_match() {
        failures.push(format!(
            "{}: instrumentation changed outputs ({:016x} vs {:016x})",
            o.workload, o.off.checksum, o.on.checksum
        ));
    }
    if o.overhead_frac() > OBS_OVERHEAD_LIMIT {
        failures.push(format!(
            "{}: enabled-span overhead {:.2}% exceeds {:.0}%",
            o.workload,
            o.overhead_frac() * 100.0,
            OBS_OVERHEAD_LIMIT * 100.0
        ));
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn run_flight_overhead(args: &Args) -> ExitCode {
    let report = flight_bench::run(args.smoke);
    flight_bench::print(&report);
    let failures = flight_bench::failures(&report);
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.loadgen {
        return run_loadgen(&args);
    }
    if args.flight_overhead {
        return run_flight_overhead(&args);
    }
    if args.store_smoke {
        return run_store_smoke(&args);
    }
    if args.obs_overhead {
        return run_obs_overhead(&args);
    }
    let tracing = trace_start(&args);
    if tracing && args.no_obs {
        eprintln!("xlda-bench: --trace needs spans; ignoring --no-obs");
    }
    let results = sweep_bench::run(&args.workloads, args.smoke, !args.no_obs || tracing);
    sweep_bench::print(&results);
    if let Err(code) = trace_finish(&args) {
        return code;
    }

    // The persistent-store arm rides on the same report: cold
    // (evaluate + append) vs restart-warm (disk replay) per workload.
    let store_arms = store_bench::run_store_arms(&args.workloads, args.smoke);
    store_bench::print_store_arms(&store_arms);

    let out = args.out.as_deref().unwrap_or("BENCH_sweep.json");
    let json = sweep_bench::to_json_with_store(&results, &store_arms, args.smoke);
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("xlda-bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nreport written to {out}");

    // Bit-exactness holds regardless of a baseline file: the memo-off
    // and memoized arms must agree.
    let mut failures: Vec<String> = Vec::new();
    for r in &results {
        if !r.checksum_match() {
            failures.push(format!(
                "{} [memo-off baseline vs v2 warm]: checksum mismatch ({:016x} vs {:016x})",
                r.name, r.baseline.checksum, r.v2.checksum
            ));
        }
    }

    // The store arms' invariants (bit-exact replay, hit rate 1.0) hold
    // regardless of a baseline; speedup floors need the baseline file.
    failures.extend(store_bench::check_store_baseline(&store_arms, &Json::Null));

    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path).map(|text| Json::parse(&text)) {
            Ok(Ok(baseline)) => {
                // The gate re-checks checksums; drop the duplicates above.
                failures = sweep_bench::check_against_baseline(&results, &baseline, args.tolerance);
                failures.extend(store_bench::check_store_baseline(&store_arms, &baseline));
                if failures.is_empty() {
                    println!(
                        "baseline gate: PASS (vs {path}, tolerance {})",
                        args.tolerance
                    );
                }
            }
            Ok(Err(e)) => failures.push(format!("baseline {path} is not valid JSON: {e}")),
            Err(e) => failures.push(format!("cannot read baseline {path}: {e}")),
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
