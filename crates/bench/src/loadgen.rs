//! `--loadgen`: the serving benchmark behind `BENCH_serve.json`.
//!
//! Hammers an `xlda-serve` instance with a fixed mixed
//! hdc/mann/triage/edge request stream over several concurrent TCP
//! connections, verifying **bit-exact parity** of every response
//! against direct `Scenario::candidates` library calls while
//! measuring client-observed throughput and latency.
//!
//! Two phases run back to back on the same server process:
//!
//! - **cold** — memo caches cleared immediately before the phase, so
//!   first touches of each sub-problem pay full evaluation cost;
//! - **warm** — the same request mix again, now served out of the
//!   process-wide caches the cold phase populated.
//!
//! By default the server runs *in process* on an ephemeral port (which
//! is what lets the harness clear the process-global caches for the
//! cold phase); `--serve-addr` points the stream at an external daemon
//! instead (phases then differ only by history). Backpressure
//! rejections are retried after the server's `retry_after_ms` and
//! reported separately; a parity mismatch fails the run.

use std::fmt::Write as FmtWrite;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xlda_core::evaluate::{EdgeScenario, HdcScenario, MannScenario, Scenario};
use xlda_core::fom::Candidate;
use xlda_core::mc::{MannAccuracyMcScenario, McParams};
use xlda_core::sweep::memo;
use xlda_serve::json::{obj, Json};
use xlda_serve::{AccessLog, Server, ServerConfig};

/// Loadgen knobs (see `xlda-bench --help`).
pub struct LoadgenConfig {
    /// Total wall-clock budget across both phases.
    pub duration: Duration,
    /// Concurrent client connections.
    pub connections: usize,
    /// External server address; `None` starts one in process.
    pub serve_addr: Option<String>,
    /// Wide-event access-log path for the in-process server (ignored
    /// with `serve_addr`): every benchmarked request is logged through
    /// the bounded non-blocking writer, so the run also measures the
    /// recorder + log at full load.
    pub access_log: Option<String>,
}

impl LoadgenConfig {
    /// Defaults: 10 s total (5 s under `--smoke`), 2 connections,
    /// in-process server. Two connections,
    /// not more: client threads share the machine with the server, and
    /// on the small CI box a larger fleet oversubscribes the cores and
    /// measures scheduler queueing instead of serving latency — Little's
    /// law pins client p50 near `connections / throughput` regardless of
    /// how fast the server is.
    pub fn new(smoke: bool) -> Self {
        Self {
            duration: Duration::from_secs(if smoke { 5 } else { 10 }),
            connections: 2,
            serve_addr: None,
            access_log: None,
        }
    }
}

/// One entry of the fixed request mix.
struct MixEntry {
    name: &'static str,
    /// Request body without the `"id"` field (injected per call).
    request: String,
    /// Library ground truth for parity checking.
    expected: Vec<Candidate>,
}

/// The fixed mixed stream: two HDC points, two MANN points, a triage
/// request, an edge study, and a small Monte-Carlo population — enough
/// kind diversity to interleave in shared batches, small enough that
/// the warm phase re-hits every cached sub-problem. The MC entry's
/// candidate parity doubles as a served-determinism check: the same
/// `(seed, trials)` must reproduce the library's quantiles bit-for-bit
/// on every repetition.
fn request_mix() -> Vec<MixEntry> {
    let hdc_alt = HdcScenario {
        classes: 12,
        acc_sw: 0.93,
        ..HdcScenario::default()
    };
    let mann_alt = MannScenario {
        hash_bits: 96,
        entries: 500,
        ..MannScenario::default()
    };
    let mann_mc = MannAccuracyMcScenario {
        mc: McParams {
            trials: 128,
            seed: 11,
            ..McParams::default()
        },
        hash_bits: 32,
        ..MannAccuracyMcScenario::default()
    };
    vec![
        MixEntry {
            name: "hdc-default",
            request: r#""kind":"hdc""#.into(),
            expected: HdcScenario::default().candidates().expect("models"),
        },
        MixEntry {
            name: "hdc-alt",
            request: r#""kind":"hdc","scenario":{"classes":12,"acc_sw":0.93}"#.into(),
            expected: hdc_alt.candidates().expect("models"),
        },
        MixEntry {
            name: "mann-default",
            request: r#""kind":"mann""#.into(),
            expected: MannScenario::default().candidates().expect("models"),
        },
        MixEntry {
            name: "mann-alt",
            request: r#""kind":"mann","scenario":{"hash_bits":96,"entries":500}"#.into(),
            expected: mann_alt.candidates().expect("models"),
        },
        MixEntry {
            name: "triage",
            request: r#""kind":"triage","objective":"latency_first","floor":0.9"#.into(),
            expected: HdcScenario::default().candidates().expect("models"),
        },
        MixEntry {
            name: "edge",
            request: r#""kind":"edge""#.into(),
            expected: EdgeScenario::default().candidates().expect("models"),
        },
        MixEntry {
            name: "mann-mc",
            request: r#""kind":"mann_mc","scenario":{"trials":128,"seed":11,"hash_bits":32}"#
                .into(),
            expected: mann_mc.candidates().expect("models"),
        },
    ]
}

/// The raw request bodies of the loadgen mix (everything after the
/// `"id"` field), shared with the flight-overhead harness so both
/// measure the same traffic shape.
pub(crate) fn mix_bodies() -> Vec<String> {
    request_mix().into_iter().map(|m| m.request).collect()
}

/// Client-side results of one phase.
pub struct PhaseStats {
    /// `"cold"` or `"warm"`.
    pub name: &'static str,
    /// Successful responses.
    pub completed: u64,
    /// Backpressure rejections observed (each retried).
    pub rejected: u64,
    /// Responses whose FOMs were not bit-identical to the library.
    pub parity_failures: u64,
    /// Requests per second over the phase window.
    pub throughput_rps: f64,
    /// Client-observed latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// Aggregate memo hit rate *within* this phase (stats delta).
    pub cache_hit_rate: f64,
}

/// Result of the post-warm `debug` probe against the flight recorder.
pub struct DebugProbe {
    /// Retained traces the `debug` response carried.
    pub traces: u64,
    /// Total latency of the slowest retained trace, milliseconds.
    pub slowest_ms: f64,
    /// Whether every trace's stage nanoseconds summed *exactly* to its
    /// recorded total (the recorder's telescoping invariant).
    pub telescoped: bool,
}

/// Whole-run results.
pub struct LoadgenReport {
    /// Phase breakdown: cold then warm.
    pub phases: Vec<PhaseStats>,
    /// Server-reported points/sec at the end of the run.
    pub server_points_per_sec: f64,
    /// Server-side enqueue-to-evaluation wait, (p50, p95) ms — from the
    /// obs histograms behind the `stats` endpoint.
    pub server_queue_wait_ms: (f64, f64),
    /// Server-side pure evaluation time, (p50, p95) ms.
    pub server_compute_ms: (f64, f64),
    /// Server-side queue cap and the depth observed at the end.
    pub queue_depth_ok: bool,
    /// Flight-recorder counters from the final stats response:
    /// `(completed, retained, sampled_out)`; `None` when disabled.
    pub flight: Option<(u64, u64, u64)>,
    /// Access-log counters from the final stats response:
    /// `(written, dropped)`; `None` when no log was configured.
    pub access_log: Option<(u64, u64)>,
    /// Post-warm `debug` probe; `None` against an external server
    /// (its recorder may be disabled, so nothing is asserted).
    pub debug: Option<DebugProbe>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Bit-exact comparison of a served candidate array with the library's.
fn check_parity(resp: &Json, expected: &[Candidate]) -> bool {
    let Some(got) = resp.get("candidates").and_then(Json::as_arr) else {
        return false;
    };
    if got.len() != expected.len() {
        return false;
    }
    got.iter().zip(expected).all(|(g, c)| {
        g.get("name").and_then(Json::as_str) == Some(c.name.as_str())
            && [
                ("latency_s", c.fom.latency_s),
                ("energy_j", c.fom.energy_j),
                ("area_mm2", c.fom.area_mm2),
                ("accuracy", c.fom.accuracy),
            ]
            .iter()
            .all(|(field, want)| {
                g.get(field).and_then(Json::as_f64).map(f64::to_bits) == Some(want.to_bits())
            })
    })
}

/// One blocking request/response exchange with retry-on-backpressure.
/// Returns `(raw response line, rejections_seen)`; `None` on transport
/// failure. The response is returned unparsed so the caller can take
/// the byte-compare parity fast path.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    id: &str,
    body: &str,
) -> Option<(String, u64)> {
    let mut rejections = 0;
    // One buffer, one write syscall, one TCP segment per request —
    // formatting straight into the unbuffered stream would issue a
    // write per format fragment and shatter the frame across segments.
    let mut frame = String::with_capacity(body.len() + id.len() + 16);
    let _ = writeln!(frame, "{{\"id\":\"{id}\",{body}}}");
    loop {
        stream.write_all(frame.as_bytes()).ok()?;
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let line = line.trim().to_string();
        // Responses put `ok` right after `id`; only failures need a
        // full parse (for the backpressure hint).
        if !line.contains("\"ok\":false") {
            return Some((line, rejections));
        }
        let v = Json::parse(&line).ok()?;
        match v.get("retry_after_ms").and_then(Json::as_f64) {
            Some(ms) => {
                rejections += 1;
                std::thread::sleep(Duration::from_millis(ms as u64));
            }
            // A non-backpressure failure is a parity failure: the mix
            // contains only valid requests.
            None => return Some((line, rejections)),
        }
    }
}

/// Fetches and parses the server's `stats` response.
fn fetch_stats(addr: &str) -> Option<Json> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let (line, _) = exchange(
        &mut stream,
        &mut reader,
        "loadgen-stats",
        r#""kind":"stats""#,
    )?;
    Json::parse(&line).ok()
}

/// Sends one `debug` request and validates the retained traces: at
/// least one must exist after a loadgen run, every trace must carry
/// the full stage tree, and the stage nanoseconds must telescope to
/// the recorded total *exactly* (the marks share one clock, so any
/// slop would be a recorder bug, not rounding).
fn debug_probe(addr: &str) -> Option<DebugProbe> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let (line, _) = exchange(
        &mut stream,
        &mut reader,
        "loadgen-debug",
        r#""kind":"debug""#,
    )?;
    let v = Json::parse(&line).ok()?;
    let traces = v.get("traces").and_then(Json::as_arr)?;
    let mut slowest_ms: f64 = 0.0;
    let mut telescoped = true;
    for t in traces {
        let total = t.get("total_ns").and_then(Json::as_f64).unwrap_or(-1.0);
        slowest_ms = slowest_ms.max(total / 1e6);
        let sum: f64 = t
            .get("stages")
            .and_then(Json::as_arr)
            .map(|stages| {
                stages
                    .iter()
                    .filter_map(|s| s.get("ns").and_then(Json::as_f64))
                    .sum()
            })
            .unwrap_or(-2.0);
        if sum != total {
            eprintln!(
                "loadgen: trace {:?} stage sum {sum} ns != total {total} ns",
                t.get("id").and_then(Json::as_str).unwrap_or("?")
            );
            telescoped = false;
        }
    }
    Some(DebugProbe {
        traces: traces.len() as u64,
        slowest_ms,
        telescoped,
    })
}

/// Sums hits/misses across all memo caches in a stats response.
fn cache_totals(stats: &Json) -> (f64, f64) {
    let mut hits = 0.0;
    let mut misses = 0.0;
    if let Some(caches) = stats.get("caches").and_then(Json::as_arr) {
        for c in caches {
            hits += c.get("hits").and_then(Json::as_f64).unwrap_or(0.0);
            misses += c.get("misses").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    (hits, misses)
}

/// Drives `connections` workers over the mix until the deadline.
fn run_phase(
    addr: &str,
    name: &'static str,
    duration: Duration,
    connections: usize,
    mix: &[MixEntry],
) -> PhaseStats {
    let before = fetch_stats(addr);
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let addr = addr.to_string();
            let mix: Vec<(&'static str, String, Vec<Candidate>)> = mix
                .iter()
                .map(|m| (m.name, m.request.clone(), m.expected.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut latencies: Vec<f64> = Vec::new();
                let mut rejected = 0u64;
                let mut parity_failures = 0u64;
                let Ok(mut stream) = TcpStream::connect(&addr) else {
                    return (latencies, rejected, 1);
                };
                let _ = stream.set_nodelay(true);
                let Ok(read_half) = stream.try_clone() else {
                    return (latencies, rejected, 1);
                };
                let mut reader = BufReader::new(read_half);
                // Per-entry response body after the `{"id":"..."` prefix,
                // captured from the first fully-verified response. The
                // server's JSON emission is deterministic, so later
                // responses must match byte-for-byte — parity becomes a
                // memcmp instead of a parse, keeping harness overhead out
                // of the measured latency.
                let mut verified_suffix: Vec<Option<String>> = mix.iter().map(|_| None).collect();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let entry_idx = i % mix.len();
                    let (entry, body, expected) = &mix[entry_idx];
                    let id = format!("w{w}-{i}");
                    let sent = Instant::now();
                    match exchange(&mut stream, &mut reader, &id, body) {
                        Some((line, rejections)) => {
                            // Stamp before the parity check: verification
                            // is harness work, not request latency.
                            let elapsed = sent.elapsed().as_secs_f64();
                            rejected += rejections;
                            let suffix = line.get(8 + id.len()..);
                            let parity_ok = match (&verified_suffix[entry_idx], suffix) {
                                (Some(seen), Some(sfx)) if seen == sfx => true,
                                _ => match Json::parse(&line) {
                                    Ok(v) if check_parity(&v, expected) => {
                                        if line.starts_with(&format!("{{\"id\":\"{id}\"")) {
                                            verified_suffix[entry_idx] = suffix.map(str::to_string);
                                        }
                                        true
                                    }
                                    _ => false,
                                },
                            };
                            if parity_ok {
                                latencies.push(elapsed);
                            } else {
                                eprintln!("loadgen: parity mismatch on {entry} ({id}): {line}");
                                parity_failures += 1;
                            }
                        }
                        None => break,
                    }
                    i += 1;
                }
                (latencies, rejected, parity_failures)
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies = Vec::new();
    let mut rejected = 0;
    let mut parity_failures = 0;
    for h in workers {
        let (l, r, p) = h.join().expect("worker thread");
        latencies.extend(l);
        rejected += r;
        parity_failures += p;
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_by(f64::total_cmp);
    let after = fetch_stats(addr);
    let cache_hit_rate = match (&before, &after) {
        (Some(b), Some(a)) => {
            let (hb, mb) = cache_totals(b);
            let (ha, ma) = cache_totals(a);
            let total = (ha - hb) + (ma - mb);
            if total > 0.0 {
                (ha - hb) / total
            } else {
                0.0
            }
        }
        _ => 0.0,
    };
    PhaseStats {
        name,
        completed: latencies.len() as u64,
        rejected,
        parity_failures,
        throughput_rps: latencies.len() as f64 / elapsed,
        p50_ms: percentile(&latencies, 50.0) * 1e3,
        p95_ms: percentile(&latencies, 95.0) * 1e3,
        cache_hit_rate,
    }
}

/// Runs the full loadgen: cold phase, warm phase, final server stats.
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    let (addr, server_thread) = match &config.serve_addr {
        Some(addr) => (addr.clone(), None),
        None => {
            // In-process server on an ephemeral port, so this process
            // owns the memo caches the cold phase needs to clear.
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            let addr = listener.local_addr().expect("local addr").to_string();
            let log = config
                .access_log
                .as_ref()
                .map(|p| AccessLog::to_path(p).expect("open access log"));
            let server = Server::with_parts(ServerConfig::default(), None, log);
            let handle = std::thread::spawn(move || {
                server.run_tcp(listener).expect("server transport");
            });
            (addr, Some(handle))
        }
    };
    let mix = request_mix();
    let phase_dur = config.duration / 2;

    if config.serve_addr.is_none() {
        memo::clear_all();
    }
    let cold = run_phase(&addr, "cold", phase_dur, config.connections, &mix);
    let warm = run_phase(&addr, "warm", phase_dur, config.connections, &mix);

    let final_stats = fetch_stats(&addr);
    let server_points_per_sec = final_stats
        .as_ref()
        .and_then(|s| s.get("points_per_sec").and_then(Json::as_f64))
        .unwrap_or(0.0);
    let stat_ms = |field: &str| {
        final_stats
            .as_ref()
            .and_then(|s| s.get(field).and_then(Json::as_f64))
            .unwrap_or(0.0)
    };
    let server_queue_wait_ms = (stat_ms("queue_wait_p50_ms"), stat_ms("queue_wait_p95_ms"));
    let server_compute_ms = (stat_ms("compute_p50_ms"), stat_ms("compute_p95_ms"));
    let queue_depth_ok = final_stats
        .as_ref()
        .map(|s| {
            let depth = s.get("queue_depth").and_then(Json::as_f64).unwrap_or(0.0);
            let cap = s
                .get("queue_cap")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY);
            depth <= cap
        })
        .unwrap_or(false);
    let enabled_block = |field: &str| {
        final_stats
            .as_ref()
            .and_then(|s| s.get(field))
            .filter(|b| b.get("enabled").and_then(Json::as_bool) == Some(true))
            .cloned()
    };
    let flight = enabled_block("flight").map(|b| {
        let n = |f: &str| b.get(f).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        (n("completed"), n("retained"), n("sampled_out"))
    });
    let access_log = enabled_block("access_log").map(|b| {
        let n = |f: &str| b.get(f).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        (n("written"), n("dropped"))
    });
    // Against the in-process server the recorder is known-enabled, so
    // the flight recorder itself is under test: a loadgen run must
    // leave at least the slowest request fully traced.
    let debug = if config.serve_addr.is_none() {
        Some(debug_probe(&addr).unwrap_or(DebugProbe {
            traces: 0,
            slowest_ms: 0.0,
            telescoped: false,
        }))
    } else {
        None
    };

    // Drain the in-process server so the report reflects a clean stop.
    if server_thread.is_some() {
        if let Ok(mut stream) = TcpStream::connect(&addr) {
            if let Ok(read_half) = stream.try_clone() {
                let mut reader = BufReader::new(read_half);
                let _ = exchange(
                    &mut stream,
                    &mut reader,
                    "loadgen-bye",
                    r#""kind":"shutdown""#,
                );
            }
        }
    }
    if let Some(h) = server_thread {
        let _ = h.join();
    }

    LoadgenReport {
        phases: vec![cold, warm],
        server_points_per_sec,
        server_queue_wait_ms,
        server_compute_ms,
        queue_depth_ok,
        flight,
        access_log,
        debug,
    }
}

/// Human-readable summary.
pub fn print(report: &LoadgenReport) {
    println!("serve loadgen — mixed hdc/mann/triage/edge stream");
    crate::rule(72);
    println!(
        "{:>6} {:>10} {:>9} {:>8} {:>9} {:>9} {:>10}",
        "phase", "req/s", "p50 ms", "p95 ms", "rejected", "parity", "cache hit"
    );
    for p in &report.phases {
        println!(
            "{:>6} {:>10.1} {:>9.3} {:>8.3} {:>9} {:>9} {:>9.1}%",
            p.name,
            p.throughput_rps,
            p.p50_ms,
            p.p95_ms,
            p.rejected,
            if p.parity_failures == 0 { "OK" } else { "FAIL" },
            p.cache_hit_rate * 100.0,
        );
    }
    println!(
        "server: {:.0} points/sec; queue bound {}",
        report.server_points_per_sec,
        if report.queue_depth_ok {
            "respected"
        } else {
            "VIOLATED"
        }
    );
    // Where a request's life goes server-side: waiting for a batch slot
    // vs actually evaluating.
    println!(
        "server time split (ms): queue-wait p50 {:.3} / p95 {:.3}, compute p50 {:.3} / p95 {:.3}",
        report.server_queue_wait_ms.0,
        report.server_queue_wait_ms.1,
        report.server_compute_ms.0,
        report.server_compute_ms.1,
    );
    if let Some((completed, retained, sampled_out)) = report.flight {
        println!(
            "flight recorder: {completed} traced, {retained} retained, {sampled_out} sampled out"
        );
    }
    if let Some((written, dropped)) = report.access_log {
        println!("access log: {written} lines written, {dropped} dropped");
    }
    if let Some(d) = &report.debug {
        println!(
            "debug probe: {} traces, slowest {:.3} ms, stage telescoping {}",
            d.traces,
            d.slowest_ms,
            if d.telescoped { "exact" } else { "BROKEN" }
        );
    }
}

/// `BENCH_serve.json` — the committed serving trajectory point.
pub fn to_json(report: &LoadgenReport, smoke: bool, config: &LoadgenConfig) -> String {
    let phases: Vec<Json> = report
        .phases
        .iter()
        .map(|p| {
            obj(vec![
                ("name", Json::Str(p.name.to_string())),
                ("completed", Json::Num(p.completed as f64)),
                ("rejected", Json::Num(p.rejected as f64)),
                ("parity_failures", Json::Num(p.parity_failures as f64)),
                ("throughput_rps", Json::Num(p.throughput_rps)),
                ("p50_ms", Json::Num(p.p50_ms)),
                ("p95_ms", Json::Num(p.p95_ms)),
                ("cache_hit_rate", Json::Num(p.cache_hit_rate)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("schema", Json::Str("xlda-bench-serve/v1".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("duration_s", Json::Num(config.duration.as_secs_f64())),
        ("connections", Json::Num(config.connections as f64)),
        ("phases", Json::Arr(phases)),
        (
            "server_points_per_sec",
            Json::Num(report.server_points_per_sec),
        ),
        (
            "server_queue_wait_p50_ms",
            Json::Num(report.server_queue_wait_ms.0),
        ),
        (
            "server_queue_wait_p95_ms",
            Json::Num(report.server_queue_wait_ms.1),
        ),
        (
            "server_compute_p50_ms",
            Json::Num(report.server_compute_ms.0),
        ),
        (
            "server_compute_p95_ms",
            Json::Num(report.server_compute_ms.1),
        ),
        ("queue_depth_ok", Json::Bool(report.queue_depth_ok)),
        (
            "flight",
            match report.flight {
                Some((completed, retained, sampled_out)) => obj(vec![
                    ("enabled", Json::Bool(true)),
                    ("completed", Json::Num(completed as f64)),
                    ("retained", Json::Num(retained as f64)),
                    ("sampled_out", Json::Num(sampled_out as f64)),
                ]),
                None => obj(vec![("enabled", Json::Bool(false))]),
            },
        ),
        (
            "access_log",
            match report.access_log {
                Some((written, dropped)) => obj(vec![
                    ("enabled", Json::Bool(true)),
                    ("written", Json::Num(written as f64)),
                    ("dropped", Json::Num(dropped as f64)),
                ]),
                None => obj(vec![("enabled", Json::Bool(false))]),
            },
        ),
        (
            "debug_probe",
            match &report.debug {
                Some(d) => obj(vec![
                    ("traces", Json::Num(d.traces as f64)),
                    ("slowest_ms", Json::Num(d.slowest_ms)),
                    ("telescoped", Json::Bool(d.telescoped)),
                ]),
                None => Json::Null,
            },
        ),
    ]);
    let mut s = doc.to_string();
    s.push('\n');
    s
}

/// Gate against the committed baseline's `serve` section
/// (`ci/bench_baseline.json`): warm-phase throughput floor, warm-phase
/// client p50 ceiling, and distinct queue-wait quantiles (the ISSUE 6
/// regression: a fixed batch window collapses every request onto the
/// same wait, and the old histogram quantiles hid it by reporting
/// p50 == p95).
pub fn check_against_baseline(report: &LoadgenReport, baseline_text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(baseline) = Json::parse(baseline_text.trim()) else {
        return vec!["baseline file is not valid JSON".to_string()];
    };
    let Some(serve) = baseline.get("serve") else {
        return vec!["baseline has no `serve` section".to_string()];
    };
    let Some(warm) = report.phases.iter().find(|p| p.name == "warm") else {
        return vec!["report has no warm phase".to_string()];
    };
    if let Some(floor) = serve.get("warm_throughput_rps_min").and_then(Json::as_f64) {
        if warm.throughput_rps < floor {
            out.push(format!(
                "serve [warm phase]: throughput {:.0} req/s below baseline floor {floor:.0}",
                warm.throughput_rps
            ));
        }
    }
    if let Some(ceiling) = serve.get("warm_p50_ms_max").and_then(Json::as_f64) {
        if warm.p50_ms > ceiling {
            out.push(format!(
                "serve [warm phase]: client p50 {:.3} ms above baseline ceiling {ceiling:.3} ms",
                warm.p50_ms
            ));
        }
    }
    if serve
        .get("queue_wait_quantiles_distinct")
        .and_then(Json::as_bool)
        == Some(true)
        && report.server_queue_wait_ms.0 == report.server_queue_wait_ms.1
    {
        out.push(format!(
            "serve [server queue]: queue-wait p50 == p95 == {} ms: quantile collapse regressed",
            report.server_queue_wait_ms.0
        ));
    }
    out
}

/// Gate used by the binary: parity and backpressure must hold.
pub fn failures(report: &LoadgenReport) -> Vec<String> {
    let mut out = Vec::new();
    for p in &report.phases {
        if p.parity_failures > 0 {
            out.push(format!(
                "{} phase: {} responses diverged from direct library evaluation",
                p.name, p.parity_failures
            ));
        }
        if p.completed == 0 {
            out.push(format!("{} phase: no requests completed", p.name));
        }
    }
    if !report.queue_depth_ok {
        out.push("server queue depth exceeded its cap".to_string());
    }
    if let Some(d) = &report.debug {
        if d.traces == 0 {
            out.push(
                "debug probe: no traces retained after a loadgen run (the slowest \
                 request must always be pinned)"
                    .to_string(),
            );
        }
        if !d.telescoped {
            out.push("debug probe: stage nanoseconds do not telescope to total_ns".to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parity_holds_against_itself() {
        for entry in request_mix() {
            assert!(
                !entry.expected.is_empty(),
                "{} has ground truth",
                entry.name
            );
        }
    }

    #[test]
    fn quick_loadgen_round_trip() {
        let _guard = crate::MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A very short in-process run: parity must hold and the warm
        // phase must see cache hits.
        let config = LoadgenConfig {
            duration: Duration::from_millis(600),
            connections: 2,
            serve_addr: None,
            access_log: None,
        };
        let report = run(&config);
        assert!(failures(&report).is_empty(), "{:?}", failures(&report));
        let probe = report.debug.as_ref().expect("in-process debug probe runs");
        assert!(probe.traces >= 1 && probe.telescoped);
        assert!(
            report.server_compute_ms.1 > 0.0,
            "server must report a compute-time split"
        );
        let warm = &report.phases[1];
        assert!(
            warm.cache_hit_rate > 0.0,
            "warm phase hit rate {}",
            warm.cache_hit_rate
        );
        let json = to_json(&report, true, &config);
        let v = Json::parse(json.trim()).expect("report is valid JSON");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("xlda-bench-serve/v1")
        );
    }
}
