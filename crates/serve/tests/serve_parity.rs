//! End-to-end parity: the service must return *bit-identical* FOMs to
//! direct `Scenario::candidates` library calls — cold caches, warm
//! caches, interleaved kinds, and a saturated queue included.
//!
//! Runs the real binary in `--stdio` mode (one process per test, piped
//! line protocol), which exercises the same queue → pool → drain
//! pipeline as the TCP transport.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{HdcScenario, MannScenario, Scenario};
use xlda_core::triage::{rank, Objective};
use xlda_serve::json::Json;

/// A running `xlda-serve --stdio` child with a response-reader thread.
struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    responses: mpsc::Receiver<Json>,
}

impl ServerProc {
    fn spawn(extra_args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xlda-serve"))
            .arg("--stdio")
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn xlda-serve");
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = child.stdout.take().expect("child stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let v = Json::parse(&line).expect("server emitted well-formed JSON");
                if tx.send(v).is_err() {
                    break;
                }
            }
        });
        Self {
            child,
            stdin,
            responses: rx,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
    }

    fn recv(&self) -> Json {
        self.responses
            .recv_timeout(Duration::from_secs(60))
            .expect("response before timeout")
    }

    /// Receives `n` responses, keyed by id; every id must be distinct.
    fn recv_n(&self, n: usize) -> HashMap<String, Json> {
        let mut out = HashMap::new();
        for _ in 0..n {
            let v = self.recv();
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .expect("response has id")
                .to_string();
            assert!(out.insert(id.clone(), v).is_none(), "duplicate id {id}");
        }
        out
    }

    fn shutdown(mut self) {
        let _ = writeln!(self.stdin, r#"{{"id":"__bye","kind":"shutdown"}}"#);
        let _ = self.stdin.flush();
        let status = self.child.wait().expect("child exit");
        assert!(status.success(), "server exited with {status}");
    }
}

/// Asserts a response's candidate array is bit-identical to the
/// library evaluation of `scenario`.
fn assert_parity(resp: &Json, scenario: &dyn Scenario) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "failed response: {resp}"
    );
    let want = scenario.candidates().expect("library evaluation succeeds");
    let got = resp
        .get("candidates")
        .and_then(Json::as_arr)
        .expect("candidates array");
    assert_eq!(got.len(), want.len(), "candidate count");
    for (g, c) in got.iter().zip(&want) {
        assert_eq!(g.get("name").and_then(Json::as_str), Some(c.name.as_str()));
        for (field, expect) in [
            ("latency_s", c.fom.latency_s),
            ("energy_j", c.fom.energy_j),
            ("area_mm2", c.fom.area_mm2),
            ("accuracy", c.fom.accuracy),
        ] {
            let val = g
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{}: missing {field}", c.name));
            assert_eq!(
                val.to_bits(),
                expect.to_bits(),
                "{}.{field}: served {val:e} != library {expect:e}",
                c.name
            );
        }
    }
}

#[test]
fn interleaved_kinds_match_library_bit_exactly_cold_and_warm() {
    let mut server = ServerProc::spawn(&[]);

    // A mixed stream: default + perturbed scenarios of every kind,
    // submitted twice (pass 0 = cold caches, pass 1 = warm caches).
    let hdc_alt = HdcScenario {
        classes: 12,
        acc_sw: 0.93,
        tech: TechNode::n22(),
        ..HdcScenario::default()
    };
    let mann_alt = MannScenario {
        hash_bits: 96,
        entries: 500,
        ..MannScenario::default()
    };
    for pass in 0..2 {
        server.send(&format!(r#"{{"id":"hdc-{pass}","kind":"hdc"}}"#));
        server.send(&format!(
            r#"{{"id":"hdcx-{pass}","kind":"hdc","scenario":{{"classes":12,"acc_sw":0.93,"tech":"n22"}}}}"#
        ));
        server.send(&format!(r#"{{"id":"mann-{pass}","kind":"mann"}}"#));
        server.send(&format!(
            r#"{{"id":"mannx-{pass}","kind":"mann","scenario":{{"hash_bits":96,"entries":500}}}}"#
        ));
        server.send(&format!(r#"{{"id":"edge-{pass}","kind":"edge"}}"#));
        server.send(&format!(
            r#"{{"id":"tpu-{pass}","kind":"tpu_nvm","batch":100}}"#
        ));
        server.send(&format!(
            r#"{{"id":"tri-{pass}","kind":"triage","objective":"latency_first","floor":0.9}}"#
        ));
        let by_id = server.recv_n(7);
        assert_parity(&by_id[&format!("hdc-{pass}")], &HdcScenario::default());
        assert_parity(&by_id[&format!("hdcx-{pass}")], &hdc_alt);
        assert_parity(&by_id[&format!("mann-{pass}")], &MannScenario::default());
        assert_parity(&by_id[&format!("mannx-{pass}")], &mann_alt);
        assert_parity(
            &by_id[&format!("edge-{pass}")],
            &xlda_core::evaluate::EdgeScenario::default(),
        );
        assert_parity(
            &by_id[&format!("tpu-{pass}")],
            &xlda_core::evaluate::TpuNvmScenario::new(HdcScenario::default(), 100),
        );

        // Triage parity: candidates AND the served ranking must match
        // the library's rank() on those candidates.
        let tri = &by_id[&format!("tri-{pass}")];
        assert_parity(tri, &HdcScenario::default());
        let want = rank(
            &HdcScenario::default().candidates().unwrap(),
            &Objective::latency_first(Some(0.9)),
        );
        let got = tri.get("ranking").and_then(Json::as_arr).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, r) in got.iter().zip(&want) {
            assert_eq!(g.get("name").and_then(Json::as_str), Some(r.name.as_str()));
            assert_eq!(
                g.get("score").and_then(Json::as_f64).unwrap().to_bits(),
                r.score.to_bits()
            );
            assert_eq!(
                g.get("meets_floor").and_then(Json::as_bool),
                Some(r.meets_floor)
            );
        }
    }

    // After the warm pass the process-wide caches must show hits.
    server.send(r#"{"id":"st","kind":"stats"}"#);
    let stats = server.recv();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let caches = stats.get("caches").and_then(Json::as_arr).unwrap();
    let hits: f64 = caches
        .iter()
        .filter_map(|c| c.get("hits").and_then(Json::as_f64))
        .sum();
    assert!(hits > 0.0, "warm pass produced no cache hits: {stats}");
    assert_eq!(stats.get("completed").and_then(Json::as_f64), Some(14.0));

    server.shutdown();
}

#[test]
fn saturated_queue_rejections_are_well_formed_and_retryable() {
    // Tiny queue + one worker busy with a slow Monte-Carlo job: most of
    // a rapid burst must be rejected with retry-after, and retries must
    // eventually succeed, so no request is ever silently dropped.
    let mut server = ServerProc::spawn(&["--queue-cap", "2", "--threads", "1"]);
    server.send(r#"{"id":"slow","kind":"mann_mc","scenario":{"trials":4096}}"#);
    let mut slow_answered = false;
    let total = 12;
    let mut pending: Vec<String> = (0..total).map(|i| format!("b{i}")).collect();
    let mut done: HashMap<String, Json> = HashMap::new();
    let mut rejections = 0u32;
    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        assert!(
            rounds < 100,
            "requests not converging; {} left",
            pending.len()
        );
        for id in &pending {
            server.send(&format!(r#"{{"id":"{id}","kind":"hdc"}}"#));
        }
        let mut retry = Vec::new();
        let mut answered = 0;
        while answered < pending.len() {
            let v = server.recv();
            let id = v.get("id").and_then(Json::as_str).unwrap().to_string();
            if id == "slow" {
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
                slow_answered = true;
                continue;
            }
            answered += 1;
            match v.get("ok").and_then(Json::as_bool) {
                Some(true) => {
                    done.insert(id, v);
                }
                Some(false) => {
                    assert_eq!(
                        v.get("code").and_then(Json::as_str),
                        Some("queue_full"),
                        "unexpected failure: {v}"
                    );
                    let retry_ms = v
                        .get("retry_after_ms")
                        .and_then(Json::as_f64)
                        .expect("backpressure carries retry_after_ms");
                    // The hint is derived from the observed drain rate,
                    // clamped to [1 ms, 10 s]; pin the contract so a
                    // config change can't silently widen it.
                    assert!(
                        (1.0..=10_000.0).contains(&retry_ms),
                        "retry_after_ms {retry_ms} outside pinned [1, 10000] range"
                    );
                    assert_eq!(retry_ms.fract(), 0.0, "hint is whole milliseconds");
                    rejections += 1;
                    retry.push(id);
                }
                None => panic!("response without ok: {v}"),
            }
        }
        pending = retry;
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(120));
        }
    }
    assert_eq!(done.len(), total, "every request eventually served");
    assert!(slow_answered, "the slow job was served ahead of its queue");
    assert!(rejections > 0, "cap-2 queue never rejected a 12-burst");
    for v in done.values() {
        assert_parity(v, &HdcScenario::default());
    }

    // The queue must never have grown past its cap.
    server.send(r#"{"id":"st","kind":"stats"}"#);
    let stats = server.recv();
    let depth = stats.get("queue_depth").and_then(Json::as_f64).unwrap();
    let cap = stats.get("queue_cap").and_then(Json::as_f64).unwrap();
    assert!(depth <= cap, "queue depth {depth} exceeds cap {cap}");
    assert_eq!(
        stats.get("rejected").and_then(Json::as_f64),
        Some(rejections as f64)
    );

    server.shutdown();
}

#[test]
fn concurrent_writers_interleave_without_corruption() {
    // Two threads share one server via its stdin; every line must stay
    // intact and every request must be answered exactly once.
    let mut server = ServerProc::spawn(&[]);
    let per_thread = 8;
    // Collect all request lines first, then blast them from one thread
    // while another thread drains responses concurrently.
    for i in 0..per_thread {
        server.send(&format!(r#"{{"id":"a{i}","kind":"hdc"}}"#));
        server.send(&format!(r#"{{"id":"m{i}","kind":"mann"}}"#));
        server.send(&format!(
            r#"{{"id":"t{i}","kind":"triage","objective":"energy_first"}}"#
        ));
    }
    let by_id = server.recv_n(3 * per_thread);
    for i in 0..per_thread {
        assert_parity(&by_id[&format!("a{i}")], &HdcScenario::default());
        assert_parity(&by_id[&format!("m{i}")], &MannScenario::default());
        assert_parity(&by_id[&format!("t{i}")], &HdcScenario::default());
    }
    server.shutdown();
}

#[test]
fn expired_deadline_and_bad_request_reported_not_dropped() {
    let mut server = ServerProc::spawn(&[]);
    server.send(r#"{"id":"dead","kind":"mann","deadline_ms":0}"#);
    server.send(r#"{"id":"","kind":"hdc"}"#);
    server.send(r#"{"id":"live","kind":"mann"}"#);
    let mut seen = HashMap::new();
    for _ in 0..3 {
        let v = server.recv();
        let id = v.get("id").and_then(Json::as_str).unwrap().to_string();
        seen.insert(id, v);
    }
    assert_eq!(
        seen["dead"].get("code").and_then(Json::as_str),
        Some("deadline")
    );
    assert_eq!(
        seen[""].get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    assert_parity(&seen["live"], &MannScenario::default());
    server.shutdown();
}
