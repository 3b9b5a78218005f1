//! `--flight-overhead`: the flight-recorder cost gate.
//!
//! The ISSUE 10 recorder promises "~two atomic stores per stage" of
//! added work; this harness holds it to that. It drives the loadgen
//! request mix through two in-process servers — one with the recorder
//! and access log off, one with both on (the log writing to
//! `io::sink`) — in **interleaved pairs**, so slow drift of the
//! machine (thermal state, page cache, competing jobs) lands on both
//! sides of every pair instead of biasing one mode.
//!
//! Two things are gated:
//!
//! - **checksum parity** — the FNV-64 of the *sorted* response lines
//!   must be bit-identical between modes in every pair (responses are
//!   deterministic and the ids are fixed, so sorting removes the only
//!   legitimate difference: completion order);
//! - **best-batch overhead** — `min(on) / min(off) - 1` across all
//!   pairs, which must stay under [`FLIGHT_OVERHEAD_LIMIT`].
//!   Minima, not medians: scheduler noise on a small (possibly
//!   single-core) CI box is strictly additive — a batch can only be
//!   descheduled, never sped up — so the fastest batch of each mode is
//!   the cleanest estimate of its true cost, while a median of short
//!   batches still swings by ±20%. The per-pair medians are reported
//!   for context but not gated.
//!
//! Setting `XLDA_NO_LOG` drops the access log from the "on" side — a
//! diagnostic knob for attributing an overhead regression to the
//! recorder vs the log line path.

use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use xlda_core::sweep::memo;
use xlda_serve::{AccessLog, Server, ServerConfig, SharedWriter};

/// Maximum tolerated best-batch wall overhead of recorder + access log.
pub const FLIGHT_OVERHEAD_LIMIT: f64 = 0.05;

/// One interleaved pair's wall times and response checksums.
pub struct PairSample {
    /// Recorder-off batch wall time.
    pub off: Duration,
    /// Recorder-on batch wall time.
    pub on: Duration,
    /// FNV-64 over the sorted recorder-off response lines.
    pub checksum_off: u64,
    /// Same for the recorder-on batch.
    pub checksum_on: u64,
}

/// Whole-run results of the overhead harness.
pub struct FlightOverheadReport {
    /// Interleaved samples, in execution order.
    pub pairs: Vec<PairSample>,
    /// Requests per batch.
    pub batch_requests: usize,
    /// Responses that were backpressure rejections (must be zero: the
    /// queue is sized to the batch, and a rejection would poison the
    /// checksum comparison).
    pub rejections: u64,
}

impl FlightOverheadReport {
    /// Median of the per-pair `(on - off) / off` overhead fractions
    /// (reported for context; the gate uses [`Self::min_overhead`]).
    pub fn median_overhead(&self) -> f64 {
        let mut fracs: Vec<f64> = self
            .pairs
            .iter()
            .map(|p| (p.on.as_secs_f64() - p.off.as_secs_f64()) / p.off.as_secs_f64().max(1e-12))
            .collect();
        fracs.sort_by(f64::total_cmp);
        if fracs.is_empty() {
            0.0
        } else {
            fracs[fracs.len() / 2]
        }
    }

    /// The gated estimator: fastest-on over fastest-off, minus one.
    /// Robust to additive scheduler noise (see the module docs).
    pub fn min_overhead(&self) -> f64 {
        let min = |f: fn(&PairSample) -> Duration| {
            self.pairs
                .iter()
                .map(f)
                .min()
                .unwrap_or(Duration::ZERO)
                .as_secs_f64()
        };
        let (off, on) = (min(|p| p.off), min(|p| p.on));
        (on - off) / off.max(1e-12)
    }

    /// Whether every pair's off/on checksums were bit-identical.
    pub fn checksums_match(&self) -> bool {
        self.pairs.iter().all(|p| p.checksum_off == p.checksum_on)
    }
}

/// FNV-1a 64 over a byte stream.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A writer that forwards complete response lines to a channel.
struct LineChannel {
    tx: mpsc::Sender<String>,
    buf: Vec<u8>,
}

impl io::Write for LineChannel {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            let _ = self.tx.send(text);
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn line_writer() -> (SharedWriter, mpsc::Receiver<String>) {
    let (tx, rx) = mpsc::channel();
    (
        SharedWriter::new(Box::new(LineChannel {
            tx,
            buf: Vec::new(),
        })),
        rx,
    )
}

/// Sends every line, waits for every response, returns wall time,
/// checksum of the sorted responses, and rejections seen.
fn run_batch(
    server: &Server,
    writer: &SharedWriter,
    rx: &mpsc::Receiver<String>,
    lines: &[String],
) -> (Duration, u64, u64) {
    let start = Instant::now();
    for l in lines {
        server.handle_line(l, writer);
    }
    let mut responses = Vec::with_capacity(lines.len());
    for _ in 0..lines.len() {
        responses.push(
            rx.recv_timeout(Duration::from_secs(120))
                .expect("response within deadline"),
        );
    }
    let elapsed = start.elapsed();
    let rejections = responses
        .iter()
        .filter(|l| l.contains("\"code\":\"queue_full\""))
        .count() as u64;
    responses.sort();
    (elapsed, fnv64(responses.join("\n").as_bytes()), rejections)
}

/// Runs the interleaved off/on comparison. `smoke` shrinks batch count
/// and size for CI.
pub fn run(smoke: bool) -> FlightOverheadReport {
    let (reps, pair_count) = if smoke { (40, 15) } else { (60, 21) };
    let bodies = crate::loadgen::mix_bodies();
    // Fixed ids: identical request (and therefore response) text in
    // both modes, so sorted-line checksums are comparable.
    let lines: Vec<String> = (0..reps)
        .flat_map(|rep| {
            bodies
                .iter()
                .enumerate()
                .map(move |(k, body)| format!("{{\"id\":\"f{rep}-{k}\",{body}}}"))
                .collect::<Vec<_>>()
        })
        .collect();
    let config = |flight: bool| ServerConfig {
        // Admit the whole batch: a backpressure rejection would make
        // the two modes answer different text.
        queue_cap: lines.len() + 8,
        flight,
        ..ServerConfig::default()
    };
    let server_off = Server::new(config(false));
    // The "on" side carries the full observability tax: recorder plus
    // a live access log (sink-backed, so the cost measured is the line
    // formatting and channel, not the disk).
    let log = (std::env::var("XLDA_NO_LOG").is_err())
        .then(|| AccessLog::with_writer(Box::new(io::sink()), 8192));
    let server_on = Server::with_parts(config(true), None, log);
    let (w_off, rx_off) = line_writer();
    let (w_on, rx_on) = line_writer();

    // Warm the memo caches and both servers' pools before timing, so
    // pairs measure steady-state serving, not first-touch evaluation.
    memo::clear_all();
    let _ = run_batch(&server_off, &w_off, &rx_off, &lines);
    let _ = run_batch(&server_on, &w_on, &rx_on, &lines);

    let mut pairs = Vec::with_capacity(pair_count);
    let mut rejections = 0;
    for i in 0..pair_count {
        // Alternate which mode runs first so slow drift (cgroup quota
        // refills, thermal ramps) cannot systematically favor one side.
        let (off, on, checksum_off, checksum_on) = if i % 2 == 0 {
            let (off, ck_off, rej_off) = run_batch(&server_off, &w_off, &rx_off, &lines);
            let (on, ck_on, rej_on) = run_batch(&server_on, &w_on, &rx_on, &lines);
            rejections += rej_off + rej_on;
            (off, on, ck_off, ck_on)
        } else {
            let (on, ck_on, rej_on) = run_batch(&server_on, &w_on, &rx_on, &lines);
            let (off, ck_off, rej_off) = run_batch(&server_off, &w_off, &rx_off, &lines);
            rejections += rej_off + rej_on;
            (off, on, ck_off, ck_on)
        };
        pairs.push(PairSample {
            off,
            on,
            checksum_off,
            checksum_on,
        });
    }
    FlightOverheadReport {
        pairs,
        batch_requests: lines.len(),
        rejections,
    }
}

/// Human-readable summary.
pub fn print(report: &FlightOverheadReport) {
    println!(
        "flight-recorder overhead — {} requests/batch, {} interleaved pairs",
        report.batch_requests,
        report.pairs.len()
    );
    crate::rule(64);
    println!(
        "{:>5} {:>12} {:>12} {:>10} {:>9}",
        "pair", "off ms", "on ms", "overhead", "checksum"
    );
    for (i, p) in report.pairs.iter().enumerate() {
        let frac = (p.on.as_secs_f64() - p.off.as_secs_f64()) / p.off.as_secs_f64().max(1e-12);
        println!(
            "{:>5} {:>12.3} {:>12.3} {:>9.2}% {:>9}",
            i,
            p.off.as_secs_f64() * 1e3,
            p.on.as_secs_f64() * 1e3,
            frac * 100.0,
            if p.checksum_off == p.checksum_on {
                "match"
            } else {
                "DIFFER"
            }
        );
    }
    println!(
        "best-batch overhead {:.2}% (limit {:.0}%, median {:.2}%), responses {}",
        report.min_overhead() * 100.0,
        FLIGHT_OVERHEAD_LIMIT * 100.0,
        report.median_overhead() * 100.0,
        if report.checksums_match() {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
}

/// Gate used by the binary.
pub fn failures(report: &FlightOverheadReport) -> Vec<String> {
    let mut out = Vec::new();
    if report.rejections > 0 {
        out.push(format!(
            "{} backpressure rejections poisoned the comparison (queue sized too small?)",
            report.rejections
        ));
    }
    if !report.checksums_match() {
        out.push("recorder-on responses are not bit-identical to recorder-off".to_string());
    }
    let frac = report.min_overhead();
    if frac > FLIGHT_OVERHEAD_LIMIT {
        out.push(format!(
            "flight recorder best-batch overhead {:.2}% exceeds {:.0}%",
            frac * 100.0,
            FLIGHT_OVERHEAD_LIMIT * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_pairs_agree_bit_for_bit() {
        let _guard = crate::MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A tiny run: the checksum-parity half of the gate must hold
        // under test (the overhead half needs a quiet machine, so the
        // threshold itself is only enforced in the CI job).
        let report = run(true);
        assert_eq!(report.rejections, 0);
        assert!(report.checksums_match(), "responses diverged");
        assert_eq!(report.pairs.len(), 15);
        assert!(report.batch_requests > 0);
    }
}
