//! Wide-event NDJSON access log: one line per request, flushed to the
//! sink in batches by a dedicated writer thread.
//!
//! The event loop must never block on — or context-switch for — log
//! I/O. [`AccessLog::log`] appends the line to a mutex-guarded pending
//! buffer and returns: no syscall, no writer wakeup. (An earlier
//! channel-per-line design woke the writer thread for every request;
//! on a single-core box those switches alone blew the 5%
//! `--flight-overhead` budget.) The writer thread wakes on a ~100 ms
//! timer, swaps the whole buffer out under the lock, and writes it as
//! one batch with the lock released. When the buffer is at capacity the
//! line is dropped and counted instead of queued. The written/dropped
//! counters are surfaced in the serve `stats` response, and the writer
//! appends a final `{"type":"access_log_meta",...}` line on shutdown so
//! a truncated log is distinguishable from a complete one.
//!
//! Shutdown is bounded even against a wedged sink (a full disk, a hung
//! pipe): dropping the log signals the writer and waits a short grace
//! period; if the writer is stuck inside a blocking `write`, it is
//! abandoned rather than joined (the integration test in
//! `tests/access_log.rs` pins this).

use std::fmt::Write as FmtWrite;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};
use xlda_obs::flight::{CompletedTrace, STAGES};

/// Default bound on lines pending in the buffer between flushes.
pub const DEFAULT_QUEUE_CAP: usize = 8192;

/// How often the writer thread flushes the pending buffer.
const FLUSH_INTERVAL: Duration = Duration::from_millis(100);

/// Maximum time `Drop` waits for the writer thread to drain and exit.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// Lines accumulated since the last flush.
struct Pending {
    buf: String,
    lines: u64,
}

struct Inner {
    pending: Mutex<Pending>,
    /// Signalled on shutdown so the final drain does not wait out a
    /// full flush interval.
    wake: Condvar,
    cap: u64,
    shutdown: AtomicBool,
    written: AtomicU64,
    dropped: AtomicU64,
    finished: AtomicBool,
}

/// A bounded, non-blocking NDJSON access-log sink.
pub struct AccessLog {
    inner: Arc<Inner>,
}

impl AccessLog {
    /// Opens (creating or appending) the log file at `path`.
    pub fn to_path(path: &str) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::with_writer(Box::new(file), DEFAULT_QUEUE_CAP))
    }

    /// Builds a log over an arbitrary sink with a custom pending-line
    /// bound. Batches reach the sink every 100 ms and at
    /// shutdown.
    pub fn with_writer(mut sink: Box<dyn Write + Send>, queue_cap: usize) -> Self {
        let inner = Arc::new(Inner {
            pending: Mutex::new(Pending {
                buf: String::new(),
                lines: 0,
            }),
            wake: Condvar::new(),
            cap: queue_cap.max(1) as u64,
            shutdown: AtomicBool::new(false),
            written: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        });
        let i = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("xlda-access-log".into())
            .spawn(move || {
                loop {
                    let stop = i.shutdown.load(Ordering::Acquire);
                    let (batch, lines) = {
                        let mut p = i.pending.lock().unwrap();
                        if p.lines == 0 && !stop {
                            p = i.wake.wait_timeout(p, FLUSH_INTERVAL).unwrap().0;
                        }
                        (std::mem::take(&mut p.buf), std::mem::take(&mut p.lines))
                    };
                    // The lock is released: a wedged write stalls only
                    // this thread, never a worker appending lines.
                    if lines > 0 {
                        if sink
                            .write_all(batch.as_bytes())
                            .and_then(|()| sink.flush())
                            .is_ok()
                        {
                            i.written.fetch_add(lines, Ordering::Relaxed);
                        } else {
                            i.dropped.fetch_add(lines, Ordering::Relaxed);
                        }
                    }
                    if stop {
                        break;
                    }
                }
                let _ = writeln!(
                    sink,
                    "{{\"type\":\"access_log_meta\",\"written\":{},\"dropped\":{}}}",
                    i.written.load(Ordering::Relaxed),
                    i.dropped.load(Ordering::Relaxed)
                );
                let _ = sink.flush();
                i.finished.store(true, Ordering::Release);
            })
            .expect("spawn access-log writer");
        AccessLog { inner }
    }

    /// Queues one NDJSON line (without trailing newline). Never blocks
    /// and never wakes the writer: a buffer at capacity drops the line
    /// and bumps the counter.
    pub fn log(&self, line: String) {
        let mut p = self.inner.pending.lock().unwrap();
        if p.lines >= self.inner.cap {
            drop(p);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        p.buf.push_str(&line);
        p.buf.push('\n');
        p.lines += 1;
    }

    /// Lines durably handed to the sink so far.
    pub fn written(&self) -> u64 {
        self.inner.written.load(Ordering::Relaxed)
    }

    /// Lines dropped (buffer full or sink write error) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        // Signal the writer to drain and exit; wait a bounded grace
        // period so a wedged sink cannot hang shutdown.
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake.notify_all();
        let deadline = std::time::Instant::now() + SHUTDOWN_GRACE;
        while !self.inner.finished.load(Ordering::Acquire) {
            if std::time::Instant::now() >= deadline {
                break; // abandon the wedged writer thread
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Milliseconds since the Unix epoch (wall clock, for log correlation).
fn epoch_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Writes the shared line prefix: timestamp, identity, outcome.
fn push_prefix(s: &mut String, id: &str, kind: &str, outcome: &str, ok: bool) {
    let _ = write!(s, "{{\"ts_ms\":{}", epoch_ms());
    s.push_str(",\"id\":");
    xlda_obs::export::push_json_str(s, id);
    s.push_str(",\"kind\":");
    xlda_obs::export::push_json_str(s, kind);
    s.push_str(",\"outcome\":");
    xlda_obs::export::push_json_str(s, outcome);
    let _ = write!(s, ",\"ok\":{ok}");
}

/// The wide-event line for a completed, traced request: identity, outcome,
/// total latency, the telescoping per-stage breakdown, point counts, and
/// cache attribution.
///
/// Built by direct string pushes of integer fields, not via a
/// [`crate::json::Json`] tree: this runs on the worker thread for every
/// request, and on a small box the allocation + float-formatting cost of
/// the tree was the biggest line item in the `--flight-overhead` gate.
/// Durations are integral nanoseconds — exact, and integers format an
/// order of magnitude faster than shortest-round-trip floats.
pub fn request_line(t: &CompletedTrace) -> String {
    let mut s = String::with_capacity(256);
    push_prefix(&mut s, &t.id, t.kind, t.outcome, t.is_ok());
    let _ = write!(s, ",\"total_ns\":{}", t.total_ns);
    s.push_str(",\"stages_ns\":{");
    for (i, (name, ns)) in STAGES.iter().zip(t.stage_ns.iter()).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{ns}");
    }
    let _ = write!(
        s,
        "}},\"points\":{},\"memo_hits\":{},\"memo_misses\":{},\"store_hits\":{}}}",
        t.points, t.memo_hits, t.memo_misses, t.store_hits
    );
    s
}

/// The minimal line for untraced requests (stats/metrics/debug/shutdown,
/// parse failures, queue rejections).
pub fn simple_line(id: &str, kind: &str, outcome: &str) -> String {
    let mut s = String::with_capacity(96);
    push_prefix(&mut s, id, kind, outcome, outcome == "ok");
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A sink that collects complete lines behind a shared mutex.
    struct Collect(Arc<Mutex<Vec<u8>>>);

    impl Write for Collect {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lines_reach_the_sink_and_meta_footer_closes_it() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = AccessLog::with_writer(Box::new(Collect(Arc::clone(&buf))), 64);
        log.log(simple_line("r1", "stats", "ok"));
        log.log(simple_line("r2", "nope", "bad_request"));
        drop(log);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 events + meta footer: {text}");
        assert!(lines[0].contains("\"id\":\"r1\""));
        assert!(lines[1].contains("\"outcome\":\"bad_request\""));
        assert!(lines[1].contains("\"ok\":false"));
        assert_eq!(
            lines[2],
            "{\"type\":\"access_log_meta\",\"written\":2,\"dropped\":0}"
        );
    }

    #[test]
    fn wedged_sink_drops_lines_and_shutdown_stays_bounded() {
        struct Wedged;
        impl Write for Wedged {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                std::thread::sleep(Duration::from_secs(3600));
                unreachable!("test process exits first")
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let log = AccessLog::with_writer(Box::new(Wedged), 2);
        let start = std::time::Instant::now();
        // One line, then wait past the flush interval: the writer takes
        // the batch and blocks inside the wedged sink.
        log.log(simple_line("wedge", "hdc", "ok"));
        std::thread::sleep(Duration::from_millis(250));
        for i in 0..20 {
            log.log(simple_line(&format!("r{i}"), "hdc", "ok"));
        }
        // 20 appends against a capacity-2 buffer that will never be
        // flushed again: 2 buffered, the rest drop.
        assert!(log.dropped() >= 18, "dropped {}", log.dropped());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "log() must never block on a wedged sink"
        );
        drop(log);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must abandon a wedged writer"
        );
    }

    #[test]
    fn request_line_is_a_complete_wide_event() {
        let t = CompletedTrace {
            id: "q7".into(),
            kind: "hdc",
            outcome: "ok",
            total_ns: 1_500_000,
            stage_ns: [100_000, 200_000, 0, 1_000_000, 200_000],
            points: 9,
            memo_hits: 4,
            memo_misses: 2,
            store_hits: 1,
        };
        let line = request_line(&t);
        for needle in [
            "\"id\":\"q7\"",
            "\"kind\":\"hdc\"",
            "\"ok\":true",
            "\"total_ns\":1500000",
            "\"stages_ns\":{\"decode\":100000,",
            "\"eval\":1000000,",
            "\"points\":9",
            "\"memo_hits\":4",
            "\"store_hits\":1",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        assert!(!line.contains('\n'));
        // The emitted line parses back as one JSON object.
        let v = crate::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("stages_ns")
                .and_then(|s| s.get("eval"))
                .and_then(crate::json::Json::as_f64),
            Some(1_000_000.0)
        );
    }
}
