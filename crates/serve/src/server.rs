//! The serving pipeline: readiness loop → queue → workers → drain.
//!
//! - **Transport.** On unix the TCP transport is a single-threaded,
//!   readiness-driven event loop (epoll on Linux, `poll()` elsewhere —
//!   see [`crate::poll`]) owning the listener and every client socket.
//!   Connections are nonblocking; requests are framed zero-copy out of
//!   per-connection read buffers ([`crate::conn`]) and multiplexed by
//!   client-chosen request ids — many requests can be in flight per
//!   connection, answered in completion order. Workers write responses
//!   directly to the socket when it has room; only backpressured bytes
//!   detour through the loop.
//! - **Admission.** Parsed evaluation jobs land on a bounded queue. A
//!   full queue rejects immediately with a `retry_after_ms` hint derived
//!   from the *observed* per-job drain rate (EWMA, 1 ms floor) —
//!   explicit backpressure instead of unbounded buffering. `stats` and
//!   `metrics` and `shutdown` bypass the queue so observability
//!   survives saturation.
//! - **Dispatch.** Each enqueue wakes one worker, and each dequeue
//!   takes one job, so an idle worker starts a job the moment it
//!   arrives and a backlog spreads across every free worker instead of
//!   queueing behind whichever one woke first.
//! - **Containment.** Each job evaluates under per-job panic/error
//!   containment; a panicking or infeasible scenario fails its own
//!   request only. Per-request deadlines are checked at evaluation
//!   start inside the same boundary.
//! - **Drain.** `shutdown` (or stdin EOF in `--stdio` mode) stops
//!   admission; workers finish everything already queued and the event
//!   loop flushes every pending response before the server returns —
//!   no accepted request is silently dropped.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
#[cfg(not(unix))]
use std::{io::BufReader, net::TcpStream};

use crate::access_log::{self, AccessLog};
use crate::json::{obj, Json};
use crate::protocol::{self, RefineMode, RefineSpec, Request, TriageSpec};
use xlda_core::evaluate::{Evaluation, Scenario};
use xlda_core::store::{successive_halving, HalvingConfig, ResultStore};
use xlda_core::sweep::{memo, SweepOptions};
use xlda_core::triage::{rank, Objective};
use xlda_core::XldaError;
use xlda_obs::flight::{self, FlightRecorder, RequestTrace};
use xlda_obs::{clock, Counter, Exemplars, Histogram, Registry};

/// Hard cap on bytes a single request frame may occupy before a
/// newline shows up; beyond this the connection is closed with
/// `frame_too_large`.
pub const MAX_FRAME_DEFAULT: usize = 1 << 20;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission queue capacity; beyond this, requests are rejected
    /// with `retry_after_ms`.
    pub queue_cap: usize,
    /// Evaluation worker threads (0 = available parallelism).
    pub threads: usize,
    /// Default per-request deadline applied when a request carries
    /// none. `None` means requests without a deadline never expire.
    pub default_deadline: Option<Duration>,
    /// Largest request frame accepted before the connection is closed
    /// with `frame_too_large`.
    pub max_frame: usize,
    /// Whether the per-request flight recorder runs (default on; its
    /// hot-path cost is a handful of atomic stores per request, gated
    /// under 5% wall overhead by `xlda-bench --flight-overhead`).
    pub flight: bool,
    /// Retained-trace ring capacity for the flight recorder.
    pub flight_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_cap: 256,
            threads: 0,
            default_deadline: None,
            max_frame: MAX_FRAME_DEFAULT,
            flight: true,
            flight_cap: 64,
        }
    }
}

/// A line-oriented response destination. Implementations must tolerate
/// being called from worker threads and must never block on a slow
/// peer (buffer or drop instead).
pub trait ResponseSink: Send + Sync {
    /// Emits exactly one response line (no trailing newline in `line`).
    fn send(&self, line: &str);
    /// Accounting hook: a queue job now owes this sink a response.
    fn job_started(&self) {}
    /// Accounting hook: the owed response has been sent (or discarded).
    fn job_finished(&self) {}
}

/// What one admitted job does when a worker picks it up.
enum Work {
    /// A single-scenario evaluation (the classic request kinds).
    Eval {
        scenario: Box<dyn Scenario>,
        triage: Option<TriageSpec>,
    },
    /// An incremental-DSE grid against the result store.
    Refine(RefineSpec),
}

/// One admitted job.
struct Job {
    id: String,
    work: Work,
    deadline_at: Option<Instant>,
    enqueued_at: Instant,
    sink: Arc<dyn ResponseSink>,
    /// Flight-recorder handle, present when the recorder or the access
    /// log is enabled. `Arc` because the event loop and a worker can
    /// both hold it across the queue handoff.
    trace: Option<Arc<RequestTrace>>,
}

/// Why a job failed.
enum JobError {
    Eval(XldaError),
    Panicked(String),
}

/// Lock-free per-instance instruments behind the `stats` and `metrics`
/// endpoints (an obs [`Registry`], so every value is also renderable as
/// Prometheus text). Per server instance, not process-global: tests and
/// embedders can run several servers without cross-talk.
struct Metrics {
    registry: Registry,
    /// Enqueue-to-response latency of completed requests, seconds.
    latency: Arc<Histogram>,
    /// Enqueue-to-evaluation-start wait, seconds.
    queue_wait: Arc<Histogram>,
    /// Pure evaluation time per request, seconds.
    compute: Arc<Histogram>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    points: Arc<Counter>,
    /// Monte-Carlo trials summarized across all served `*_mc` requests.
    mc_trials: Arc<Counter>,
    connections_opened: Arc<Counter>,
    connections_closed: Arc<Counter>,
    /// EWMA of worker nanoseconds per job; 0 until the first job
    /// completes. Feeds the `retry_after_ms` backpressure hint.
    drain_ns_per_job: AtomicU64,
    /// Per-scenario-kind latency histograms. The kind set is tiny and
    /// static (~10 `&'static str`s), so a linear scan under a mutex is
    /// cheaper than hashing; the handles are `Arc`s so the scan only
    /// covers the lookup, not the record.
    by_kind: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    /// Request-id exemplars for the latency histogram: the slowest
    /// observation per bucket since the last `metrics` scrape.
    latency_exemplars: Exemplars,
    started: Instant,
}

impl Metrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            latency: registry.histogram("xlda_serve_request_latency_seconds"),
            queue_wait: registry.histogram("xlda_serve_queue_wait_seconds"),
            compute: registry.histogram("xlda_serve_compute_seconds"),
            completed: registry.counter("xlda_serve_completed_total"),
            rejected: registry.counter("xlda_serve_rejected_total"),
            deadline_expired: registry.counter("xlda_serve_deadline_expired_total"),
            points: registry.counter("xlda_serve_points_total"),
            mc_trials: registry.counter("xlda_serve_mc_trials_total"),
            connections_opened: registry.counter("xlda_serve_connections_opened_total"),
            connections_closed: registry.counter("xlda_serve_connections_closed_total"),
            drain_ns_per_job: AtomicU64::new(0),
            by_kind: Mutex::new(Vec::new()),
            latency_exemplars: Exemplars::new(),
            started: Instant::now(),
            registry,
        }
    }

    /// Records one completed request's latency: the overall histogram,
    /// its per-kind histogram, and the request-id exemplar store.
    fn observe_request(&self, kind: &'static str, id: &str, latency: Duration) {
        let s = latency.as_secs_f64();
        self.latency.record(s);
        self.latency_exemplars.observe(s, id);
        let h = {
            let mut list = self.by_kind.lock().unwrap_or_else(|e| e.into_inner());
            match list.iter().find(|(k, _)| *k == kind) {
                Some((_, h)) => Arc::clone(h),
                None => {
                    let h = Arc::new(Histogram::new());
                    list.push((kind, Arc::clone(&h)));
                    h
                }
            }
        };
        h.record(s);
    }

    /// Per-kind latency snapshots, sorted by kind name.
    fn kind_snapshot(&self) -> Vec<(&'static str, xlda_obs::HistogramSnapshot)> {
        let list = self.by_kind.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<_> = list.iter().map(|(k, h)| (*k, h.snapshot())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// A histogram quantile in milliseconds, 0.0 when empty (matching
    /// the pre-obs stats shape).
    fn quantile_ms(h: &Histogram, p: f64) -> f64 {
        let snap = h.snapshot();
        if snap.is_empty() {
            0.0
        } else {
            snap.quantile(p) * 1e3
        }
    }

    /// Folds one job's worker time into the drain-rate EWMA (α = 1/4).
    fn observe_drain(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let cur = self.drain_ns_per_job.load(Ordering::Relaxed);
        let next = if cur == 0 {
            sample
        } else {
            cur - cur / 4 + sample / 4
        };
        self.drain_ns_per_job.store(next, Ordering::Relaxed);
    }

    fn open_connections(&self) -> u64 {
        self.connections_opened
            .get()
            .saturating_sub(self.connections_closed.get())
    }
}

pub(crate) struct Shared {
    config: ServerConfig,
    /// Worker count after resolving `threads == 0`.
    workers: usize,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    draining: AtomicBool,
    metrics: Metrics,
    /// The persistent result store, when one is configured. `Eval` jobs
    /// consult it transparently (digest hit skips the engine); `Refine`
    /// jobs resolve against it, falling back to a transient in-memory
    /// store when absent.
    store: Option<Arc<ResultStore>>,
    /// Tail-sampling trace retention, when `config.flight` is on.
    flight: Option<Arc<FlightRecorder>>,
    /// Wide-event NDJSON access log, when one is configured.
    access_log: Option<AccessLog>,
    /// Installed by the event loop so `shutdown()` and workers can wake
    /// it; `None` under the stdio transport.
    #[cfg(unix)]
    waker: Mutex<Option<crate::conn::Waker>>,
}

impl Shared {
    #[cfg(unix)]
    fn wake_loop(&self) {
        if let Some(w) = &*self.waker.lock().unwrap_or_else(|e| e.into_inner()) {
            w.wake();
        }
    }

    #[cfg(not(unix))]
    fn wake_loop(&self) {}
}

/// A line-oriented output sink shared between the admitting reader
/// (rejections, stats) and the workers (evaluation responses); used by
/// the stdio transport and tests.
#[derive(Clone)]
pub struct SharedWriter(Arc<Mutex<Box<dyn Write + Send>>>);

impl SharedWriter {
    /// Wraps a sink. Each `send` appends exactly one line and flushes.
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        Self(Arc::new(Mutex::new(w)))
    }
}

impl ResponseSink for SharedWriter {
    fn send(&self, line: &str) {
        let mut w = self.0.lock().unwrap_or_else(|e| e.into_inner());
        // A dead peer is not a server error; drop the response.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// The evaluation service. Construct once, then run in stdio or TCP
/// mode; both share the same pipeline and warm caches.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool; the server is ready to admit requests.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_store(config, None)
    }

    /// Like [`Server::new`], with a persistent result store consulted
    /// before every evaluation and backing `refine` requests.
    pub fn with_store(config: ServerConfig, store: Option<Arc<ResultStore>>) -> Self {
        Self::with_parts(config, store, None)
    }

    /// The full constructor: optional result store plus an optional
    /// wide-event access log every request is written to.
    pub fn with_parts(
        config: ServerConfig,
        store: Option<Arc<ResultStore>>,
        access_log: Option<AccessLog>,
    ) -> Self {
        let worker_count = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        let recorder = config
            .flight
            .then(|| Arc::new(FlightRecorder::new(config.flight_cap)));
        let shared = Arc::new(Shared {
            config,
            workers: worker_count,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            draining: AtomicBool::new(false),
            metrics: Metrics::new(),
            store,
            flight: recorder,
            access_log,
            #[cfg(unix)]
            waker: Mutex::new(None),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: admission stops, queued work
    /// completes, run loops return.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.not_empty.notify_all();
        self.shared.wake_loop();
    }

    /// Serves one request line against the given response writer.
    /// Exposed so both transports (and tests) share one code path.
    pub fn handle_line(&self, line: &str, writer: &SharedWriter) {
        let sink: Arc<dyn ResponseSink> = Arc::new(writer.clone());
        handle_line_from(&self.shared, line, &sink, false);
    }

    /// Runs the stdio transport: one request per stdin line, one
    /// response per stdout line. Returns after EOF or `shutdown`,
    /// once all admitted work has completed.
    pub fn run_stdio(mut self) {
        let writer = SharedWriter::new(Box::new(std::io::stdout()));
        let sink: Arc<dyn ResponseSink> = Arc::new(writer);
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            handle_line_from(&self.shared, &line, &sink, false);
            if self.draining() {
                break;
            }
        }
        self.shutdown();
        self.join();
    }

    /// Runs the TCP transport until a `shutdown` request drains the
    /// server. On unix this is the readiness-driven event loop; on
    /// other targets it falls back to a thread per connection.
    pub fn run_tcp(mut self, listener: TcpListener) -> std::io::Result<()> {
        #[cfg(unix)]
        let result = crate::event_loop::run(&self.shared, listener);
        #[cfg(not(unix))]
        let result = thread_per_connection(&self.shared, listener);
        self.join();
        result
    }

    /// Waits for the workers to finish draining the queue.
    fn join(&mut self) {
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

/// Whether an `accept(2)` failure is transient. Aborted/reset covers a
/// peer that connected and vanished before the accept; EMFILE/ENFILE
/// (24/23) and ENOMEM (12) are resource exhaustion that draining
/// existing connections can resolve — none of them justify tearing the
/// server down.
pub(crate) fn accept_retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::OutOfMemory
    ) || matches!(e.raw_os_error(), Some(23) | Some(24) | Some(12))
}

/// The non-unix TCP transport: a thread per connection, polling the
/// listener for drain.
#[cfg(not(unix))]
fn thread_per_connection(shared: &Arc<Shared>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                shared.metrics.connections_opened.inc();
                std::thread::spawn(move || {
                    connection_loop(&shared, stream);
                    shared.metrics.connections_closed.inc();
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Poll for drain at 1 ms; the unix event loop has no such
                // tax — its listener is readiness-driven.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if accept_retryable(&e) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    // Line-at-a-time request/response traffic is exactly the pattern
    // Nagle + delayed ACK turns into ~40 ms stalls; disable batching.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink: Arc<dyn ResponseSink> = Arc::new(SharedWriter::new(Box::new(write_half)));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        handle_line_from(shared, &line, &sink, false);
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Largest observed per-job cost at which the event loop evaluates a
/// request on its own thread instead of handing it to the pool. Warm
/// cache-hit evaluations run ~10 µs; a cross-thread handoff on a small
/// box costs more than that in context switches alone.
const INLINE_MAX_NS: u64 = 200_000;

/// Whether the event loop may evaluate the next request in place:
/// nothing is queued ahead of it and the observed drain rate says jobs
/// are far cheaper than a handoff.
pub(crate) fn inline_eligible(shared: &Shared) -> bool {
    let ns = shared.metrics.drain_ns_per_job.load(Ordering::Relaxed);
    ns != 0
        && ns <= INLINE_MAX_NS
        && shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
}

/// Writes a minimal access-log line for requests that never become jobs
/// (control kinds, parse failures, queue rejections). No-op when no
/// access log is configured.
fn log_simple(shared: &Shared, id: &str, kind: &str, outcome: &str) {
    if let Some(log) = &shared.access_log {
        log.log(access_log::simple_line(id, kind, outcome));
    }
}

/// Parses, admits, or rejects one request line. With `inline_eval`,
/// eligible evaluation jobs run on the calling thread (the event
/// loop's fast path); everything else goes through the queue.
pub(crate) fn handle_line_from(
    shared: &Arc<Shared>,
    line: &str,
    sink: &Arc<dyn ResponseSink>,
    inline_eval: bool,
) {
    // Frame-receipt timestamp for the flight recorder's decode stage;
    // one clock read (~5 ns) even when tracing is off.
    let t0 = clock::now();
    let want_trace = shared.flight.is_some() || shared.access_log.is_some();
    match protocol::parse_request(line) {
        Err((id, msg)) => {
            sink.send(&protocol::err_response(&id, "bad_request", &msg, None));
            log_simple(shared, &id, "?", "bad_request");
        }
        Ok(Request::Stats { id }) => {
            sink.send(&stats_response(shared, &id));
            log_simple(shared, &id, "stats", "ok");
        }
        Ok(Request::Metrics { id }) => {
            sink.send(&metrics_response(shared, &id));
            log_simple(shared, &id, "metrics", "ok");
        }
        Ok(Request::Debug { id }) => {
            sink.send(&debug_response(shared, &id));
            log_simple(shared, &id, "debug", "ok");
        }
        Ok(Request::Shutdown { id }) => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.not_empty.notify_all();
            shared.wake_loop();
            sink.send(&protocol::ok_response(&id, "shutdown", vec![]));
            log_simple(shared, &id, "shutdown", "ok");
        }
        Ok(Request::Eval {
            id,
            scenario,
            triage,
            deadline_ms,
        }) => {
            let now = Instant::now();
            let deadline_at = deadline_ms
                .map(Duration::from_millis)
                .or(shared.config.default_deadline)
                .map(|d| now + d);
            let trace =
                want_trace.then(|| Arc::new(RequestTrace::begin(id.clone(), scenario.kind(), t0)));
            let job = Job {
                id,
                work: Work::Eval { scenario, triage },
                deadline_at,
                enqueued_at: now,
                sink: Arc::clone(sink),
                trace,
            };
            job.sink.job_started();
            if inline_eval && !shared.draining.load(Ordering::SeqCst) && inline_eligible(shared) {
                run_one(shared, job);
                return;
            }
            admit_or_reject(shared, job);
        }
        Ok(Request::Refine {
            id,
            spec,
            deadline_ms,
        }) => {
            let now = Instant::now();
            let deadline_at = deadline_ms
                .map(Duration::from_millis)
                .or(shared.config.default_deadline)
                .map(|d| now + d);
            let trace = want_trace.then(|| Arc::new(RequestTrace::begin(id.clone(), "refine", t0)));
            let job = Job {
                id,
                work: Work::Refine(spec),
                deadline_at,
                enqueued_at: now,
                sink: Arc::clone(sink),
                trace,
            };
            job.sink.job_started();
            // A refine fans out over a whole grid; it never takes the
            // event loop's inline fast path.
            admit_or_reject(shared, job);
        }
    }
}

/// Admits a job or answers it with `queue_full` + a backpressure hint.
fn admit_or_reject(shared: &Arc<Shared>, job: Job) {
    if let Err(job) = admit(shared, job) {
        shared.metrics.rejected.inc();
        job.sink.send(&protocol::err_response(
            &job.id,
            "queue_full",
            "admission queue is full",
            Some(retry_after_ms(shared)),
        ));
        job.sink.job_finished();
        let kind = job.trace.as_ref().map_or("?", |t| t.kind());
        log_simple(shared, &job.id, kind, "queue_full");
    }
}

/// Bounded admission: refuses (returning the job, boxed to keep the
/// `Err` small) when draining or at capacity — the queue never grows
/// past `queue_cap`.
fn admit(shared: &Shared, job: Job) -> Result<(), Box<Job>> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err(Box::new(job));
    }
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if q.len() >= shared.config.queue_cap {
        return Err(Box::new(job));
    }
    q.push_back(job);
    drop(q);
    shared.not_empty.notify_one();
    Ok(())
}

/// The backpressure hint: how long until a full queue has drained,
/// estimated from the observed per-job worker time. Before any job
/// has completed the estimate is the 1 ms floor; the hint is capped at
/// 10 s so a stalled pool cannot park clients forever.
fn retry_after_ms(shared: &Shared) -> u64 {
    let ns_per_job = shared.metrics.drain_ns_per_job.load(Ordering::Relaxed);
    let queue_ns =
        ns_per_job as u128 * shared.config.queue_cap as u128 / shared.workers.max(1) as u128;
    ((queue_ns / 1_000_000) as u64).clamp(1, 10_000)
}

/// One evaluation worker: pop one job → evaluate → respond, until the
/// server drains and the queue is empty.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = next_job(shared) {
        if let Some(t) = &job.trace {
            t.mark(flight::Stage::Queue);
        }
        run_one(shared, job);
    }
}

/// Blocks until a job is queued and pops it; `None` once the server is
/// draining and nothing is left.
fn next_job(shared: &Shared) -> Option<Job> {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(job) = q.pop_front() {
            return Some(job);
        }
        if shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        q = shared
            .not_empty
            .wait_timeout(q, Duration::from_millis(50))
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
}

/// Population size behind one distribution digest (finite + NaN trials).
fn trial_count(d: &xlda_core::mc::McDistribution) -> u64 {
    (d.summary.trials + d.summary.nan_count) as u64
}

/// Extracts a printable panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Runs one job under per-job containment, sends its response, and
/// folds its worker time into the drain-rate EWMA.
fn run_one(shared: &Arc<Shared>, job: Job) {
    let metrics = &shared.metrics;
    let eval_start = Instant::now();
    metrics
        .queue_wait
        .record_duration(eval_start.saturating_duration_since(job.enqueued_at));
    let Job {
        id,
        work,
        deadline_at,
        enqueued_at,
        sink,
        trace,
    } = job;
    if let Some(t) = &trace {
        // Inline fast-path jobs never saw a worker pop them; close the
        // queue stage here so it reads as (near) zero instead of unset.
        t.mark_once(flight::Stage::Queue);
        t.mark(flight::Stage::Batch);
    }
    let (line, outcome) = if deadline_at.is_some_and(|t| eval_start >= t) {
        metrics.deadline_expired.inc();
        (
            protocol::err_response(&id, "deadline", "deadline exceeded", None),
            "deadline",
        )
    } else {
        match work {
            Work::Eval { scenario, triage } => eval_response(
                shared,
                &id,
                &*scenario,
                triage.as_ref(),
                enqueued_at,
                eval_start,
                trace.as_deref(),
            ),
            Work::Refine(spec) => refine_response(
                shared,
                &id,
                spec,
                deadline_at,
                enqueued_at,
                eval_start,
                trace.as_deref(),
            ),
        }
    };
    if let Some(t) = &trace {
        t.mark(flight::Stage::Eval);
    }
    sink.send(&line);
    sink.job_finished();
    if let Some(t) = trace {
        t.mark(flight::Stage::Write);
        let done = t.complete(outcome);
        if let Some(log) = &shared.access_log {
            log.log(access_log::request_line(&done));
        }
        if let Some(rec) = &shared.flight {
            rec.observe(done, metrics.drain_ns_per_job.load(Ordering::Relaxed));
        }
    }
    metrics.observe_drain(eval_start.elapsed());
}

/// Cache counters before/after one evaluation, for trace attribution.
/// The memo counts are the calling worker's own, so the delta counts
/// exactly the lookups this evaluation made on this thread, whatever the
/// other workers do; lookups on sweep workers a Monte-Carlo request fans
/// out to are not in it. The store hits are process-wide.
fn cache_marks(shared: &Shared) -> (u64, u64, u64) {
    let (mh, mm) = memo::thread_totals();
    let sh = shared.store.as_ref().map_or(0, |s| s.stats().hits);
    (mh, mm, sh)
}

/// Evaluates one scenario and builds its response line plus the outcome
/// code the flight recorder and access log attribute it under.
fn eval_response(
    shared: &Arc<Shared>,
    id: &str,
    scenario: &dyn Scenario,
    triage: Option<&TriageSpec>,
    enqueued_at: Instant,
    eval_start: Instant,
    trace: Option<&RequestTrace>,
) -> (String, &'static str) {
    let metrics = &shared.metrics;
    let before = trace.map(|_| cache_marks(shared));
    // evaluate(), not candidates(): Monte-Carlo scenarios run their
    // trial population exactly once and return distribution digests
    // alongside the candidate view; deterministic scenarios fall
    // through the default impl at zero cost. With a store configured,
    // the digest lookup happens first and a hit skips the engine
    // entirely — bit-identical either way, so responses cannot tell.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &shared.store {
        Some(store) => store.evaluate_cached(scenario),
        None => scenario.evaluate(),
    }))
    .map_err(|p| JobError::Panicked(panic_message(p)))
    .and_then(|r| r.map_err(JobError::Eval));
    metrics.compute.record_duration(eval_start.elapsed());
    if let (Some(t), Some((mh0, mm0, sh0))) = (trace, before) {
        let (mh1, mm1, sh1) = cache_marks(shared);
        t.set_cache(
            mh1.saturating_sub(mh0),
            mm1.saturating_sub(mm0),
            sh1.saturating_sub(sh0),
        );
    }
    match result {
        Ok(eval) => {
            let cands = eval.candidates;
            metrics.observe_request(scenario.kind(), id, enqueued_at.elapsed());
            metrics.completed.inc();
            metrics.points.add(cands.len() as u64);
            if let Some(t) = trace {
                t.set_points(cands.len() as u64);
            }
            // Each digest summarizes the same request population, so
            // take the max rather than summing across distributions.
            metrics.mc_trials.add(
                eval.distributions
                    .iter()
                    .map(trial_count)
                    .max()
                    .unwrap_or(0),
            );
            let mut body = vec![(
                "candidates",
                Json::Arr(cands.iter().map(protocol::candidate_json).collect()),
            )];
            if !eval.distributions.is_empty() {
                body.push((
                    "distributions",
                    Json::Arr(
                        eval.distributions
                            .iter()
                            .map(protocol::distribution_json)
                            .collect(),
                    ),
                ));
            }
            if let Some(spec) = triage {
                let ranking = rank(&cands, &spec.objective());
                body.push((
                    "ranking",
                    Json::Arr(
                        ranking
                            .iter()
                            .map(|r| {
                                obj(vec![
                                    ("name", Json::Str(r.name.clone())),
                                    ("score", Json::Num(r.score)),
                                    ("meets_floor", Json::Bool(r.meets_floor)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            (protocol::ok_response(id, scenario.kind(), body), "ok")
        }
        Err(JobError::Eval(e)) => {
            let code = if e.is_infeasible() {
                "infeasible"
            } else {
                "invalid"
            };
            (protocol::err_response(id, code, &e.to_string(), None), code)
        }
        Err(JobError::Panicked(msg)) => (
            protocol::err_response(id, "panic", &format!("evaluation panicked: {msg}"), None),
            "panic",
        ),
    }
}

/// Executes one `refine` job: resolves every grid point the client does
/// not already hold, preferring store lookups over fresh evaluations.
/// Misses fall through to the normal engine, so refine is exact — a
/// cold store just makes it slower.
fn refine_response(
    shared: &Arc<Shared>,
    id: &str,
    spec: RefineSpec,
    deadline_at: Option<Instant>,
    enqueued_at: Instant,
    eval_start: Instant,
    trace: Option<&RequestTrace>,
) -> (String, &'static str) {
    let metrics = &shared.metrics;
    let before = trace.map(|_| cache_marks(shared));
    let store = match &shared.store {
        Some(s) => Arc::clone(s),
        // No configured store: refine still works, resolving through a
        // transient in-memory store (same semantics, no persistence).
        None => Arc::new(ResultStore::in_memory()),
    };
    let RefineSpec {
        base,
        points,
        known,
        mode,
        triage,
    } = spec;
    let n = points.len();
    let objective = triage
        .as_ref()
        .map(|t| t.objective())
        .unwrap_or_else(|| Objective::latency_first(None));
    let (digests, scenarios): (Vec<_>, Vec<_>) =
        points.into_iter().map(|p| (p.digest, p.scenario)).unzip();
    // Snapshot which digests the store already held, so statuses can
    // distinguish a lookup ("cached") from fresh work ("evaluated").
    let pre_cached: Vec<bool> = digests.iter().map(|d| store.contains(d)).collect();
    let mut statuses: Vec<&'static str> = vec!["pruned"; n];
    let mut results: Vec<Option<Result<Evaluation, String>>> = (0..n).map(|_| None).collect();
    let mut ranking: Vec<(usize, String, f64)> = Vec::new();
    match mode {
        RefineMode::Full => {
            for i in 0..n {
                if known.contains(&digests[i]) {
                    statuses[i] = "known";
                    continue;
                }
                if deadline_at.is_some_and(|t| Instant::now() >= t) {
                    // Everything resolved so far is already in the
                    // store; a retry resumes exactly here.
                    statuses[i] = "deadline";
                    continue;
                }
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    store.evaluate_cached(&*scenarios[i])
                }));
                let (status, result) = match r {
                    Ok(Ok(ev)) => (if pre_cached[i] { "cached" } else { "evaluated" }, Ok(ev)),
                    Ok(Err(e)) => ("failed", Err(e.to_string())),
                    Err(p) => (
                        "failed",
                        Err(format!("evaluation panicked: {}", panic_message(p))),
                    ),
                };
                statuses[i] = status;
                results[i] = Some(result);
            }
            if triage.is_some() {
                ranking = rank_resolved(&results, &objective);
            }
        }
        RefineMode::Halving { fraction } => {
            let opts = SweepOptions::builder().threads(1).build();
            let config = HalvingConfig {
                fraction,
                objective,
            };
            let outcome = successive_halving(&store, &scenarios, &opts, &config);
            for (i, r) in outcome.results.into_iter().enumerate() {
                let Some(r) = r else { continue };
                let (status, result) = match r {
                    Ok(ev) => (
                        if known.contains(&digests[i]) {
                            "known"
                        } else if pre_cached[i] {
                            "cached"
                        } else {
                            "evaluated"
                        },
                        Ok(ev),
                    ),
                    Err(e) => ("failed", Err(e.to_string())),
                };
                statuses[i] = status;
                results[i] = Some(result);
            }
            ranking = outcome
                .ranking
                .into_iter()
                .map(|r| (r.index, r.name, r.score))
                .collect();
        }
    }
    metrics.compute.record_duration(eval_start.elapsed());
    metrics.observe_request("refine", id, enqueued_at.elapsed());
    metrics.completed.inc();
    if let (Some(t), Some((mh0, mm0, sh0))) = (trace, before) {
        let (mh1, mm1, sh1) = cache_marks(shared);
        t.set_cache(
            mh1.saturating_sub(mh0),
            mm1.saturating_sub(mm0),
            sh1.saturating_sub(sh0),
        );
    }
    let count = |tag: &str| statuses.iter().filter(|s| **s == tag).count();
    let (evaluated, cached, known_n) = (count("evaluated"), count("cached"), count("known"));
    let mut returned_points = 0u64;
    let points_json: Vec<Json> = (0..n)
        .map(|i| {
            let mut fields = vec![
                ("digest", Json::Str(digests[i].to_hex())),
                ("status", Json::Str(statuses[i].to_string())),
            ];
            match &results[i] {
                // Known points answer with digest + status only — the
                // client said it already holds them.
                Some(Ok(ev)) if statuses[i] != "known" => {
                    returned_points += ev.candidates.len() as u64;
                    fields.push((
                        "candidates",
                        Json::Arr(ev.candidates.iter().map(protocol::candidate_json).collect()),
                    ));
                    if !ev.distributions.is_empty() {
                        fields.push((
                            "distributions",
                            Json::Arr(
                                ev.distributions
                                    .iter()
                                    .map(protocol::distribution_json)
                                    .collect(),
                            ),
                        ));
                    }
                }
                Some(Err(msg)) => fields.push(("error", Json::Str(msg.clone()))),
                _ => {}
            }
            obj(fields)
        })
        .collect();
    metrics.points.add(returned_points);
    if let Some(t) = trace {
        t.set_points(returned_points);
    }
    let mut body = vec![
        ("base", Json::Str(base)),
        ("grid", Json::Num(n as f64)),
        ("known", Json::Num(known_n as f64)),
        ("cached", Json::Num(cached as f64)),
        ("evaluated", Json::Num(evaluated as f64)),
        ("points", Json::Arr(points_json)),
    ];
    if !ranking.is_empty() {
        body.push((
            "ranking",
            Json::Arr(
                ranking
                    .into_iter()
                    .map(|(index, name, score)| {
                        obj(vec![
                            ("index", Json::Num(index as f64)),
                            ("digest", Json::Str(digests[index].to_hex())),
                            ("name", Json::Str(name)),
                            ("score", Json::Num(score)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    (protocol::ok_response(id, "refine", body), "ok")
}

/// Scores every resolved point by its best candidate under `objective`,
/// best first (ties broken by grid index).
fn rank_resolved(
    results: &[Option<Result<Evaluation, String>>],
    objective: &Objective,
) -> Vec<(usize, String, f64)> {
    let mut scored: Vec<(usize, String, f64)> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let ev = r.as_ref()?.as_ref().ok()?;
            let best = rank(&ev.candidates, objective).into_iter().next()?;
            Some((i, best.name, best.score))
        })
        .collect();
    scored.sort_by(|a, b| xlda_core::order::desc_nan_last(a.2, b.2).then(a.0.cmp(&b.0)));
    scored
}

/// Builds the `stats` response: queue/latency/throughput plus the
/// process-wide memo cache snapshot (warm across requests by design).
/// Latency quantiles come from the same obs histograms the `metrics`
/// endpoint renders, so both endpoints always agree within bucket
/// resolution.
fn stats_response(shared: &Arc<Shared>, id: &str) -> String {
    let queue_depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let m = &shared.metrics;
    let elapsed = m.started.elapsed().as_secs_f64().max(1e-9);
    let caches: Vec<Json> = memo::snapshot()
        .iter()
        .map(|c| {
            let total = c.hits + c.misses;
            let hit_rate = if total == 0 {
                0.0
            } else {
                c.hits as f64 / total as f64
            };
            obj(vec![
                ("name", Json::Str(c.name.to_string())),
                ("hits", Json::Num(c.hits as f64)),
                ("misses", Json::Num(c.misses as f64)),
                ("entries", Json::Num(c.entries as f64)),
                ("hit_rate", Json::Num(hit_rate)),
            ])
        })
        .collect();
    let kinds: Vec<Json> = m
        .kind_snapshot()
        .iter()
        .map(|(kind, snap)| {
            let q = |p: f64| {
                if snap.is_empty() {
                    0.0
                } else {
                    snap.quantile(p) * 1e3
                }
            };
            obj(vec![
                ("kind", Json::Str(kind.to_string())),
                ("count", Json::Num(snap.count as f64)),
                ("p50_ms", Json::Num(q(0.5))),
                ("p95_ms", Json::Num(q(0.95))),
                ("p99_ms", Json::Num(q(0.99))),
            ])
        })
        .collect();
    protocol::ok_response(
        id,
        "stats",
        vec![
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("queue_cap", Json::Num(shared.config.queue_cap as f64)),
            ("workers", Json::Num(shared.workers as f64)),
            ("open_connections", Json::Num(m.open_connections() as f64)),
            ("completed", Json::Num(m.completed.get() as f64)),
            ("rejected", Json::Num(m.rejected.get() as f64)),
            (
                "deadline_expired",
                Json::Num(m.deadline_expired.get() as f64),
            ),
            ("points_total", Json::Num(m.points.get() as f64)),
            ("points_per_sec", Json::Num(m.points.get() as f64 / elapsed)),
            ("retry_hint_ms", Json::Num(retry_after_ms(shared) as f64)),
            ("p50_ms", Json::Num(Metrics::quantile_ms(&m.latency, 0.5))),
            ("p95_ms", Json::Num(Metrics::quantile_ms(&m.latency, 0.95))),
            ("p99_ms", Json::Num(Metrics::quantile_ms(&m.latency, 0.99))),
            (
                "queue_wait_p50_ms",
                Json::Num(Metrics::quantile_ms(&m.queue_wait, 0.5)),
            ),
            (
                "queue_wait_p95_ms",
                Json::Num(Metrics::quantile_ms(&m.queue_wait, 0.95)),
            ),
            (
                "queue_wait_p99_ms",
                Json::Num(Metrics::quantile_ms(&m.queue_wait, 0.99)),
            ),
            (
                "compute_p50_ms",
                Json::Num(Metrics::quantile_ms(&m.compute, 0.5)),
            ),
            (
                "compute_p95_ms",
                Json::Num(Metrics::quantile_ms(&m.compute, 0.95)),
            ),
            (
                "trace_dropped",
                Json::Num(xlda_obs::trace::dropped() as f64),
            ),
            ("kinds", Json::Arr(kinds)),
            ("flight", flight_json(shared)),
            ("access_log", access_log_json(shared)),
            ("store", store_json(shared)),
            ("caches", Json::Arr(caches)),
        ],
    )
}

/// The `flight` block of the stats/debug responses: recorder counters
/// and the current retention threshold, or `{"enabled": false}`.
fn flight_json(shared: &Arc<Shared>) -> Json {
    match &shared.flight {
        Some(rec) => {
            let s = rec.stats(shared.metrics.drain_ns_per_job.load(Ordering::Relaxed));
            obj(vec![
                ("enabled", Json::Bool(true)),
                ("completed", Json::Num(s.completed as f64)),
                ("retained", Json::Num(s.retained as f64)),
                ("sampled_out", Json::Num(s.dropped as f64)),
                ("slow_threshold_ms", Json::Num(s.threshold_ns as f64 / 1e6)),
            ])
        }
        None => obj(vec![("enabled", Json::Bool(false))]),
    }
}

/// The `access_log` block of the stats response.
fn access_log_json(shared: &Arc<Shared>) -> Json {
    match &shared.access_log {
        Some(log) => obj(vec![
            ("enabled", Json::Bool(true)),
            ("written", Json::Num(log.written() as f64)),
            ("dropped", Json::Num(log.dropped() as f64)),
        ]),
        None => obj(vec![("enabled", Json::Bool(false))]),
    }
}

/// One retained trace as JSON: identity, outcome, exact nanosecond
/// stage breakdown (which telescopes to `total_ns` by construction),
/// and cache attribution. Millisecond mirrors ride along for humans.
fn trace_json(t: &flight::CompletedTrace) -> Json {
    let stages: Vec<Json> = flight::STAGES
        .iter()
        .zip(t.stage_ns.iter())
        .map(|(name, &ns)| {
            obj(vec![
                ("stage", Json::Str(name.to_string())),
                ("ns", Json::Num(ns as f64)),
                ("ms", Json::Num(ns as f64 / 1e6)),
            ])
        })
        .collect();
    obj(vec![
        ("id", Json::Str(t.id.clone())),
        ("kind", Json::Str(t.kind.to_string())),
        ("outcome", Json::Str(t.outcome.to_string())),
        ("ok", Json::Bool(t.is_ok())),
        ("total_ns", Json::Num(t.total_ns as f64)),
        ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
        ("stages", Json::Arr(stages)),
        ("points", Json::Num(t.points as f64)),
        ("memo_hits", Json::Num(t.memo_hits as f64)),
        ("memo_misses", Json::Num(t.memo_misses as f64)),
        ("store_hits", Json::Num(t.store_hits as f64)),
    ])
}

/// Builds the `debug` response: the flight recorder's retained
/// slow/error traces (slowest first) with their stage trees.
fn debug_response(shared: &Arc<Shared>, id: &str) -> String {
    let traces: Vec<Json> = shared
        .flight
        .as_ref()
        .map(|rec| rec.snapshot().iter().map(trace_json).collect())
        .unwrap_or_default();
    protocol::ok_response(
        id,
        "debug",
        vec![
            ("flight", flight_json(shared)),
            ("traces", Json::Arr(traces)),
        ],
    )
}

/// The `store` block of the stats response: counters when a persistent
/// store is configured, `{"enabled": false}` otherwise.
fn store_json(shared: &Arc<Shared>) -> Json {
    match &shared.store {
        Some(s) => {
            let st = s.stats();
            obj(vec![
                ("enabled", Json::Bool(true)),
                ("entries", Json::Num(st.entries as f64)),
                ("hits", Json::Num(st.hits as f64)),
                ("misses", Json::Num(st.misses as f64)),
                ("hit_rate", Json::Num(st.hit_rate())),
                ("inserted", Json::Num(st.inserted as f64)),
                ("evictions", Json::Num(st.evictions as f64)),
                ("persisted_bytes", Json::Num(st.persisted_bytes as f64)),
                ("io_errors", Json::Num(st.io_errors as f64)),
            ])
        }
        None => obj(vec![("enabled", Json::Bool(false))]),
    }
}

/// Builds the `metrics` response: the Prometheus text exposition of this
/// server's obs registry, plus the process-wide span aggregates and memo
/// cache counters, wrapped in one JSON envelope like every other reply.
fn metrics_response(shared: &Arc<Shared>, id: &str) -> String {
    use std::fmt::Write as _;
    // Attach request-id exemplars to the latency histogram's bucket
    // lines, then reset the window: each scrape sees the slowest
    // observation per bucket since the previous scrape.
    let exemplars = shared.metrics.latency_exemplars.snapshot();
    shared.metrics.latency_exemplars.reset();
    let mut text = xlda_obs::export::attach_exemplars(
        &shared.metrics.registry.prometheus_text(),
        "xlda_serve_request_latency_seconds",
        &exemplars,
    );
    let kinds = shared.metrics.kind_snapshot();
    if !kinds.is_empty() {
        let _ = writeln!(text, "# TYPE xlda_serve_kind_latency_seconds histogram");
        for (kind, snap) in &kinds {
            xlda_obs::export::prometheus_histogram_labeled(
                &mut text,
                "xlda_serve_kind_latency_seconds",
                "kind",
                kind,
                snap,
            );
        }
    }
    xlda_obs::export::prometheus_spans(&mut text, &xlda_obs::aggregate_snapshot());
    let caches = memo::snapshot();
    if !caches.is_empty() {
        for (metric, kind) in [
            ("xlda_memo_cache_hits_total", "counter"),
            ("xlda_memo_cache_misses_total", "counter"),
            ("xlda_memo_cache_entries", "gauge"),
        ] {
            let _ = writeln!(text, "# TYPE {metric} {kind}");
            for c in &caches {
                let v = match metric {
                    "xlda_memo_cache_hits_total" => c.hits,
                    "xlda_memo_cache_misses_total" => c.misses,
                    _ => c.entries,
                };
                let _ = writeln!(text, "{metric}{{cache=\"{}\"}} {v}", c.name);
            }
        }
    }
    if let Some(s) = &shared.store {
        let st = s.stats();
        for (metric, kind, v) in [
            ("xlda_store_hits_total", "counter", st.hits),
            ("xlda_store_misses_total", "counter", st.misses),
            ("xlda_store_inserted_total", "counter", st.inserted),
            ("xlda_store_evictions_total", "counter", st.evictions),
            ("xlda_store_io_errors_total", "counter", st.io_errors),
            ("xlda_store_entries", "gauge", st.entries),
            ("xlda_store_persisted_bytes", "gauge", st.persisted_bytes),
        ] {
            let _ = writeln!(text, "# TYPE {metric} {kind}");
            let _ = writeln!(text, "{metric} {v}");
        }
    }
    protocol::ok_response(
        id,
        "metrics",
        vec![
            (
                "content_type",
                Json::Str("text/plain; version=0.0.4".to_string()),
            ),
            ("prometheus", Json::Str(text)),
        ],
    )
}

/// Event-loop access to per-instance connection accounting.
#[cfg(unix)]
pub(crate) mod loop_support {
    use super::*;

    pub(crate) fn config(shared: &Shared) -> &ServerConfig {
        &shared.config
    }

    pub(crate) fn draining(shared: &Shared) -> bool {
        shared.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn queue_len(shared: &Shared) -> usize {
        shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub(crate) fn connection_opened(shared: &Shared) {
        shared.metrics.connections_opened.inc();
    }

    pub(crate) fn connection_closed(shared: &Shared) {
        shared.metrics.connections_closed.inc();
    }

    pub(crate) fn install_waker(shared: &Shared, waker: crate::conn::Waker) {
        *shared.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(waker);
    }

    pub(crate) fn clear_waker(shared: &Shared) {
        *shared.waker.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A writer that forwards complete lines to a channel.
    struct ChannelWriter {
        tx: mpsc::Sender<String>,
        buf: Vec<u8>,
    }

    impl Write for ChannelWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=nl).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                let _ = self.tx.send(text);
            }
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn test_writer() -> (SharedWriter, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::channel();
        (
            SharedWriter::new(Box::new(ChannelWriter {
                tx,
                buf: Vec::new(),
            })),
            rx,
        )
    }

    /// A Monte-Carlo request that keeps one worker busy long enough
    /// (~0.2 s on a 2-vCPU VM) for the requests after it to queue.
    const SLOW: &str = r#"{"id":"slow","kind":"mann_mc","scenario":{"trials":4096}}"#;

    fn recv(rx: &mpsc::Receiver<String>) -> Json {
        let line = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("response within deadline");
        Json::parse(&line).expect("well-formed response line")
    }

    #[test]
    fn evaluates_and_matches_direct_call() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(r#"{"id":"e1","kind":"hdc"}"#, &w);
        let v = recv(&rx);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let got = v.get("candidates").and_then(Json::as_arr).unwrap();
        use xlda_core::evaluate::HdcScenario;
        let want = HdcScenario::default().candidates().unwrap();
        assert_eq!(got.len(), want.len());
        for (g, c) in got.iter().zip(&want) {
            assert_eq!(g.get("name").and_then(Json::as_str), Some(c.name.as_str()));
            assert_eq!(
                g.get("latency_s").and_then(Json::as_f64).unwrap().to_bits(),
                c.fom.latency_s.to_bits()
            );
        }
    }

    #[test]
    fn mc_request_serves_distributions_end_to_end() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(
            r#"{"id":"mc1","kind":"mann_mc","scenario":{"trials":64,"seed":3,"hash_bits":16}}"#,
            &w,
        );
        let v = recv(&rx);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("mann_mc"));
        let dists = v.get("distributions").and_then(Json::as_arr).unwrap();
        assert_eq!(dists.len(), 2);
        let acc = &dists[0];
        assert_eq!(acc.get("name").and_then(Json::as_str), Some("accuracy"));
        assert_eq!(acc.get("trials").and_then(Json::as_f64), Some(64.0));
        for q in ["mean", "std_dev", "p5", "p50", "p95", "yield_fraction"] {
            let x = acc.get(q).and_then(Json::as_f64).unwrap();
            assert!(x.is_finite(), "{q} must be finite");
        }
        // Same trials, same seed: the served digest matches a direct call.
        use xlda_core::evaluate::Scenario as _;
        let direct = xlda_core::mc::MannAccuracyMcScenario {
            mc: xlda_core::mc::McParams {
                trials: 64,
                seed: 3,
                ..xlda_core::mc::McParams::default()
            },
            hash_bits: 16,
            ..xlda_core::mc::MannAccuracyMcScenario::default()
        }
        .evaluate()
        .unwrap();
        assert_eq!(
            acc.get("checksum").and_then(Json::as_str),
            Some(format!("{:016x}", direct.distributions[0].checksum).as_str())
        );
        // Candidates (quantile views) ride alongside.
        let cands = v.get("candidates").and_then(Json::as_arr).unwrap();
        assert_eq!(cands.len(), direct.candidates.len());
    }

    #[test]
    fn mc_invalid_inputs_fail_as_invalid_not_panic() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(
            r#"{"id":"mc2","kind":"mann_mc","scenario":{"trials":8,"hash_bits":4,"relax_decades":-2}}"#,
            &w,
        );
        let v = recv(&rx);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("invalid"));
        let msg = v.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("rram.relax"), "{msg}");
    }

    #[test]
    fn malformed_line_yields_bad_request() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line("garbage", &w);
        let v = recv(&rx);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("bad_request"));
    }

    #[test]
    fn expired_deadline_fails_the_request_only() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(r#"{"id":"d1","kind":"hdc","deadline_ms":0}"#, &w);
        server.handle_line(r#"{"id":"d2","kind":"hdc"}"#, &w);
        let mut by_id = std::collections::HashMap::new();
        for _ in 0..2 {
            let v = recv(&rx);
            by_id.insert(v.get("id").and_then(Json::as_str).unwrap().to_string(), v);
        }
        assert_eq!(
            by_id["d1"].get("code").and_then(Json::as_str),
            Some("deadline")
        );
        assert_eq!(by_id["d2"].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn saturated_queue_rejects_with_retry_after() {
        // The single worker is busy with a slow job, so admissions
        // outpace draining deterministically.
        let server = Server::new(ServerConfig {
            queue_cap: 2,
            threads: 1,
            ..ServerConfig::default()
        });
        let (w, rx) = test_writer();
        server.handle_line(SLOW, &w);
        for i in 0..6 {
            server.handle_line(&format!(r#"{{"id":"q{i}","kind":"mann"}}"#), &w);
        }
        let mut rejected = 0;
        let mut ok = 0;
        for _ in 0..7 {
            let v = recv(&rx);
            match v.get("ok").and_then(Json::as_bool) {
                Some(true) => ok += 1,
                Some(false) => {
                    assert_eq!(v.get("code").and_then(Json::as_str), Some("queue_full"));
                    let retry = v.get("retry_after_ms").and_then(Json::as_f64).unwrap();
                    assert!(
                        (1.0..=10_000.0).contains(&retry),
                        "hint {retry} out of range"
                    );
                    rejected += 1;
                }
                None => panic!("response without ok"),
            }
        }
        assert_eq!(ok + rejected, 7, "every request answered");
        assert!(
            rejected >= 4,
            "cap 2 admits at most 2 of 6 behind a busy worker"
        );
    }

    #[test]
    fn retry_hint_tracks_observed_drain_rate() {
        let shared = Arc::new(Shared {
            config: ServerConfig {
                queue_cap: 100,
                ..ServerConfig::default()
            },
            workers: 1,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            draining: AtomicBool::new(false),
            metrics: Metrics::new(),
            store: None,
            flight: None,
            access_log: None,
            #[cfg(unix)]
            waker: Mutex::new(None),
        });
        // No job observed yet: the hint is the 1 ms floor.
        assert_eq!(retry_after_ms(&shared), 1);
        // 100 queued jobs at an observed 2 ms/job on one worker ≈ 200 ms.
        shared.metrics.observe_drain(Duration::from_millis(2));
        let hint = retry_after_ms(&shared);
        assert!((150..=250).contains(&hint), "hint {hint} vs ~200 ms drain");
        // A stalled pool cannot park clients past the 10 s cap.
        shared
            .metrics
            .drain_ns_per_job
            .store(u64::MAX / 2, Ordering::Relaxed);
        assert_eq!(retry_after_ms(&shared), 10_000);
    }

    #[test]
    fn stats_reports_queue_and_caches() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(r#"{"id":"e","kind":"hdc"}"#, &w);
        let first = recv(&rx);
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        server.handle_line(r#"{"id":"s","kind":"stats"}"#, &w);
        let v = recv(&rx);
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("stats"));
        assert_eq!(v.get("completed").and_then(Json::as_f64), Some(1.0));
        assert!(v.get("workers").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(v.get("retry_hint_ms").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(v.get("open_connections").and_then(Json::as_f64), Some(0.0));
        assert!(v.get("p95_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(v.get("queue_wait_p95_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(v.get("compute_p95_ms").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(!v.get("caches").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn metrics_renders_prometheus_text_matching_stats() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(r#"{"id":"e","kind":"hdc"}"#, &w);
        let first = recv(&rx);
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        server.handle_line(r#"{"id":"m","kind":"metrics"}"#, &w);
        let v = recv(&rx);
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("metrics"));
        assert_eq!(
            v.get("content_type").and_then(Json::as_str),
            Some("text/plain; version=0.0.4")
        );
        let text = v.get("prometheus").and_then(Json::as_str).unwrap();
        // Counters agree with the stats endpoint (per-instance, so the
        // single eval above is exactly what both report).
        assert!(text.contains("# TYPE xlda_serve_completed_total counter"));
        assert!(text.contains("xlda_serve_completed_total 1"));
        assert!(text.contains("xlda_serve_rejected_total 0"));
        assert!(text.contains("xlda_serve_connections_opened_total 0"));
        // The latency histogram saw exactly the one completed request.
        assert!(text.contains("# TYPE xlda_serve_request_latency_seconds histogram"));
        assert!(text.contains("xlda_serve_request_latency_seconds_count 1"));
        assert!(text.contains("xlda_serve_request_latency_seconds_bucket{le=\"+Inf\"} 1"));
        // Process-wide memo caches ride along, labelled by cache name.
        assert!(text.contains("xlda_memo_cache_hits_total{cache="));
    }

    #[test]
    fn shutdown_drains_queued_work_before_returning() {
        let server = Server::new(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let (w, rx) = test_writer();
        // The hdc jobs are still queued behind the slow one at shutdown.
        server.handle_line(SLOW, &w);
        for i in 0..5 {
            server.handle_line(&format!(r#"{{"id":"g{i}","kind":"hdc"}}"#), &w);
        }
        server.handle_line(r#"{"id":"bye","kind":"shutdown"}"#, &w);
        drop(server); // joins the workers; must not lose admitted work
        let mut answered = std::collections::HashSet::new();
        while let Ok(line) = rx.try_recv() {
            let v = Json::parse(&line).unwrap();
            answered.insert(v.get("id").and_then(Json::as_str).unwrap().to_string());
        }
        for i in 0..5 {
            assert!(answered.contains(&format!("g{i}")), "g{i} dropped");
        }
        assert!(answered.contains("slow") && answered.contains("bye"));
    }

    #[test]
    fn debug_returns_traces_whose_stages_telescope_exactly() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        for i in 0..4 {
            server.handle_line(&format!(r#"{{"id":"t{i}","kind":"hdc"}}"#), &w);
            let v = recv(&rx);
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        }
        server.handle_line(r#"{"id":"dbg","kind":"debug"}"#, &w);
        let v = recv(&rx);
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("debug"));
        let flight = v.get("flight").unwrap();
        assert_eq!(flight.get("enabled").and_then(Json::as_bool), Some(true));
        // A trace completes *after* its response is sent (the write
        // stage is part of the trace), so the most recent request may
        // not be folded in yet when the debug probe lands.
        assert!(flight.get("completed").and_then(Json::as_f64).unwrap() >= 3.0);
        let traces = v.get("traces").and_then(Json::as_arr).unwrap();
        assert!(!traces.is_empty(), "at least the slowest trace is retained");
        for t in traces {
            let total = t.get("total_ns").and_then(Json::as_f64).unwrap();
            assert!(total >= 1.0);
            let stages = t.get("stages").and_then(Json::as_arr).unwrap();
            assert_eq!(stages.len(), 5);
            // Stage durations are exact nanosecond diffs of one clock, so
            // they telescope to the total with no rounding slop at all.
            let sum: f64 = stages
                .iter()
                .map(|s| s.get("ns").and_then(Json::as_f64).unwrap())
                .sum();
            assert_eq!(sum, total, "stage tree must telescope to total_ns");
            assert!(t.get("points").and_then(Json::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn stats_reports_p99_per_kind_quantiles_and_flight_blocks() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(r#"{"id":"a","kind":"hdc"}"#, &w);
        server.handle_line(r#"{"id":"b","kind":"mann"}"#, &w);
        for _ in 0..2 {
            let v = recv(&rx);
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        }
        server.handle_line(r#"{"id":"s","kind":"stats"}"#, &w);
        let v = recv(&rx);
        let p50 = v.get("p50_ms").and_then(Json::as_f64).unwrap();
        let p95 = v.get("p95_ms").and_then(Json::as_f64).unwrap();
        let p99 = v.get("p99_ms").and_then(Json::as_f64).unwrap();
        assert!(
            p50 <= p95 && p95 <= p99,
            "quantile ladder {p50} {p95} {p99}"
        );
        assert!(v.get("queue_wait_p99_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(v.get("trace_dropped").and_then(Json::as_f64).unwrap() >= 0.0);
        let kinds = v.get("kinds").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = kinds
            .iter()
            .map(|k| k.get("kind").and_then(Json::as_str).unwrap())
            .collect();
        assert!(
            names.contains(&"hdc") && names.contains(&"mann"),
            "{names:?}"
        );
        for k in kinds {
            assert_eq!(k.get("count").and_then(Json::as_f64), Some(1.0));
            assert!(k.get("p99_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        }
        let flight = v.get("flight").unwrap();
        assert_eq!(flight.get("enabled").and_then(Json::as_bool), Some(true));
        // No --access-log on this server: the block says so explicitly.
        let log = v.get("access_log").unwrap();
        assert_eq!(log.get("enabled").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn metrics_carries_exemplars_and_per_kind_histograms() {
        let server = Server::new(ServerConfig::default());
        let (w, rx) = test_writer();
        server.handle_line(r#"{"id":"ex1","kind":"hdc"}"#, &w);
        let first = recv(&rx);
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        server.handle_line(r#"{"id":"m","kind":"metrics"}"#, &w);
        let v = recv(&rx);
        let text = v.get("prometheus").and_then(Json::as_str).unwrap();
        // The slowest (only) request in this scrape window is pinned as
        // the exemplar on exactly the latency bucket it landed in.
        assert!(
            text.contains(" # {request_id=\"ex1\"} "),
            "missing exemplar in:\n{text}"
        );
        assert!(text.contains("# TYPE xlda_serve_kind_latency_seconds histogram"));
        assert!(text.contains("xlda_serve_kind_latency_seconds_count{kind=\"hdc\"} 1"));
        // Exemplar windows reset per scrape: a second scrape has none.
        server.handle_line(r#"{"id":"m2","kind":"metrics"}"#, &w);
        let v2 = recv(&rx);
        let text2 = v2.get("prometheus").and_then(Json::as_str).unwrap();
        assert!(!text2.contains("# {request_id="), "window must reset");
    }
}
