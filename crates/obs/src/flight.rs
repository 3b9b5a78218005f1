//! Per-request flight recorder: stage-timestamped request traces with a
//! tail-sampling retention policy.
//!
//! Aggregate instruments ([`crate::metrics`],
//! [`crate::span`](mod@crate::span)) answer "what is p95"; this module
//! answers "which request *was* the p95, and where did its time go" —
//! interactively, without replaying load under a profiler.
//!
//! Three pieces:
//!
//! * [`RequestTrace`] — one handle per in-flight request, threaded
//!   through the serving pipeline. Each pipeline stage boundary is one
//!   relaxed atomic store of a cumulative nanosecond offset (clocked by
//!   [`crate::clock`], so ~5 ns per mark on x86-64); the handle is
//!   shareable across the event loop and worker threads behind an `Arc`.
//! * [`CompletedTrace`] — the finished record: stage durations that
//!   **telescope exactly** to the recorded total (durations are diffs of
//!   the cumulative marks, so their sum *is* the final mark), plus point
//!   counts and memo/store cache-hit attribution.
//! * [`FlightRecorder`] — a fixed-capacity ring of retained traces with
//!   tail-sampling: errors and deadline misses are always kept, a
//!   request slower than an EWMA-derived threshold is kept, and the
//!   boring majority is dropped (counted, never silently). A dedicated
//!   slowest-slot guarantees the worst request observed so far is always
//!   retrievable even when the ring has wrapped past it.
//!
//! The retention threshold is `SLOW_MULT ×` the larger of the recorder's
//! own total-latency EWMA and an external rate hint (the serve tier
//! passes its drain-rate EWMA, the same signal behind its backpressure
//! hints), so "slow" adapts to the workload instead of being a fixed
//! knob. Until the first sample establishes a baseline every trace is
//! retained — a cold recorder has no basis for calling anything boring.

use crate::clock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Pipeline stage names, in lifecycle order. Indices match [`Stage`].
pub const STAGES: [&str; 5] = ["decode", "queue", "batch", "eval", "write"];

/// Retention threshold multiplier over the latency EWMA baseline.
pub const SLOW_MULT: u64 = 8;

/// One pipeline stage boundary of a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame received → request parsed.
    Decode = 0,
    /// Parsed → popped from the admission queue by a worker.
    Queue = 1,
    /// Popped → evaluation starts (the worker's hand-off; the stage
    /// keeps its historical name).
    Batch = 2,
    /// Evaluation + response serialization done.
    Eval = 3,
    /// Response handed to the socket/sink.
    Write = 4,
}

impl Stage {
    /// The stage's export name.
    pub fn name(self) -> &'static str {
        STAGES[self as usize]
    }
}

/// A live per-request trace handle. Marks are cumulative nanoseconds
/// since the request was accepted, one atomic store each; unset stages
/// read as zero-length when the trace completes.
pub struct RequestTrace {
    id: String,
    kind: &'static str,
    t0_ticks: u64,
    /// Cumulative ns-since-accept per stage boundary; 0 = not reached.
    marks: [AtomicU64; STAGES.len()],
    points: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    store_hits: AtomicU64,
}

impl RequestTrace {
    /// Starts a trace for a parsed request. `t0_ticks` is the clock
    /// reading taken when the frame arrived (before parsing), so the
    /// decode stage — marked here — covers request parsing.
    pub fn begin(id: String, kind: &'static str, t0_ticks: u64) -> Self {
        let t = Self {
            id,
            kind,
            t0_ticks,
            marks: [(); STAGES.len()].map(|_| AtomicU64::new(0)),
            points: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
        };
        t.mark(Stage::Decode);
        t
    }

    /// Nanoseconds since accept, floored at 1 so a recorded mark is
    /// never confused with the 0 = unset sentinel.
    fn elapsed_ns(&self) -> u64 {
        clock::to_nanos(clock::now().saturating_sub(self.t0_ticks)).max(1)
    }

    /// Records a stage boundary: one relaxed atomic store.
    #[inline]
    pub fn mark(&self, stage: Stage) {
        self.marks[stage as usize].store(self.elapsed_ns(), Ordering::Relaxed);
    }

    /// Records a stage boundary only if it has not been marked yet
    /// (e.g. `Queue` is marked when a worker pops the job, and again
    /// defensively at evaluation start for inline fast-path requests).
    #[inline]
    pub fn mark_once(&self, stage: Stage) {
        let _ = self.marks[stage as usize].compare_exchange(
            0,
            self.elapsed_ns(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Records how many result points the response carried.
    pub fn set_points(&self, n: u64) {
        self.points.store(n, Ordering::Relaxed);
    }

    /// Records cache attribution for this request's evaluation (memo
    /// hit/miss and store hit deltas observed around it).
    pub fn set_cache(&self, memo_hits: u64, memo_misses: u64, store_hits: u64) {
        self.memo_hits.store(memo_hits, Ordering::Relaxed);
        self.memo_misses.store(memo_misses, Ordering::Relaxed);
        self.store_hits.store(store_hits, Ordering::Relaxed);
    }

    /// The request id this trace follows.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The request kind this trace follows.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Freezes the trace into its completed record. Stage durations are
    /// diffs of consecutive (monotonically clamped) cumulative marks, so
    /// `stage_ns.iter().sum() == total_ns` holds exactly.
    pub fn complete(&self, outcome: &'static str) -> CompletedTrace {
        let mut stage_ns = [0u64; STAGES.len()];
        let mut prev = 0u64;
        for (i, m) in self.marks.iter().enumerate() {
            let m = m.load(Ordering::Relaxed);
            if m > prev {
                stage_ns[i] = m - prev;
                prev = m;
            }
        }
        CompletedTrace {
            id: self.id.clone(),
            kind: self.kind,
            outcome,
            total_ns: prev,
            stage_ns,
            points: self.points.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
        }
    }
}

/// A finished request trace: identity, outcome, the telescoping stage
/// breakdown, and cache attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Client-chosen request id.
    pub id: String,
    /// Request kind (scenario kind, or `"refine"`).
    pub kind: &'static str,
    /// `"ok"` or the response error code (`"deadline"`, `"invalid"`,
    /// `"infeasible"`, `"panic"`, ...).
    pub outcome: &'static str,
    /// Accept-to-write latency in nanoseconds (the last stage mark).
    pub total_ns: u64,
    /// Per-stage durations in [`STAGES`] order; sums to `total_ns`.
    pub stage_ns: [u64; STAGES.len()],
    /// Result points the response carried.
    pub points: u64,
    /// Memo-cache hits attributed to this request's evaluation.
    pub memo_hits: u64,
    /// Memo-cache misses attributed to this request's evaluation.
    pub memo_misses: u64,
    /// Result-store hits attributed to this request's evaluation.
    pub store_hits: u64,
}

impl CompletedTrace {
    /// Whether the request completed successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok"
    }
}

/// Point-in-time recorder counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightStats {
    /// Traces observed since construction.
    pub completed: u64,
    /// Traces retained (ring inserts; the ring holds the latest `cap`).
    pub retained: u64,
    /// Boring traces sampled out (counted, never silently lost).
    pub dropped: u64,
    /// Current retention threshold in ns (0 = retain everything).
    pub threshold_ns: u64,
}

/// Fixed-capacity tail-sampling trace store. Writers contend only on
/// per-slot mutexes after a lock-free cursor `fetch_add`; the common
/// path (a boring trace) is two atomic ops and never takes a lock.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<CompletedTrace>>>,
    cursor: AtomicUsize,
    completed: AtomicU64,
    retained: AtomicU64,
    dropped: AtomicU64,
    /// EWMA (α = 1/8) of observed total latencies, ns; 0 until seeded.
    ewma_total_ns: AtomicU64,
    /// Largest total latency observed so far, ns.
    slowest_ns: AtomicU64,
    /// The slowest trace, pinned outside the ring so it survives wraps.
    slowest: Mutex<Option<CompletedTrace>>,
}

impl FlightRecorder {
    /// Creates a recorder retaining up to `cap` traces (min 1).
    pub fn new(cap: usize) -> Self {
        Self {
            slots: (0..cap.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ewma_total_ns: AtomicU64::new(0),
            slowest_ns: AtomicU64::new(0),
            slowest: Mutex::new(None),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The current retention threshold given an external per-request
    /// rate hint in ns (pass 0 for none). Zero means "retain all":
    /// no baseline has been established yet.
    pub fn threshold_ns(&self, rate_hint_ns: u64) -> u64 {
        self.ewma_total_ns
            .load(Ordering::Relaxed)
            .max(rate_hint_ns)
            .saturating_mul(SLOW_MULT)
    }

    /// Observes one completed trace, retaining or sampling it out.
    /// `rate_hint_ns` lets the caller fold in its own drain-rate EWMA
    /// (the serve tier's backpressure signal) as a threshold floor.
    pub fn observe(&self, trace: CompletedTrace, rate_hint_ns: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let total = trace.total_ns;
        let threshold = self.threshold_ns(rate_hint_ns);
        // Fold into the EWMA after thresholding, so a slow outlier does
        // not raise the bar it is judged against.
        let cur = self.ewma_total_ns.load(Ordering::Relaxed);
        let next = if cur == 0 {
            total.max(1)
        } else {
            cur - cur / 8 + total / 8
        };
        self.ewma_total_ns.store(next.max(1), Ordering::Relaxed);
        // Pin the slowest trace seen so far (lock only on a new max).
        let mut max = self.slowest_ns.load(Ordering::Relaxed);
        while total > max {
            match self.slowest_ns.compare_exchange_weak(
                max,
                total,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    *self.slowest.lock().unwrap_or_else(|e| e.into_inner()) = Some(trace.clone());
                    break;
                }
                Err(actual) => max = actual,
            }
        }
        let retain = !trace.is_ok() || threshold == 0 || total >= threshold;
        if !retain {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.retained.fetch_add(1, Ordering::Relaxed);
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(trace);
    }

    /// Boring traces sampled out so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self, rate_hint_ns: u64) -> FlightStats {
        FlightStats {
            completed: self.completed.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            threshold_ns: self.threshold_ns(rate_hint_ns),
        }
    }

    /// The retained traces (ring contents plus the pinned slowest,
    /// deduplicated), slowest first.
    pub fn snapshot(&self) -> Vec<CompletedTrace> {
        let mut out: Vec<CompletedTrace> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        if let Some(slow) = self
            .slowest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
        {
            if !out
                .iter()
                .any(|t| t.id == slow.id && t.total_ns == slow.total_ns)
            {
                out.push(slow);
            }
        }
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| a.id.cmp(&b.id)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: &str, outcome: &'static str, total_ns: u64) -> CompletedTrace {
        // Spread the total over three stages so telescoping is nontrivial.
        let a = total_ns / 2;
        let b = total_ns / 4;
        let c = total_ns - a - b;
        CompletedTrace {
            id: id.to_string(),
            kind: "hdc",
            outcome,
            total_ns,
            stage_ns: [a, b, c, 0, 0],
            points: 5,
            memo_hits: 2,
            memo_misses: 1,
            store_hits: 0,
        }
    }

    #[test]
    fn live_trace_marks_telescope_to_total() {
        let t = RequestTrace::begin("r1".into(), "hdc", clock::now());
        t.mark(Stage::Queue);
        t.mark(Stage::Batch);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.mark(Stage::Eval);
        t.mark(Stage::Write);
        t.set_points(7);
        t.set_cache(3, 1, 0);
        let done = t.complete("ok");
        assert_eq!(done.id, "r1");
        assert_eq!(done.kind, "hdc");
        assert!(done.is_ok());
        assert_eq!(done.points, 7);
        assert_eq!((done.memo_hits, done.memo_misses), (3, 1));
        let sum: u64 = done.stage_ns.iter().sum();
        assert_eq!(sum, done.total_ns, "stage durations must telescope");
        assert!(done.total_ns >= 2_000_000, "slept 2 ms: {}", done.total_ns);
        // The eval stage absorbed the sleep.
        assert!(done.stage_ns[Stage::Eval as usize] >= 1_000_000);
    }

    #[test]
    fn unreached_stages_read_as_zero_length() {
        let t = RequestTrace::begin("r2".into(), "mann", clock::now());
        t.mark(Stage::Queue);
        // Batch/Eval never marked; Write closes the trace.
        t.mark(Stage::Write);
        let done = t.complete("deadline");
        assert_eq!(done.stage_ns[Stage::Batch as usize], 0);
        assert_eq!(done.stage_ns[Stage::Eval as usize], 0);
        assert_eq!(done.stage_ns.iter().sum::<u64>(), done.total_ns);
        assert!(!done.is_ok());
    }

    #[test]
    fn mark_once_does_not_overwrite() {
        let t = RequestTrace::begin("r3".into(), "hdc", clock::now());
        t.mark_once(Stage::Queue);
        let first = t.marks[Stage::Queue as usize].load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.mark_once(Stage::Queue);
        assert_eq!(
            t.marks[Stage::Queue as usize].load(Ordering::Relaxed),
            first
        );
    }

    #[test]
    fn cold_recorder_retains_until_baseline_then_samples_out_boring() {
        let rec = FlightRecorder::new(8);
        // First observation: no baseline, retained unconditionally.
        rec.observe(trace("a", "ok", 10_000), 0);
        let s = rec.stats(0);
        assert_eq!((s.completed, s.retained, s.dropped), (1, 1, 0));
        assert!(s.threshold_ns > 0, "EWMA seeded after first trace");
        // A stream of near-baseline traces is boring.
        for i in 0..50 {
            rec.observe(trace(&format!("b{i}"), "ok", 10_000), 0);
        }
        let s = rec.stats(0);
        assert_eq!(s.completed, 51);
        assert!(s.dropped >= 49, "boring traces sampled out: {s:?}");
        // An 8x-over-threshold outlier is retained.
        rec.observe(trace("slow", "ok", 10_000 * SLOW_MULT * 2), 0);
        assert!(rec.snapshot().iter().any(|t| t.id == "slow"));
    }

    #[test]
    fn errors_always_retained_regardless_of_speed() {
        let rec = FlightRecorder::new(8);
        for i in 0..20 {
            rec.observe(trace(&format!("w{i}"), "ok", 10_000), 0);
        }
        rec.observe(trace("boom", "panic", 1), 0);
        rec.observe(trace("late", "deadline", 1), 0);
        let snap = rec.snapshot();
        assert!(snap.iter().any(|t| t.id == "boom"));
        assert!(snap.iter().any(|t| t.id == "late"));
    }

    #[test]
    fn slowest_trace_survives_ring_wrap() {
        let rec = FlightRecorder::new(2);
        rec.observe(trace("slowest", "ok", 1_000_000), 0);
        // Errors force ring inserts that wrap past the slowest entry.
        for i in 0..10 {
            rec.observe(trace(&format!("e{i}"), "invalid", 500), 0);
        }
        let snap = rec.snapshot();
        assert_eq!(snap[0].id, "slowest", "pinned slowest leads: {snap:?}");
        // Ring holds cap entries + the pinned slowest.
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn external_rate_hint_raises_the_threshold() {
        let rec = FlightRecorder::new(4);
        rec.observe(trace("seed", "ok", 1_000), 0);
        // Own EWMA ~1 µs; a 1 ms drain hint dominates.
        assert_eq!(rec.threshold_ns(1_000_000), 1_000_000 * SLOW_MULT);
        // 2 ms would be slow against the own-EWMA threshold (~8 µs) but is
        // under the hinted one: sampled out of the ring. It still shows up
        // in the snapshot because the slowest-slot pins it — only the drop
        // counter records the sampling decision.
        let dropped_before = rec.dropped();
        rec.observe(trace("mid", "ok", 2_000_000), 1_000_000);
        assert_eq!(rec.dropped(), dropped_before + 1);
    }
}
