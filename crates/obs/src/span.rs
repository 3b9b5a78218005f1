//! Hierarchical spans with ~ns-overhead disabled path.
//!
//! Usage from instrumented code:
//!
//! ```
//! xlda_obs::span::set_enabled(true);
//! {
//!     let _s = xlda_obs::span!("evacam.report");
//!     // ... work measured until `_s` drops ...
//! }
//! assert!(xlda_obs::aggregate_snapshot().iter().any(|a| a.name == "evacam.report"));
//! xlda_obs::span::set_enabled(false);
//! ```
//!
//! Each `span!` site holds a `OnceLock` pointing at a process-global,
//! name-deduplicated [`SpanStat`] (leaked, so `&'static` — the set of span
//! names is small and fixed by the instrumentation). When the global switch is
//! off, entering a span is one relaxed atomic load and returns an inert guard.
//! When on, the guard pushes a frame on a thread-local stack; on drop it
//! accumulates elapsed time into the stat, subtracts time attributed to child
//! spans to produce *self* time, and credits its elapsed time to the parent
//! frame. Self times therefore partition wall time per thread: summing
//! `self_nanos` over all spans equals the total time spent inside any span.
//!
//! The guard only pops what it pushed: toggling the switch while spans are
//! open cannot unbalance the stack. A span is recorded only when collection
//! is on both when it opens and when it closes: spans entered while
//! disabled are inert for their whole lifetime, and a span still open when
//! collection is switched off is dropped, so a disabled window records
//! nothing even while other threads finish spans they began earlier.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{clock, trace};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span collection on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    if on {
        // Calibrate the tick clock outside any measured span.
        clock::warmup();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether span collection is currently enabled (the hot-path gate).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Per-name aggregate accumulator. One per distinct span name, process-wide.
pub struct SpanStat {
    name: &'static str,
    total_nanos: AtomicU64,
    self_nanos: AtomicU64,
    calls: AtomicU64,
}

/// Read-only copy of one span's aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    pub name: &'static str,
    /// Wall time spent inside this span, including child spans.
    pub total_nanos: u64,
    /// Wall time spent inside this span, excluding child spans.
    pub self_nanos: u64,
    pub calls: u64,
}

static SITES: Mutex<Vec<&'static SpanStat>> = Mutex::new(Vec::new());

/// Intern a span name, returning its process-global accumulator.
///
/// Stats are leaked intentionally: span names come from `span!` call sites,
/// so the set is bounded by the instrumentation, not by input.
pub fn register_site(name: &'static str) -> &'static SpanStat {
    let mut sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = sites.iter().find(|s| s.name == name) {
        return s;
    }
    let stat: &'static SpanStat = Box::leak(Box::new(SpanStat {
        name,
        total_nanos: AtomicU64::new(0),
        self_nanos: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    }));
    sites.push(stat);
    stat
}

/// Snapshot all span aggregates, sorted by name.
pub fn aggregate_snapshot() -> Vec<SpanAgg> {
    let sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<SpanAgg> = sites
        .iter()
        .map(|s| SpanAgg {
            name: s.name,
            total_nanos: s.total_nanos.load(Ordering::Relaxed),
            self_nanos: s.self_nanos.load(Ordering::Relaxed),
            calls: s.calls.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(b.name));
    out
}

/// Zero every span aggregate (names stay registered).
pub fn reset_aggregates() {
    let sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
    for s in sites.iter() {
        s.total_nanos.store(0, Ordering::Relaxed);
        s.self_nanos.store(0, Ordering::Relaxed);
        s.calls.store(0, Ordering::Relaxed);
    }
}

/// Diff two sorted aggregate snapshots (`after - before`, saturating), keeping
/// only spans with activity in the window.
pub fn diff_aggregates(before: &[SpanAgg], after: &[SpanAgg]) -> Vec<SpanAgg> {
    after
        .iter()
        .filter_map(|a| {
            let b = before.iter().find(|b| b.name == a.name);
            let (bt, bs, bc) = b.map_or((0, 0, 0), |b| (b.total_nanos, b.self_nanos, b.calls));
            let d = SpanAgg {
                name: a.name,
                total_nanos: a.total_nanos.saturating_sub(bt),
                self_nanos: a.self_nanos.saturating_sub(bs),
                calls: a.calls.saturating_sub(bc),
            };
            (d.calls > 0 || d.total_nanos > 0).then_some(d)
        })
        .collect()
}

/// Deepest nesting level with child-time accounting; spans below it are
/// still timed, but their parents' self time absorbs them. Far deeper
/// than any real instrumentation nests.
const MAX_DEPTH: usize = 64;

/// Per-thread span stack as a fixed `Cell` array: `child[d]` holds the
/// nanoseconds already attributed to finished children of the open span
/// at depth `d`. Cells keep the hot path free of `RefCell` borrow
/// bookkeeping and heap growth.
struct LocalStack {
    depth: Cell<usize>,
    child: [Cell<u64>; MAX_DEPTH],
}

thread_local! {
    static STACK: LocalStack = const {
        LocalStack {
            depth: Cell::new(0),
            child: [const { Cell::new(0) }; MAX_DEPTH],
        }
    };
}

struct Active {
    stat: &'static SpanStat,
    start_ticks: u64,
    depth: u32,
}

/// RAII guard for one span occurrence. Inert (a `None`) when the subsystem is
/// disabled at entry time.
pub struct SpanGuard {
    inner: Option<Active>,
}

impl SpanGuard {
    /// Entry point used by the `span!` macro: lazily interns `name` once per
    /// call site, then enters.
    #[inline]
    pub fn enter_site(site: &OnceLock<&'static SpanStat>, name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { inner: None };
        }
        Self::enter_stat(site.get_or_init(|| register_site(name)))
    }

    /// Enter a span by name, paying a registry lookup per call. Exists for
    /// the deprecated `layer_timed` shim; new code should use `span!`.
    #[inline]
    pub fn enter_named(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { inner: None };
        }
        Self::enter_stat(register_site(name))
    }

    fn enter_stat(stat: &'static SpanStat) -> SpanGuard {
        let depth = STACK.with(|s| {
            let d = s.depth.get();
            if d < MAX_DEPTH {
                s.child[d].set(0);
            }
            s.depth.set(d + 1);
            d as u32
        });
        SpanGuard {
            inner: Some(Active {
                stat,
                start_ticks: clock::now(),
                depth,
            }),
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let elapsed = clock::to_nanos(clock::now().saturating_sub(active.start_ticks));
        let depth = active.depth as usize;
        let child_nanos = STACK.with(|s| {
            // Only pop what we pushed: restore our own depth rather than
            // decrementing, so an unbalanced inner guard cannot skew us.
            s.depth.set(depth);
            let child = if depth < MAX_DEPTH {
                s.child[depth].get()
            } else {
                0
            };
            if let Some(parent) = depth.checked_sub(1).and_then(|p| s.child.get(p)) {
                parent.set(parent.get().saturating_add(elapsed));
            }
            child
        });
        if !enabled() {
            return;
        }
        let self_nanos = elapsed.saturating_sub(child_nanos);
        active
            .stat
            .total_nanos
            .fetch_add(elapsed, Ordering::Relaxed);
        active
            .stat
            .self_nanos
            .fetch_add(self_nanos, Ordering::Relaxed);
        active.stat.calls.fetch_add(1, Ordering::Relaxed);
        if trace::active() {
            trace::record(active.stat.name, active.start_ticks, elapsed, active.depth);
        }
    }
}

/// Open a named span until the returned guard drops.
///
/// `$name` must be a string literal (or other `&'static str` constant
/// expression); the site's stat pointer is interned on first use.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::span::SpanStat> =
            ::std::sync::OnceLock::new();
        $crate::span::SpanGuard::enter_site(&SITE, $name)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    // Span enablement is process-global and tests run in parallel; serialize
    // everything that toggles it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn window<F: FnOnce()>(f: F) -> Vec<SpanAgg> {
        let before = aggregate_snapshot();
        set_enabled(true);
        f();
        set_enabled(false);
        diff_aggregates(&before, &aggregate_snapshot())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let before = aggregate_snapshot();
        {
            let s = span!("test.disabled");
            assert!(!s.is_active());
        }
        let diff = diff_aggregates(&before, &aggregate_snapshot());
        assert!(diff.iter().all(|a| a.name != "test.disabled"));
    }

    #[test]
    fn nesting_attributes_self_time_to_the_right_span() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let diff = window(|| {
            let _outer = span!("test.outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = span!("test.inner");
                std::thread::sleep(Duration::from_millis(8));
            }
        });
        let outer = diff.iter().find(|a| a.name == "test.outer").unwrap();
        let inner = diff.iter().find(|a| a.name == "test.inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Outer total covers both sleeps; outer self excludes the inner one.
        assert!(outer.total_nanos >= inner.total_nanos);
        assert!(outer.total_nanos >= 12_000_000);
        assert!(inner.self_nanos >= 8_000_000);
        assert!(outer.self_nanos < outer.total_nanos);
        // Self times partition the outer total (up to measurement jitter
        // *increasing* the parts, never losing time).
        assert!(outer.self_nanos + inner.total_nanos >= outer.total_nanos);
    }

    #[test]
    fn toggling_mid_span_keeps_the_stack_balanced() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let inert = span!("test.toggle_outer");
        set_enabled(true);
        {
            let active = span!("test.toggle_inner");
            assert!(active.is_active());
        }
        set_enabled(false);
        drop(inert);
        STACK.with(|s| assert_eq!(s.depth.get(), 0));
    }

    #[test]
    fn span_closing_after_disable_is_not_recorded() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let open = span!("test.closes_disabled");
        set_enabled(false);
        let before = aggregate_snapshot();
        drop(open);
        let diff = diff_aggregates(&before, &aggregate_snapshot());
        assert!(diff.iter().all(|a| a.name != "test.closes_disabled"));
        STACK.with(|s| assert_eq!(s.depth.get(), 0));
    }

    #[test]
    fn reset_zeroes_aggregates() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        window(|| {
            let _s = span!("test.reset");
        });
        reset_aggregates();
        let snap = aggregate_snapshot();
        let agg = snap.iter().find(|a| a.name == "test.reset").unwrap();
        assert_eq!((agg.calls, agg.total_nanos, agg.self_nanos), (0, 0, 0));
    }
}
