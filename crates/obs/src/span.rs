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
//! accumulates elapsed time into the recording thread's own aggregate block,
//! subtracts time attributed to child spans to produce *self* time, and
//! credits its elapsed time to the parent frame. Self times therefore
//! partition wall time per thread: summing `self_nanos` over all spans equals
//! the total time spent inside any span.
//!
//! Aggregates are per thread so that a span drop writes no shared cache
//! line: each thread owns one slot per span site and updates it with plain
//! relaxed loads and stores. When a thread exits, its block is folded into
//! each site's retired totals under the registry lock, the same lock every
//! snapshot holds, so a snapshot counts every span exactly once and the set
//! of live blocks stays bounded by the number of live threads.
//!
//! The guard only pops what it pushed: toggling the switch while spans are
//! open cannot unbalance the stack. A span is recorded only when collection
//! is on both when it opens and when it closes: spans entered while
//! disabled are inert for their whole lifetime, and a span still open when
//! collection is switched off is dropped, so a disabled window records
//! nothing even while other threads finish spans they began earlier.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// Total nanos, self nanos and calls of one span site.
#[derive(Default)]
struct Counts([AtomicU64; 3]);

impl Counts {
    fn load(&self) -> [u64; 3] {
        self.0.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    /// Adds from any thread.
    fn add_shared(&self, add: [u64; 3]) {
        for (c, a) in self.0.iter().zip(add) {
            c.fetch_add(a, Ordering::Relaxed);
        }
    }

    /// Adds from the one thread that owns these counts: a plain load and
    /// store each, no read-modify-write.
    fn add_owned(&self, add: [u64; 3]) {
        for (c, a) in self.0.iter().zip(add) {
            c.store(c.load(Ordering::Relaxed).wrapping_add(a), Ordering::Relaxed);
        }
    }

    fn store(&self, value: [u64; 3]) {
        for (c, v) in self.0.iter().zip(value) {
            c.store(v, Ordering::Relaxed);
        }
    }
}

/// Per-name aggregate site. One per distinct span name, process-wide.
pub struct SpanStat {
    name: &'static str,
    /// This site's slot in every thread's [`ThreadBlock`].
    slot: usize,
    /// Counts of exited threads, plus spans recorded where no thread block
    /// was available.
    retired: Counts,
    /// Counts at the last [`reset_aggregates`]; written under the registry
    /// lock.
    baseline: Counts,
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

/// Span sites with a slot in every thread block; sites registered past
/// this many record into their shared retired counts instead.
const MAX_SITES: usize = 64;

/// One thread's aggregates, one slot per span site. Only the owning
/// thread writes it.
struct ThreadBlock([Counts; MAX_SITES]);

struct Registry {
    sites: Vec<&'static SpanStat>,
    /// Blocks of threads that have recorded a span and not yet exited.
    live: Vec<Arc<ThreadBlock>>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    sites: Vec::new(),
    live: Vec::new(),
});

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Retired plus live counts of `site`, since process start.
    fn current(&self, site: &SpanStat) -> [u64; 3] {
        let mut c = site.retired.load();
        if site.slot < MAX_SITES {
            for block in &self.live {
                for (sum, v) in c.iter_mut().zip(block.0[site.slot].load()) {
                    *sum = sum.wrapping_add(v);
                }
            }
        }
        c
    }
}

/// The calling thread's registered block; folded into the retired totals
/// when the thread exits.
struct BlockHandle(Arc<ThreadBlock>);

impl BlockHandle {
    fn register() -> Self {
        let block = Arc::new(ThreadBlock(std::array::from_fn(|_| Counts::default())));
        registry().live.push(Arc::clone(&block));
        Self(block)
    }
}

impl Drop for BlockHandle {
    fn drop(&mut self) {
        let mut reg = registry();
        for site in reg.sites.iter().filter(|s| s.slot < MAX_SITES) {
            site.retired.add_shared(self.0 .0[site.slot].load());
        }
        reg.live.retain(|b| !Arc::ptr_eq(b, &self.0));
    }
}

thread_local! {
    static BLOCK: BlockHandle = BlockHandle::register();
}

/// Credits one finished span to its site: into the calling thread's block,
/// or straight into the shared retired counts when the thread has no
/// block (its thread-locals are being torn down) or the site has no slot.
fn record(stat: &'static SpanStat, counts: [u64; 3]) {
    if stat.slot < MAX_SITES
        && BLOCK
            .try_with(|b| b.0 .0[stat.slot].add_owned(counts))
            .is_ok()
    {
        return;
    }
    stat.retired.add_shared(counts);
}

/// Intern a span name, returning its process-global accumulator.
///
/// Stats are leaked intentionally: span names come from `span!` call sites,
/// so the set is bounded by the instrumentation, not by input.
pub fn register_site(name: &'static str) -> &'static SpanStat {
    let mut reg = registry();
    if let Some(s) = reg.sites.iter().find(|s| s.name == name) {
        return s;
    }
    let stat: &'static SpanStat = Box::leak(Box::new(SpanStat {
        name,
        slot: reg.sites.len(),
        retired: Counts::default(),
        baseline: Counts::default(),
    }));
    reg.sites.push(stat);
    stat
}

/// Snapshot all span aggregates since the last [`reset_aggregates`], sorted
/// by name.
pub fn aggregate_snapshot() -> Vec<SpanAgg> {
    let reg = registry();
    let mut out: Vec<SpanAgg> = reg
        .sites
        .iter()
        .map(|s| {
            let c = reg.current(s);
            let base = s.baseline.load();
            SpanAgg {
                name: s.name,
                total_nanos: c[0].saturating_sub(base[0]),
                self_nanos: c[1].saturating_sub(base[1]),
                calls: c[2].saturating_sub(base[2]),
            }
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(b.name));
    out
}

/// Zero every span aggregate (names stay registered).
///
/// Threads keep their own counts running; the reset records the current
/// totals as the baseline that snapshots subtract.
pub fn reset_aggregates() {
    let reg = registry();
    for s in &reg.sites {
        s.baseline.store(reg.current(s));
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
        let stat = *site.get_or_init(|| register_site(name));
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
        record(
            active.stat,
            [elapsed, elapsed.saturating_sub(child_nanos), 1],
        );
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
    use std::time::Duration;

    fn window<F: FnOnce()>(f: F) -> Vec<SpanAgg> {
        let before = aggregate_snapshot();
        set_enabled(true);
        f();
        set_enabled(false);
        diff_aggregates(&before, &aggregate_snapshot())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        window(|| {
            let _s = span!("test.reset");
        });
        reset_aggregates();
        let snap = aggregate_snapshot();
        let agg = snap.iter().find(|a| a.name == "test.reset").unwrap();
        assert_eq!((agg.calls, agg.total_nanos, agg.self_nanos), (0, 0, 0));
    }

    #[test]
    fn spans_of_exited_threads_count_exactly_once_and_reset() {
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let calls = |snap: &[SpanAgg]| {
            snap.iter()
                .find(|a| a.name == "test.scoped")
                .map_or(0, |a| a.calls)
        };
        let before = calls(&aggregate_snapshot());
        set_enabled(true);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..25 {
                            let _s = span!("test.scoped");
                        }
                    })
                })
                .collect();
            // Joining waits for each thread's exit, thread-local teardown
            // included, so every block has been folded before the snapshot.
            for w in workers {
                w.join().unwrap();
            }
        });
        set_enabled(false);
        assert_eq!(calls(&aggregate_snapshot()) - before, 100);
        assert_eq!(calls(&aggregate_snapshot()) - before, 100, "stable");
        reset_aggregates();
        let snap = aggregate_snapshot();
        let agg = snap.iter().find(|a| a.name == "test.scoped").unwrap();
        assert_eq!((agg.calls, agg.total_nanos, agg.self_nanos), (0, 0, 0));
    }

    #[test]
    fn live_thread_counts_survive_a_reset_as_a_baseline() {
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        window(|| {
            let _s = span!("test.live_reset");
        });
        reset_aggregates();
        let diff = window(|| {
            let _s = span!("test.live_reset");
        });
        let snap = aggregate_snapshot();
        let agg = snap.iter().find(|a| a.name == "test.live_reset").unwrap();
        assert_eq!(agg.calls, 1);
        assert_eq!(
            diff.iter()
                .find(|a| a.name == "test.live_reset")
                .unwrap()
                .calls,
            1
        );
    }
}
