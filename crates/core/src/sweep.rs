//! Parallel design-space sweep engine.
//!
//! DSE workloads are embarrassingly parallel (each design point evaluates
//! independently) and highly redundant (sweeps revisit the same array
//! configurations). The engine combines three things:
//!
//! - **work-stealing dispatch**: workers self-schedule small chunks off a
//!   shared atomic cursor, so a slow region of the design space (e.g.
//!   large capacities that organize slowly) cannot strand the other
//!   workers the way one oversized pre-assigned chunk can;
//! - **cross-point memoization**: the layer crates share the
//!   sub-evaluations that cost more than a lookup (matchline limits, RAM
//!   geometry tables, crossbar macros) through the sharded caches in
//!   [`memo`] (re-exported here from `xlda_num`), and sweeps report their
//!   hit rates;
//! - **observability** ([`SweepStats`], [`sweep_with_stats`]): points/sec,
//!   per-cache hit rates and a per-layer *self-time* breakdown built on
//!   `xlda_obs` spans (enable with [`xlda_obs::span::set_enabled`]).
//!
//! There is one entry point per job, each taking [`SweepOptions`]:
//! [`par_map`] for infallible evaluators, [`par_try_map`] for fallible
//! ones and [`sweep_with_stats`] for a measured sweep.
//!
//! Output order is always input order, independent of which worker claimed
//! which chunk: the engine tracks chunk indices and reassembles results
//! deterministically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub use xlda_num::memo;
pub use xlda_num::memo::CacheSnapshot;
pub use xlda_obs::span::SpanAgg;

/// Target number of work-unit steals per worker: the chunk is sized as
/// `points / (threads * TARGET_STEALS_PER_WORKER)` so load imbalance is
/// bounded by ~1/8 of a worker's share.
pub const TARGET_STEALS_PER_WORKER: usize = 8;

/// Smallest chunk the sizing heuristic will pick: one point per steal
/// (tiny inputs degrade to pure self-scheduling).
pub const MIN_AUTO_CHUNK: usize = 1;

/// Largest chunk the sizing heuristic will pick, bounding the work a
/// single steal can strand behind one slow point on huge inputs.
pub const MAX_AUTO_CHUNK: usize = 256;

/// Sweep engine tuning knobs.
///
/// Since 0.3.0 this is builder-only: construct via
/// [`SweepOptions::builder`] (or [`SweepOptions::default`]) and read
/// through the getters — new tuning knobs are then additive rather than
/// breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SweepOptions {
    pub(crate) threads: usize,
}

impl SweepOptions {
    /// Starts a builder over the default configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use xlda_core::sweep::SweepOptions;
    ///
    /// let opts = SweepOptions::builder().threads(4).build();
    /// assert_eq!(opts.threads(), 4);
    /// ```
    pub fn builder() -> SweepOptionsBuilder {
        SweepOptionsBuilder {
            opts: Self::default(),
        }
    }

    /// Worker threads; `0` means the machine's available parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn resolve_threads(&self, points: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        t.clamp(1, points.max(1))
    }
}

/// Points per stolen work unit: ~[`TARGET_STEALS_PER_WORKER`] steals per
/// worker, clamped to [`MIN_AUTO_CHUNK`]`..=`[`MAX_AUTO_CHUNK`].
fn chunk_size(points: usize, threads: usize) -> usize {
    (points / (threads * TARGET_STEALS_PER_WORKER)).clamp(MIN_AUTO_CHUNK, MAX_AUTO_CHUNK)
}

/// Builder for [`SweepOptions`] (see [`SweepOptions::builder`]).
#[derive(Debug, Clone)]
pub struct SweepOptionsBuilder {
    opts: SweepOptions,
}

impl SweepOptionsBuilder {
    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> SweepOptions {
        self.opts
    }
}

/// Core dispatch: evaluates `f` over `inputs` under `opts`, preserving
/// input order. Workers, the calling thread among them, pull chunk
/// indices from a shared cursor, tag results with their chunk index, and
/// the caller reassembles in index order — output order never depends on
/// thread interleaving.
fn dispatch<I, O, F>(inputs: &[I], f: F, opts: &SweepOptions) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if inputs.is_empty() {
        return Vec::new();
    }
    let threads = opts.resolve_threads(inputs.len());
    if threads == 1 {
        // One worker: evaluate on the caller's thread, in input order,
        // instead of paying a thread spawn and join per sweep.
        return inputs.iter().map(f).collect();
    }
    let chunk = chunk_size(inputs.len(), threads);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut mine: Vec<(usize, Vec<O>)> = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            let lo = c * chunk;
            if lo >= inputs.len() {
                break;
            }
            let hi = (lo + chunk).min(inputs.len());
            mine.push((c, inputs[lo..hi].iter().map(&f).collect()));
        }
        mine
    };
    std::thread::scope(|scope| {
        // The caller is one of the workers: spawn the other `threads - 1`
        // and claim chunks alongside them rather than block in `join`.
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut parts = work();
        for h in handles {
            parts.extend(h.join().expect("sweep worker panicked"));
        }
        parts.sort_unstable_by_key(|&(c, _)| c);
        parts.into_iter().flat_map(|(_, v)| v).collect()
    })
}

/// Evaluates `f` over `inputs` in parallel under `opts`, preserving
/// order.
///
/// The closure runs on scoped threads, so it may borrow from the
/// caller's stack. A panic in any point is contained at the point
/// boundary and re-raised on the caller's thread with the point index
/// and the original payload message — not a generic join error.
///
/// # Panics
///
/// Re-raises the first (in input order) evaluator panic as
/// `"sweep point <i> panicked: <payload>"`.
pub fn par_map<I, O, F>(inputs: &[I], f: F, opts: &SweepOptions) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let contained = dispatch(
        inputs,
        |input| {
            // Evaluators are pure over `&I`, so unwind safety reduces to
            // not observing half-updated state — which a shared borrow
            // cannot be.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(input)))
                .map_err(panic_message)
        },
        opts,
    );
    contained
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(o) => o,
            Err(msg) => panic!("sweep point {i} panicked: {msg}"),
        })
        .collect()
}

/// Why one sweep point produced no result.
///
/// A fallible sweep must not let one bad design point take down the
/// other ten thousand: evaluator errors are collected per point, and
/// even a panicking evaluator (a modeling bug, not an infeasible point)
/// is contained to its own slot.
#[derive(Debug, Clone, PartialEq)]
pub enum PointFailure<E> {
    /// The evaluator returned a typed error for this point.
    Error(E),
    /// The evaluator panicked on this point; the payload message is
    /// preserved when it was a string.
    Panicked(String),
}

impl<E: std::fmt::Display> std::fmt::Display for PointFailure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointFailure::Error(e) => write!(f, "{e}"),
            PointFailure::Panicked(msg) => write!(f, "evaluator panicked: {msg}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for PointFailure<E> {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates a fallible `f` over `inputs` in parallel under `opts`,
/// preserving order and collecting per-point outcomes instead of
/// panicking.
///
/// Each point yields `Ok(output)`, `Err(PointFailure::Error(e))` for a
/// typed evaluator error, or `Err(PointFailure::Panicked(msg))` if the
/// evaluator panicked on that point — the panic is caught at the point
/// boundary, so the rest of the sweep still completes.
///
/// # Examples
///
/// ```
/// use xlda_core::sweep::{par_try_map, PointFailure, SweepOptions};
///
/// let inputs = [1i64, -2, 3];
/// let out = par_try_map(
///     &inputs,
///     |&x| if x > 0 { Ok(x * x) } else { Err("negative") },
///     &SweepOptions::default(),
/// );
/// assert_eq!(out[0], Ok(1));
/// assert_eq!(out[1], Err(PointFailure::Error("negative")));
/// assert_eq!(out[2], Ok(9));
/// ```
pub fn par_try_map<I, O, E, F>(
    inputs: &[I],
    f: F,
    opts: &SweepOptions,
) -> Vec<Result<O, PointFailure<E>>>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(&I) -> Result<O, E> + Sync,
{
    dispatch(
        inputs,
        |input| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(input)))
                .map_err(panic_message)
                .map_or_else(
                    |msg| Err(PointFailure::Panicked(msg)),
                    |r| r.map_err(PointFailure::Error),
                )
        },
        opts,
    )
}

// ---------------------------------------------------------------------------
// Observability: per-sweep stats on top of xlda_obs spans.
// ---------------------------------------------------------------------------

/// Observability record of one sweep: throughput, memo-cache activity
/// and a per-layer span breakdown, all measured over just that sweep
/// (global accumulators are diffed before/after).
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Number of design points evaluated.
    pub points: usize,
    /// Wall time of the whole sweep.
    pub elapsed: Duration,
    /// Per-cache hit/miss deltas over the sweep, sorted by cache name.
    pub caches: Vec<CacheSnapshot>,
    /// Per-span aggregate deltas over the sweep (empty unless
    /// [`xlda_obs::span::set_enabled`] is on), sorted by span name. The
    /// `self_nanos` of all spans partition instrumented wall time per
    /// worker thread, so this is a flamegraph-style layer breakdown;
    /// the engine's own `"sweep.point"` root span makes the partition
    /// cover (almost) the whole sweep.
    pub layers: Vec<SpanAgg>,
}

impl SweepStats {
    /// Evaluated points per second of wall time.
    pub fn points_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.points as f64 / s
        } else {
            f64::INFINITY
        }
    }

    /// Total cache hits across all registered caches during the sweep.
    pub fn cache_hits(&self) -> u64 {
        self.caches.iter().map(|c| c.hits).sum()
    }

    /// Total cache misses across all registered caches during the sweep.
    pub fn cache_misses(&self) -> u64 {
        self.caches.iter().map(|c| c.misses).sum()
    }

    /// Aggregate hit rate across all caches (0.0 with no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }
}

fn diff_caches(before: &[CacheSnapshot], after: Vec<CacheSnapshot>) -> Vec<CacheSnapshot> {
    after
        .into_iter()
        .map(|a| {
            // A cache first registered mid-sweep has no "before" row; its
            // delta is its whole history. Saturate the subtraction so a
            // cache cleared mid-sweep reports a partial delta instead of
            // panicking on u64 underflow.
            let b = before.iter().find(|b| b.name == a.name);
            CacheSnapshot {
                name: a.name,
                hits: a.hits.saturating_sub(b.map_or(0, |b| b.hits)),
                misses: a.misses.saturating_sub(b.map_or(0, |b| b.misses)),
                entries: a.entries,
            }
        })
        .collect()
}

/// Runs [`par_map`] and measures it: wall time, throughput, memo-cache
/// deltas and the per-span layer breakdown.
///
/// Every point runs under a `"sweep.point"` root span, so with span
/// collection enabled ([`xlda_obs::span::set_enabled`]) the breakdown
/// covers (almost) the whole sweep. With spans disabled the root span is
/// inert — its only per-point cost is one relaxed atomic load.
pub fn sweep_with_stats<I, O, F>(inputs: &[I], f: F, opts: &SweepOptions) -> (Vec<O>, SweepStats)
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let caches_before = memo::snapshot();
    let spans_before = xlda_obs::span::aggregate_snapshot();
    let start = Instant::now();
    let out = par_map(
        inputs,
        |input| {
            let _point = xlda_obs::span!("sweep.point");
            f(input)
        },
        opts,
    );
    let stats = SweepStats {
        points: inputs.len(),
        elapsed: start.elapsed(),
        caches: diff_caches(&caches_before, memo::snapshot()),
        layers: xlda_obs::span::diff_aggregates(
            &spans_before,
            &xlda_obs::span::aggregate_snapshot(),
        ),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_num::memo_cache;

    #[test]
    fn par_map_preserves_order() {
        let inputs: Vec<u64> = (0..1000).collect();
        let out = par_map(&inputs, |&x| x * x, &SweepOptions::default());
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u64> = par_map(&Vec::<u64>::new(), |&x| x, &SweepOptions::default());
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_borrows_from_stack() {
        let base = [10u64, 20, 30];
        let inputs = vec![0usize, 1, 2];
        let out = par_map(&inputs, |&i| base[i] + 1, &SweepOptions::default());
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn chunk_shapes_agree_and_preserve_order() {
        let inputs: Vec<u64> = (0..4097).collect();
        let expect: Vec<u64> = inputs.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for opts in [
            SweepOptions::default(),
            SweepOptions::builder().threads(3).build(),
            SweepOptions::builder().threads(8).build(),
        ] {
            let out = par_map(&inputs, |&x| x.wrapping_mul(x) ^ 7, &opts);
            assert_eq!(out, expect, "options {opts:?}");
        }
    }

    #[test]
    fn par_map_panic_surfaces_point_payload() {
        let inputs: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(
                &inputs,
                |&x| {
                    if x == 41 {
                        panic!("model bug on candidate {x}");
                    }
                    x
                },
                &SweepOptions::default(),
            )
        })
        .expect_err("sweep must propagate the panic");
        let msg = panic_message(caught);
        assert!(msg.contains("sweep point 41"), "{msg}");
        assert!(msg.contains("model bug on candidate 41"), "{msg}");
    }

    #[test]
    fn par_try_map_collects_errors_in_order() {
        let inputs: Vec<i64> = (-3..3).collect();
        let out = par_try_map(
            &inputs,
            |&x| if x >= 0 { Ok(x * 2) } else { Err(x) },
            &SweepOptions::default(),
        );
        assert_eq!(out.len(), 6);
        for (i, r) in inputs.iter().zip(&out) {
            if *i >= 0 {
                assert_eq!(*r, Ok(i * 2));
            } else {
                assert_eq!(*r, Err(PointFailure::Error(*i)));
            }
        }
    }

    #[test]
    fn par_try_map_contains_panics_to_their_point() {
        let inputs = vec![1u32, 2, 3, 4];
        let out: Vec<Result<u32, PointFailure<String>>> = par_try_map(
            &inputs,
            |&x| {
                if x == 3 {
                    panic!("model bug at point {x}");
                }
                Ok(x)
            },
            &SweepOptions::default(),
        );
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Ok(2));
        match &out[2] {
            Err(PointFailure::Panicked(msg)) => assert!(msg.contains("point 3"), "{msg}"),
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(out[3], Ok(4));
    }

    #[test]
    fn point_failure_displays_all_variants() {
        let e: PointFailure<&str> = PointFailure::Error("infeasible");
        assert_eq!(e.to_string(), "infeasible");
        let p: PointFailure<&str> = PointFailure::Panicked("boom".into());
        assert!(p.to_string().contains("panicked"));
    }

    /// Pins the chunk-sizing heuristic:
    /// `points / (threads * TARGET_STEALS_PER_WORKER)` clamped to
    /// `MIN_AUTO_CHUNK..=MAX_AUTO_CHUNK` — ~8 steals per worker, never 0,
    /// never more than 256 points behind one steal.
    #[test]
    fn auto_chunk_heuristic_is_pinned() {
        assert_eq!(TARGET_STEALS_PER_WORKER, 8);
        assert_eq!(MIN_AUTO_CHUNK, 1);
        assert_eq!(MAX_AUTO_CHUNK, 256);
        // Mid-range: exact ~8-steals sizing.
        assert_eq!(chunk_size(6400, 4), 6400 / (4 * 8));
        assert_eq!(chunk_size(1024, 8), 1024 / (8 * 8));
        // Tiny inputs clamp up to one point per steal, never zero.
        assert_eq!(chunk_size(1, 8), MIN_AUTO_CHUNK);
        assert_eq!(chunk_size(7, 1), MIN_AUTO_CHUNK);
        // Huge inputs clamp down so one steal never strands >256 points.
        assert_eq!(chunk_size(1_000_000, 2), MAX_AUTO_CHUNK);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(SweepOptions::builder().build(), SweepOptions::default());
    }

    #[test]
    fn cache_is_usable_from_par_map_workers() {
        let cache: memo::ShardedCache<u64, u64> = memo::ShardedCache::new();
        let inputs: Vec<u64> = (0..256).map(|i| i % 8).collect();
        let out = par_map(
            &inputs,
            |&x| cache.get_or_insert_with(x, || x * 100),
            &SweepOptions::default(),
        );
        assert_eq!(cache.len(), 8);
        for (i, &v) in inputs.iter().zip(&out) {
            assert_eq!(v, i * 100);
        }
    }

    #[test]
    fn sweep_with_stats_measures_throughput_and_caches() {
        memo_cache!(static STATS_PROBE: u64 => u64, "core.test_stats_probe");
        let inputs: Vec<u64> = (0..128).map(|i| i % 4).collect();
        let (out, stats) = sweep_with_stats(
            &inputs,
            |&x| STATS_PROBE.get_or_insert_with(x, || x + 1),
            &SweepOptions::default(),
        );
        assert_eq!(out.len(), 128);
        assert_eq!(stats.points, 128);
        assert!(stats.points_per_sec() > 0.0);
        let probe = stats
            .caches
            .iter()
            .find(|c| c.name == "core.test_stats_probe")
            .expect("probe cache registered");
        assert_eq!(probe.hits + probe.misses, 128);
        assert_eq!(probe.misses, 4);
        assert!(stats.cache_hit_rate() > 0.0);
    }

    /// Toggles the process-global span switch; no other test in this
    /// crate does, so it takes no lock.
    #[test]
    fn sweep_stats_layer_breakdown_from_spans() {
        let inputs: Vec<u64> = (0..64).collect();

        // Spans disabled: no breakdown.
        let (_, stats) = sweep_with_stats(
            &inputs,
            |&x| {
                let _s = xlda_obs::span!("core.test_layer");
                std::hint::black_box(x * 3)
            },
            &SweepOptions::default(),
        );
        assert!(stats.layers.iter().all(|l| l.name != "core.test_layer"));

        xlda_obs::span::set_enabled(true);
        let (_, stats) = sweep_with_stats(
            &inputs,
            |&x| {
                let _s = xlda_obs::span!("core.test_layer");
                std::hint::black_box(x * 3)
            },
            &SweepOptions::default(),
        );
        xlda_obs::span::set_enabled(false);

        let layer = stats
            .layers
            .iter()
            .find(|l| l.name == "core.test_layer")
            .expect("instrumented layer appears in the breakdown");
        assert!(layer.calls >= 64);
        let root = stats
            .layers
            .iter()
            .find(|l| l.name == "sweep.point")
            .expect("engine root span appears in the breakdown");
        assert!(root.calls >= 64);
        // The root span's total covers its children.
        assert!(root.total_nanos >= layer.total_nanos);
    }

    #[test]
    fn diff_caches_includes_mid_sweep_registrations() {
        // A cache that did not exist at sweep start must appear in the
        // diff with its whole history.
        let before = vec![CacheSnapshot {
            name: "core.test_diff_old",
            hits: 10,
            misses: 5,
            entries: 5,
        }];
        let after = vec![
            CacheSnapshot {
                name: "core.test_diff_old",
                hits: 14,
                misses: 6,
                entries: 6,
            },
            CacheSnapshot {
                name: "core.test_diff_new",
                hits: 3,
                misses: 2,
                entries: 2,
            },
        ];
        let diff = diff_caches(&before, after);
        let old = diff
            .iter()
            .find(|c| c.name == "core.test_diff_old")
            .unwrap();
        assert_eq!((old.hits, old.misses), (4, 1));
        let new = diff
            .iter()
            .find(|c| c.name == "core.test_diff_new")
            .unwrap();
        assert_eq!((new.hits, new.misses), (3, 2));
    }

    #[test]
    fn diff_caches_survives_mid_sweep_clears() {
        // Counters that went *backwards* (cache cleared mid-sweep, e.g. by
        // a concurrent transparency test) must saturate, not underflow.
        let before = vec![CacheSnapshot {
            name: "core.test_diff_cleared",
            hits: 100,
            misses: 50,
            entries: 50,
        }];
        let after = vec![CacheSnapshot {
            name: "core.test_diff_cleared",
            hits: 7,
            misses: 3,
            entries: 3,
        }];
        let diff = diff_caches(&before, after);
        assert_eq!((diff[0].hits, diff[0].misses), (0, 0));
    }
}
