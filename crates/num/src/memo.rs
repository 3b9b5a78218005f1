//! Cross-sweep memoization substrate.
//!
//! Design-space sweeps are highly redundant: thousands of points
//! re-derive the same matchline limits, crossbar macros and subarray
//! geometry solves because neighbouring design points share most of
//! their substrate. This module provides the shared machinery the layer
//! crates use to memoize those sub-evaluations process-wide. A site earns
//! its memo only when a hit saves more than a lookup costs (a few hashes,
//! a lock read and a clone, ~100 ns); cheaper sub-models are recomputed.
//!
//! - [`ShardedCache`]: a concurrent hash map split into shards so sweep
//!   workers on different keys do not serialize on one lock, with atomic
//!   hit/miss counters;
//! - [`f64_key`]: the cache-key policy for `f64` model parameters (see
//!   below);
//! - a process-global registry ([`snapshot`], [`clear_all`],
//!   [`set_enabled`]) so the sweep engine can report per-cache hit rates
//!   and tests can compare memoized against memo-free evaluations.
//!
//! # Key policy
//!
//! Floating-point cache keys are the exact bit patterns of the
//! parameters, with only `-0.0` canonicalized to `+0.0` and all NaNs
//! collapsed to one key. Two inputs share an entry only when they are the
//! same number, so a cached value is exactly what a fresh evaluation of
//! that input returns: memoized sweeps are bit-identical to memo-free
//! ones (see `tests/cache_transparency.rs`), and a point's answer does
//! not depend on what the process evaluated before it (see
//! `tests/memo_order_independence.rs`).
//!
//! # Counters
//!
//! Each lookup counts twice: in its cache's shared hit or miss counter,
//! which [`snapshot`] reads, and in the calling thread's own totals,
//! which [`thread_totals`] reads.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Shards per cache: enough that workers rarely contend on one lock,
/// few enough that `len`/`clear` sweeps stay cheap.
const SHARDS: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables all memoization.
///
/// While disabled, [`ShardedCache::get_or_insert_with`] computes every
/// call directly (no lookups, no insertions, no stats). Used by the
/// cache-transparency tests and by benchmarks measuring the memo-free
/// baseline path.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether memoization is currently enabled (default: true).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The cache-key word of an `f64` model parameter: its exact bit
/// pattern, with `-0.0` folded onto `+0.0` and every NaN onto one key
/// (see module docs).
pub fn f64_key(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

thread_local! {
    /// The calling thread's `(hits, misses)` over every cache.
    static THREAD_TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Cumulative `(hits, misses)` of every lookup the calling thread has
/// made, over every cache, since the thread started.
///
/// Reads only the calling thread's own counts, so a delta taken around a
/// slice of work counts exactly that thread's lookups, whatever other
/// threads do meanwhile. Unlike the per-cache stats these survive
/// [`clear_all`] (they count lookups, not contents).
pub fn thread_totals() -> (u64, u64) {
    THREAD_TOTALS.with(Cell::get)
}

/// Hit/miss counters for one cache.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheStats {
    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Counts one lookup here and in the calling thread's totals.
    fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        THREAD_TOTALS.with(|t| {
            let (hits, misses) = t.get();
            t.set((hits + u64::from(hit), misses + u64::from(!hit)));
        });
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A concurrent memoization cache split into 16 lock shards.
///
/// Values are cloned out; under a racing double-compute the first stored
/// value wins, keeping results deterministic for pure evaluators.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached value for `key`, computing and storing it with
    /// `compute` on a miss. Bypasses the cache entirely while the global
    /// memo switch is off.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, compute: F) -> V {
        if !enabled() {
            return compute();
        }
        let shard = self.shard(&key);
        if let Some(v) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.stats.record(true);
            return v.clone();
        }
        self.stats.record(false);
        let value = compute();
        let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
        guard.entry(key).or_insert(value).clone()
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry and resets the hit/miss counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.stats.reset();
    }

    /// This cache's hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One registered cache's counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Registered cache name, e.g. `"circuit.matchline_max_cells"`.
    pub name: &'static str,
    /// Cumulative hits.
    pub hits: u64,
    /// Cumulative misses.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
}

impl CacheSnapshot {
    /// Hits over total lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Probe = fn() -> (u64, u64, u64);
type Clearer = fn();

static REGISTRY: Mutex<Vec<(&'static str, Probe, Clearer)>> = Mutex::new(Vec::new());

/// Registers a cache's stats probe and clear hook under `name`.
///
/// Called once from each memo site's lazy initializer (see
/// [`memo_cache!`](crate::memo_cache)); duplicate names are allowed but
/// make snapshots ambiguous, so sites use `crate.site` naming.
pub fn register(name: &'static str, probe: Probe, clearer: Clearer) {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((name, probe, clearer));
}

/// Counters of every registered cache, sorted by name.
///
/// Caches register lazily on first use, so a cache never exercised does
/// not appear.
pub fn snapshot() -> Vec<CacheSnapshot> {
    let mut out: Vec<CacheSnapshot> = REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, probe, _)| {
            let (hits, misses, entries) = probe();
            CacheSnapshot {
                name,
                hits,
                misses,
                entries,
            }
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Clears every registered cache (entries and counters).
pub fn clear_all() {
    let clearers: Vec<Clearer> = REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(_, _, c)| *c)
        .collect();
    for c in clearers {
        c();
    }
}

/// Declares a process-global memo cache registered with the global
/// stats/clear registry.
///
/// ```ignore
/// memo_cache!(static FOO: (usize, u64) => f64, "circuit.foo");
/// let v = FOO.get_or_insert_with(key, || expensive());
/// ```
#[macro_export]
macro_rules! memo_cache {
    (static $NAME:ident: $K:ty => $V:ty, $label:expr) => {
        static $NAME: std::sync::LazyLock<$crate::memo::ShardedCache<$K, $V>> =
            std::sync::LazyLock::new(|| {
                $crate::memo::register(
                    $label,
                    || {
                        (
                            $NAME.stats().hits(),
                            $NAME.stats().misses(),
                            $NAME.len() as u64,
                        )
                    },
                    || $NAME.clear(),
                );
                $crate::memo::ShardedCache::new()
            });
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn f64_key_is_stable_and_canonical() {
        assert_eq!(f64_key(1.0), f64_key(1.0));
        assert_eq!(f64_key(0.0), f64_key(-0.0));
        assert_eq!(f64_key(f64::NAN), f64_key(-f64::NAN));
        assert_ne!(f64_key(f64::INFINITY), f64_key(f64::NEG_INFINITY));
        assert_ne!(f64_key(1.0), f64_key(2.0));
        assert_ne!(f64_key(1.0), f64_key(-1.0));
    }

    #[test]
    fn keys_one_ulp_apart_differ() {
        for x in [1.0, 1e-15, 4.425966944192826e-6, 3.0e8, f64::MIN_POSITIVE] {
            let up = f64::from_bits(x.to_bits() + 1);
            assert_ne!(f64_key(x), f64_key(up), "{x:e}");
            assert_ne!(f64_key(-x), f64_key(-up), "{x:e}");
        }
    }

    #[test]
    fn sharded_cache_counts_hits_and_misses() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..4 {
            for k in 0..8u64 {
                let v = cache.get_or_insert_with(k, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    k * 3
                });
                assert_eq!(v, k * 3);
            }
        }
        assert_eq!(calls.load(Ordering::SeqCst), 8);
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().misses(), 8);
        assert_eq!(cache.stats().hits(), 24);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.stats().hits(), cache.stats().misses()), (0, 0));
    }

    #[test]
    fn lookups_on_exited_threads_count_exactly_once() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let _ = cache.get_or_insert_with(0, || 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let _ = cache.get_or_insert_with(0, || 0);
                    }
                });
            }
        });
        // One miss on this thread and 100 hits on exited threads.
        assert_eq!((cache.stats().hits(), cache.stats().misses()), (100, 1));
        let handle = std::thread::spawn({
            let cache = std::sync::Arc::new(cache);
            move || {
                let _ = cache.get_or_insert_with(1, || 1);
                cache
            }
        });
        let cache = handle.join().expect("lookup thread");
        assert_eq!((cache.stats().hits(), cache.stats().misses()), (100, 2));
    }

    #[test]
    fn thread_totals_count_only_the_calling_thread() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = cache.get_or_insert_with(k % 64, || k);
                    k += 1;
                }
            });
            // Let the neighbour get going before the window opens.
            while cache.stats().hits() < 1000 {
                std::hint::spin_loop();
            }
            let (h0, m0) = thread_totals();
            for k in 1000..1010u64 {
                let _ = cache.get_or_insert_with(k, || k);
                let _ = cache.get_or_insert_with(k, || k);
                let _ = cache.get_or_insert_with(k, || k);
            }
            let (h1, m1) = thread_totals();
            stop.store(true, Ordering::Relaxed);
            assert_eq!((h1 - h0, m1 - m0), (20, 10));
        });
        cache.clear();
        let (h2, m2) = thread_totals();
        assert!(h2 >= 20 && m2 >= 10, "totals survive clear");
    }

    #[test]
    fn registry_snapshots_registered_caches() {
        memo_cache!(static PROBED: u32 => u32, "num.test_probe");
        let _ = PROBED.get_or_insert_with(1, || 10);
        let _ = PROBED.get_or_insert_with(1, || 10);
        let snap = snapshot();
        let s = snap
            .iter()
            .find(|s| s.name == "num.test_probe")
            .expect("registered");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
