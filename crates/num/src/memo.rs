//! Cross-sweep memoization substrate.
//!
//! Design-space sweeps are highly redundant: thousands of points
//! re-derive the same decoder, driver-chain, matchline, and crossbar
//! sub-problems because neighbouring design points share most of their
//! substrate. This module provides the shared machinery the layer crates
//! use to memoize those sub-evaluations process-wide:
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

/// Process-wide monotonic lookup totals, maintained alongside the
/// per-cache counters so callers can attribute cache traffic to a slice
/// of work with two relaxed loads — [`snapshot`] walks the registry and
/// every shard lock, far too heavy for a per-request delta.
///
/// Unlike the per-cache stats these survive [`clear_all`] (they count
/// lookups, not contents), so before/after differences are always
/// non-negative. Concurrent workers' lookups land in the same totals:
/// deltas taken around a slice of work are attribution hints, exact only
/// when that slice ran alone.
static TOTAL_HITS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(hits, misses)` across every cache since process start.
pub fn totals() -> (u64, u64) {
    (
        TOTAL_HITS.load(Ordering::Relaxed),
        TOTAL_MISSES.load(Ordering::Relaxed),
    )
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

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A concurrent memoization cache split into [`SHARDS`] lock shards.
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
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            TOTAL_HITS.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        TOTAL_MISSES.fetch_add(1, Ordering::Relaxed);
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
    /// Registered cache name, e.g. `"circuit.decoder"`.
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
        assert_eq!(cache.stats().hits(), 0);
    }

    #[test]
    fn global_totals_advance_with_lookups_and_survive_clear() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        let (h0, m0) = totals();
        let _ = cache.get_or_insert_with(42, || 1);
        let _ = cache.get_or_insert_with(42, || 1);
        let (h1, m1) = totals();
        assert!(h1 > h0, "hit total advanced: {h0} -> {h1}");
        assert!(m1 > m0, "miss total advanced: {m0} -> {m1}");
        cache.clear();
        let (h2, m2) = totals();
        assert!(h2 >= h1 && m2 >= m1, "totals are monotonic across clear");
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
