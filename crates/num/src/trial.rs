//! Structure-of-arrays Monte-Carlo trial batches.
//!
//! The variation-aware scenarios evaluate thousands of independent device
//! realizations ("trials"). This module provides the data-oriented inner
//! loop they share:
//!
//! - [`TrialBatch`] — a contiguous range of trials, each owning a
//!   [`TrialRng`] stream derived from `(seed, global_trial_index)` via
//!   [`Rng64::for_trial`]. Draws are made column-wise: one call fills a
//!   value for every trial in the batch, so the per-trial model is walked
//!   in lockstep across the batch instead of re-entered per trial.
//! - [`Ziggurat`] — the standard-normal sampler of every trial stream: a
//!   256-layer Marsaglia–Tsang ziggurat, several times cheaper per draw
//!   than the Box–Muller transform of [`Rng64::standard_normal`], which
//!   every other caller keeps.
//! - [`Summary`] / [`summarize`] — the distribution digest (mean/σ/range/
//!   p5/p50/p95 plus NaN accounting) Monte-Carlo scenarios return instead
//!   of a single deterministic FOM.
//! - [`checksum`] — an order-sensitive FNV fold over the raw bit patterns
//!   of an outcome column, used by tests and the bench gate to pin
//!   bit-identical results across chunkings, worker counts, and schedules.
//!
//! Because every trial's stream is a pure function of the experiment seed
//! and its *global* index — never of batch boundaries — splitting a trial
//! range `[0, n)` into any set of batches reproduces exactly the same
//! per-trial draws. That is what makes chunked parallel Monte-Carlo
//! deterministic by construction rather than by luck.

use std::marker::PhantomData;
use std::sync::OnceLock;

use crate::rng::{NormalSampler, Rng64};

/// How a trial stream turns raw generator output into standard normals.
pub trait NormalMethod {
    /// One N(0, 1) draw from `rng`.
    fn standard_normal(rng: &mut Rng64) -> f64;
}

/// The 256-layer Marsaglia–Tsang ziggurat (2000), with the exact tail and
/// wedge tests: the normal method of every Monte-Carlo trial stream.
///
/// One `next_u64` gives the layer (bits 0–7), the sign (bit 8) and a
/// 53-bit mantissa (bits 11–63). Drawing them from disjoint bits is
/// Doornik's (2005) fix for the correlated-bits flaw of the original.
/// 98.5% of attempts end at that one output and a table compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ziggurat {}

impl NormalMethod for Ziggurat {
    #[inline]
    fn standard_normal(rng: &mut Rng64) -> f64 {
        ziggurat(rng).0
    }
}

/// Layers of the ziggurat.
const LAYERS: usize = 256;
/// Where the base layer's tail starts.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer: `R f(R)` plus the tail area `∫_R^∞ f`, with
/// `f(x) = exp(-x²/2)`.
const ZIG_V: f64 = 4.928_673_233_974_658e-3;

/// Layer `i` is the band between heights `f[i]` and `f[i + 1]`, over
/// `[0, x[i])`. `x[0] = V / f(R)` is the base layer's width with its tail
/// folded in, `x[1] = R`, and `x[256] = 0`.
struct ZigTables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..LAYERS {
            // Layer i - 1 has area V: x[i-1] * (f(x[i]) - f(x[i-1])) = V.
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        ZigTables { x, f: x.map(pdf) }
    })
}

/// Which test accepted a ziggurat draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZigBranch {
    Rectangle,
    Wedge,
    Tail,
}

/// One standard-normal draw and the branch that accepted it.
#[inline]
fn ziggurat(rng: &mut Rng64) -> (f64, ZigBranch) {
    let t = zig_tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Bit 8 becomes the sign bit of the (non-negative) result.
        let signed = |x: f64| f64::from_bits(x.to_bits() | ((bits & 0x100) << 55));
        let x = u * t.x[i];
        if x < t.x[i + 1] {
            return (signed(x), ZigBranch::Rectangle);
        }
        if i == 0 {
            return (signed(zig_tail(rng)), ZigBranch::Tail);
        }
        // A uniform height in the layer's band, kept under the curve.
        let y = t.f[i] + (t.f[i + 1] - t.f[i]) * rng.uniform();
        if y < (-0.5 * x * x).exp() {
            return (signed(x), ZigBranch::Wedge);
        }
    }
}

/// Marsaglia's (1964) exact sampler of the normal tail beyond `R`.
fn zig_tail(rng: &mut Rng64) -> f64 {
    loop {
        // Draw from (0, 1] so the logarithms stay finite.
        let x = -(1.0 - rng.uniform()).ln() / ZIG_R;
        let y = -(1.0 - rng.uniform()).ln();
        if 2.0 * y > x * x {
            return ZIG_R + x;
        }
    }
}

/// The random stream of one Monte-Carlo trial: xoshiro256\*\* output,
/// with normals drawn by `N` ([`Ziggurat`] in every Monte-Carlo kind).
#[derive(Debug, Clone)]
pub struct TrialRng<N = Ziggurat> {
    rng: Rng64,
    method: PhantomData<N>,
}

impl<N> TrialRng<N> {
    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.index(n)
    }
}

impl<N: NormalMethod> NormalSampler for TrialRng<N> {
    #[inline]
    fn standard_normal(&mut self) -> f64 {
        N::standard_normal(&mut self.rng)
    }
}

/// A batch of consecutive Monte-Carlo trials with per-trial RNG streams.
#[derive(Debug, Clone)]
pub struct TrialBatch<N = Ziggurat> {
    start: u64,
    rngs: Vec<TrialRng<N>>,
}

impl<N> TrialBatch<N> {
    /// Creates the batch covering global trials `[start, start + len)` of
    /// the experiment identified by `seed`.
    pub fn new(seed: u64, start: u64, len: usize) -> Self {
        let rngs = (0..len as u64)
            .map(|i| TrialRng {
                rng: Rng64::for_trial(seed, start + i),
                method: PhantomData,
            })
            .collect();
        Self { start, rngs }
    }

    /// Number of trials in this batch.
    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rngs.is_empty()
    }

    /// Global index of the first trial in this batch.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Global index of local trial `i`.
    pub fn global_index(&self, i: usize) -> u64 {
        self.start + i as u64
    }

    /// The RNG stream of local trial `i`.
    pub fn rng(&mut self, i: usize) -> &mut TrialRng<N> {
        &mut self.rngs[i]
    }

    /// Applies `f` to every trial stream in index order — the generic
    /// "one column" primitive the typed fills are built on. Each trial
    /// must draw the same number of values per column for results to stay
    /// chunking-invariant (they consume only their own stream, in a fixed
    /// per-trial order).
    pub fn for_each(&mut self, mut f: impl FnMut(usize, &mut TrialRng<N>)) {
        for (i, rng) in self.rngs.iter_mut().enumerate() {
            f(i, rng);
        }
    }
}

impl<N: NormalMethod> TrialBatch<N> {
    /// Fills `out[i]` with `N(mean, sigma)` drawn from trial `i`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()` or `sigma` is negative.
    pub fn fill_normal(&mut self, mean: f64, sigma: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "column length mismatch");
        for (o, rng) in out.iter_mut().zip(self.rngs.iter_mut()) {
            *o = rng.normal(mean, sigma);
        }
    }

    /// Fills `out[i]` with `exp(N(mu, sigma))` from trial `i`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn fill_log_normal(&mut self, mu: f64, sigma: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "column length mismatch");
        for (o, rng) in out.iter_mut().zip(self.rngs.iter_mut()) {
            *o = rng.log_normal(mu, sigma);
        }
    }
}

/// Distribution digest of one Monte-Carlo outcome column.
///
/// Statistics cover the non-NaN samples only; NaN outcomes are counted in
/// [`nan_count`](Summary::nan_count) rather than silently skewing a bin
/// (see [`crate::stats::Histogram::add`]). When every sample is NaN — or
/// the column is empty — all statistics are NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples contributing to the statistics (NaNs excluded).
    pub trials: usize,
    /// NaN outcomes encountered and excluded.
    pub nan_count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
    pub p5: f64,
    pub p50: f64,
    pub p95: f64,
}

/// Summarizes an outcome column into mean/σ/range/percentiles.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    let nan_count = xs.len() - v.len();
    if v.is_empty() {
        return Summary {
            trials: 0,
            nan_count,
            mean: f64::NAN,
            std_dev: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            p5: f64::NAN,
            p50: f64::NAN,
            p95: f64::NAN,
        };
    }
    v.sort_by(f64::total_cmp);
    Summary {
        trials: v.len(),
        nan_count,
        mean: crate::stats::mean(&v),
        std_dev: crate::stats::std_dev(&v),
        min: v[0],
        max: v[v.len() - 1],
        p5: quantile(&v, 0.05),
        p50: quantile(&v, 0.50),
        p95: quantile(&v, 0.95),
    }
}

/// Linear-interpolation quantile of an ascending-sorted, non-empty slice;
/// `q` is a fraction in `[0, 1]`.
///
/// # Panics
///
/// Panics if the slice is empty or `q` is outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Fraction of samples satisfying `ok` — the yield of a trial population.
/// NaN outcomes count as failures; an empty column yields 0.
pub fn yield_fraction(xs: &[f64], ok: impl Fn(f64) -> bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let pass = xs.iter().filter(|&&x| !x.is_nan() && ok(x)).count();
    pass as f64 / xs.len() as f64
}

/// FNV-1a fold over the exact bit patterns of an outcome column.
///
/// Order-sensitive by design: two runs agree iff they produced the same
/// values in the same trial order, which is the determinism contract the
/// chunking-invariance tests and the bench gate check.
pub fn checksum(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in xs {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_draws_are_deterministic() {
        let mut a: TrialBatch = TrialBatch::new(7, 10, 16);
        let mut b: TrialBatch = TrialBatch::new(7, 10, 16);
        let mut ca = vec![0.0; 16];
        let mut cb = vec![0.0; 16];
        a.fill_normal(0.0, 1.0, &mut ca);
        b.fill_normal(0.0, 1.0, &mut cb);
        assert_eq!(checksum(&ca), checksum(&cb));
        assert_eq!(ca, cb);
    }

    #[test]
    fn splicing_batches_matches_one_batch() {
        // Trials [0, 100) drawn as one batch vs three uneven batches:
        // identical columns, because streams depend only on the global
        // trial index.
        let draw = |batch: &mut TrialBatch| {
            let mut g = vec![0.0; batch.len()];
            let mut v = vec![0.0; batch.len()];
            batch.fill_log_normal(-11.0, 0.6, &mut g);
            batch.fill_normal(0.9, 0.094, &mut v);
            (g, v)
        };
        let (g_all, v_all) = draw(&mut TrialBatch::new(99, 0, 100));
        let mut g_spliced = Vec::new();
        let mut v_spliced = Vec::new();
        for (start, len) in [(0u64, 13usize), (13, 54), (67, 33)] {
            let (g, v) = draw(&mut TrialBatch::new(99, start, len));
            g_spliced.extend(g);
            v_spliced.extend(v);
        }
        assert_eq!(g_all, g_spliced);
        assert_eq!(v_all, v_spliced);
    }

    #[test]
    fn ziggurat_layers_tile_the_half_normal() {
        let t = zig_tables();
        assert!(t.x.windows(2).all(|w| w[0] > w[1]));
        assert_eq!((t.x[1], t.x[LAYERS], t.f[LAYERS]), (ZIG_R, 0.0, 1.0));
        // The recursion fixes every layer's area to V except the top one,
        // which closes at the mode: its area must come out as V too.
        let top = t.x[LAYERS - 1] * (1.0 - t.f[LAYERS - 1]);
        assert!((top / ZIG_V - 1.0).abs() < 1e-9, "top layer area {top}");
    }

    /// 10^7 fixed-seed draws against N(0, 1): mean, variance, skewness,
    /// kurtosis and P(|z| > k), each within four standard errors, with
    /// the wedge and tail branches both taken.
    #[test]
    fn ziggurat_draws_are_standard_normal() {
        const DRAWS: usize = 10_000_000;
        let ks = [1.0, 2.0, 3.0, ZIG_R, 4.0];
        // erfc(k / sqrt 2) for each k.
        let p_beyond = [
            0.317_310_507_862_914_15,
            0.045_500_263_896_358_44,
            0.002_699_796_063_260_191_3,
            2.580_324_876_539_013e-4,
            6.334_248_366_623_993e-5,
        ];
        let mut rng = Rng64::new(0x5EED_2026);
        let (mut beyond, mut wedges, mut tails) = ([0usize; 5], 0usize, 0usize);
        let mut raw = [0.0f64; 4];
        for _ in 0..DRAWS {
            let (z, branch) = ziggurat(&mut rng);
            match branch {
                ZigBranch::Wedge => wedges += 1,
                ZigBranch::Tail => tails += 1,
                ZigBranch::Rectangle => {}
            }
            let z2 = z * z;
            for (acc, v) in raw.iter_mut().zip([z, z2, z2 * z, z2 * z2]) {
                *acc += v;
            }
            for (count, &k) in beyond.iter_mut().zip(&ks) {
                *count += usize::from(z.abs() > k);
            }
        }
        let n = DRAWS as f64;
        let [m1, m2, m3, m4] = raw.map(|r| r / n);
        let var = m2 - m1 * m1;
        let skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1.powi(3)) / var.powf(1.5);
        let kurt = (m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1.powi(4)) / (var * var);
        let mut checks = vec![
            ("mean".to_string(), m1, 0.0, (1.0 / n).sqrt()),
            ("variance".to_string(), var, 1.0, (2.0 / n).sqrt()),
            ("skewness".to_string(), skew, 0.0, (6.0 / n).sqrt()),
            ("kurtosis".to_string(), kurt, 3.0, (24.0 / n).sqrt()),
        ];
        for ((k, &p), &count) in ks.iter().zip(&p_beyond).zip(&beyond) {
            let se = (p * (1.0 - p) / n).sqrt();
            checks.push((format!("P(|z| > {k})"), count as f64 / n, p, se));
        }
        for (what, got, want, se) in checks {
            assert!(
                (got - want).abs() <= 4.0 * se,
                "{what}: {got} vs {want} (se {se:e})"
            );
        }
        assert!(wedges > 0, "wedge branch never taken");
        assert!(tails > 0, "tail branch never taken");
        // Only the tail reaches beyond R.
        assert_eq!(tails, beyond[3]);
    }

    #[test]
    fn summary_of_known_column() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let s = summarize(&xs);
        assert_eq!(s.trials, 101);
        assert_eq!(s.nan_count, 0);
        assert!((s.mean - 50.0).abs() < 1e-12);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p5 - 5.0).abs() < 1e-12);
        assert!((s.p50 - 50.0).abs() < 1e-12);
        assert!((s.p95 - 95.0).abs() < 1e-12);
    }

    #[test]
    fn summary_excludes_nan_and_poisons_when_empty() {
        let s = summarize(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.trials, 2);
        assert_eq!(s.nan_count, 1);
        assert_eq!(s.mean, 2.0);
        let empty = summarize(&[f64::NAN; 4]);
        assert_eq!(empty.trials, 0);
        assert_eq!(empty.nan_count, 4);
        assert!(empty.mean.is_nan() && empty.p50.is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn yield_counts_nan_as_failure() {
        let xs = [0.9, 0.95, f64::NAN, 0.5];
        assert_eq!(yield_fraction(&xs, |x| x >= 0.9), 0.5);
        assert_eq!(yield_fraction(&[], |_| true), 0.0);
    }

    #[test]
    fn checksum_is_order_and_value_sensitive() {
        let a = checksum(&[1.0, 2.0]);
        assert_ne!(a, checksum(&[2.0, 1.0]));
        assert_ne!(a, checksum(&[1.0, 2.0 + 1e-12]));
        assert_eq!(a, checksum(&[1.0, 2.0]));
    }
}
