//! Deterministic pseudo-random number generation.
//!
//! The stack runs many Monte-Carlo experiments (device variation injection,
//! stochastic RRAM programming, synthetic dataset generation). All of them
//! must be reproducible from a single seed, independent of external crate
//! versions, so we implement xoshiro256\*\* (Blackman & Vigna) directly.

/// A deterministic xoshiro256\*\* generator seeded through SplitMix64.
///
/// # Examples
///
/// ```
/// use xlda_num::rng::Rng64;
///
/// let mut a = Rng64::new(7);
/// let mut b = Rng64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded into the 256-bit xoshiro state with SplitMix64,
    /// so nearby seeds still produce uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        Self {
            state,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Useful to give each worker thread or each array instance its own
    /// stream while keeping the whole experiment a function of one seed.
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64())
    }

    /// Derives the stream for one Monte-Carlo trial from `(seed, trial)`.
    ///
    /// The pair is folded through a SplitMix64-style finalizer before the
    /// usual state expansion, so nearby trial indices land on uncorrelated
    /// streams. Because the stream depends only on the experiment seed and
    /// the *global* trial index — never on which chunk or worker draws it —
    /// batched Monte-Carlo results are bit-identical under any
    /// chunking/scheduling of the trial range.
    pub fn for_trial(seed: u64, trial: u64) -> Self {
        let mut z = seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::new(z ^ (z >> 31) ^ trial)
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)` (`lo` itself when the range is empty).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        let x = lo + (hi - lo) * self.uniform();
        // `lo + (hi - lo) * u` can round up to exactly `hi` even though
        // u < 1 (e.g. lo = 1, hi = 2, u = 1 - 2^-53 rounds to even), which
        // would break the half-open contract; step back one ulp instead.
        if x >= hi && lo < hi {
            next_down(hi).max(lo)
        } else {
            x
        }
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection-free most of the time; loop guards against modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0) by drawing from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        NormalSampler::normal(self, mean, sigma)
    }

    /// Log-normal sample: `exp(N(mu, sigma))`.
    ///
    /// Used for conductance distributions, which are strictly positive and
    /// right-skewed in measured RRAM data.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        NormalSampler::log_normal(self, mu, sigma)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (order unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        // Partial Fisher-Yates over an index vector; fine for the sizes used
        // in episode sampling (n up to a few thousand).
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Fills a vector with standard-normal samples.
    pub fn normal_vec(&mut self, len: usize, mean: f64, sigma: f64) -> Vec<f64> {
        (0..len).map(|_| self.normal(mean, sigma)).collect()
    }

    /// Fills a vector with Rademacher (+1/-1) samples.
    pub fn bipolar_vec(&mut self, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| if self.chance(0.5) { 1.0 } else { -1.0 })
            .collect()
    }
}

/// A source of normal draws: the sampler the device formulas take as a
/// parameter.
///
/// A plain [`Rng64`] draws by Box–Muller, which every simulator and
/// reproduction binary uses; a Monte-Carlo trial stream
/// ([`crate::trial::TrialRng`]) draws by ziggurat. Both derive `normal`
/// and `log_normal` from `standard_normal` by the same formulas.
pub trait NormalSampler {
    /// One draw from N(0, 1).
    fn standard_normal(&mut self) -> f64;

    /// One draw from N(`mean`, `sigma`²).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "negative sigma");
        mean + sigma * self.standard_normal()
    }

    /// One log-normal draw: `exp(N(mu, sigma))`.
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

impl NormalSampler for Rng64 {
    fn standard_normal(&mut self) -> f64 {
        Rng64::standard_normal(self)
    }
}

impl Default for Rng64 {
    fn default() -> Self {
        Self::new(0xD1E5_EED5)
    }
}

/// The largest `f64` strictly below a finite `x`.
fn next_down(x: f64) -> f64 {
    debug_assert!(x.is_finite());
    if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else if x < 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        // Below both 0.0 and -0.0 sits the smallest negative subnormal.
        f64::from_bits(0x8000_0000_0000_0001)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::new(5);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng64::new(9);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.uniform()).collect();
        assert!((mean(&xs) - 0.5).abs() < 0.01);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng64::new(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(21);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.normal(3.0, 2.0)).collect();
        assert!((mean(&xs) - 3.0).abs() < 0.05);
        assert!((std_dev(&xs) - 2.0).abs() < 0.05);
    }

    #[test]
    fn log_normal_positive() {
        let mut rng = Rng64::new(33);
        for _ in 0..1000 {
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng64::new(44);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(55);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(66);
        let idx = rng.sample_indices(50, 20);
        assert_eq!(idx.len(), 20);
        let mut s = idx.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn uniform_in_never_returns_hi() {
        // Adversarial pair: hi is one ulp above lo, so before the fix
        // roughly half of all draws (any u > 0.5) rounded up to exactly
        // `hi`, violating the documented half-open contract.
        let lo = 1.0_f64;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let mut rng = Rng64::new(2024);
        for _ in 0..200 {
            let x = rng.uniform_in(lo, hi);
            assert!(x >= lo && x < hi, "got {x:?} outside [{lo:?}, {hi:?})");
        }
        // Wide ranges keep the straight affine map.
        for _ in 0..1000 {
            let x = rng.uniform_in(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&x));
        }
        // Empty range degenerates to lo.
        assert_eq!(rng.uniform_in(2.5, 2.5), 2.5);
    }

    #[test]
    fn trial_streams_are_deterministic_and_distinct() {
        let mut a = Rng64::for_trial(42, 17);
        let mut b = Rng64::for_trial(42, 17);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Adjacent trials and adjacent seeds must decorrelate.
        let mut c = Rng64::for_trial(42, 18);
        let mut d = Rng64::for_trial(43, 17);
        let x = Rng64::for_trial(42, 17).next_u64();
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng64::new(77);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn bipolar_is_balanced() {
        let mut rng = Rng64::new(88);
        let v = rng.bipolar_vec(10_000);
        let s: f64 = v.iter().sum();
        assert!(s.abs() < 300.0);
        assert!(v.iter().all(|&x| x == 1.0 || x == -1.0));
    }
}
