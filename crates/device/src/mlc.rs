//! Multi-level cell programming and readout.
//!
//! Storing `b` bits in one device means placing its state variable (FeFET
//! threshold voltage, RRAM conductance, ...) onto one of `2^b` target
//! levels. Real programming lands near the target with some spread; when
//! spreads of adjacent levels overlap, read errors appear (paper
//! Fig. 3G-i). This module provides the shared machinery: level grids,
//! Gaussian programming, nearest-level readout, and analytical
//! error-rate computation.

use xlda_num::rng::{NormalSampler, Rng64};
use xlda_num::stats::{gaussian_overlap_error, Histogram};

/// What physical quantity the levels represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateVariable {
    /// Threshold voltage (V) — three-terminal devices (FeFET, flash).
    ThresholdVoltage,
    /// Conductance (S) — two-terminal resistive devices.
    Conductance,
}

/// A multi-level cell: `2^bits` target levels with Gaussian programming
/// spread.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelCell {
    variable: StateVariable,
    levels: Vec<f64>,
    sigma: f64,
}

impl MultiLevelCell {
    /// Creates a cell with levels spaced uniformly across
    /// `[window_lo, window_hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `bits > 4`, the window is empty, or `sigma`
    /// is negative.
    pub fn uniform(
        variable: StateVariable,
        bits: u8,
        window_lo: f64,
        window_hi: f64,
        sigma: f64,
    ) -> Self {
        assert!((1..=4).contains(&bits), "1..=4 bits per cell supported");
        assert!(window_lo < window_hi, "window must be non-empty");
        assert!(sigma >= 0.0, "negative sigma");
        let n = 1usize << bits;
        let levels = (0..n)
            .map(|i| window_lo + (window_hi - window_lo) * i as f64 / (n - 1) as f64)
            .collect();
        Self {
            variable,
            levels,
            sigma,
        }
    }

    /// Creates a cell from explicit level targets (ascending).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 levels, levels are not strictly ascending,
    /// or `sigma` is negative.
    pub fn from_levels(variable: StateVariable, levels: Vec<f64>, sigma: f64) -> Self {
        assert!(levels.len() >= 2, "need at least two levels");
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly ascending"
        );
        assert!(sigma >= 0.0, "negative sigma");
        Self {
            variable,
            levels,
            sigma,
        }
    }

    /// The physical quantity being programmed.
    pub fn variable(&self) -> StateVariable {
        self.variable
    }

    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Bits stored per cell (`floor(log2(levels))`).
    pub fn bits(&self) -> u8 {
        (usize::BITS - 1 - self.levels.len().leading_zeros()) as u8
    }

    /// Target value of level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level_target(&self, i: usize) -> f64 {
        self.levels[i]
    }

    /// All level targets.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Programming spread (one standard deviation).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Returns a copy with a different programming spread.
    ///
    /// Used for the Fig. 3G sigma sweep.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_sigma(&self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "negative sigma");
        Self {
            sigma,
            ..self.clone()
        }
    }

    /// Spacing between adjacent levels (the "window" per state).
    pub fn min_level_spacing(&self) -> f64 {
        self.levels
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min)
    }

    /// Programs level `i`, returning the analog value actually written
    /// (target plus Gaussian programming error drawn from `rng`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn program<R: NormalSampler + ?Sized>(&self, i: usize, rng: &mut R) -> f64 {
        assert!(i < self.levels.len(), "level out of range");
        rng.normal(self.levels[i], self.sigma)
    }

    /// Reads back the nearest level index for an analog value.
    pub fn read_level(&self, analog: f64) -> usize {
        // Levels are ascending; nearest-target decision = midpoint slicing.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &l) in self.levels.iter().enumerate() {
            let d = (analog - l).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Programs then reads, returning the (possibly wrong) readout level.
    pub fn program_read(&self, i: usize, rng: &mut Rng64) -> usize {
        self.read_level(self.program(i, rng))
    }

    /// Program-and-verify: re-programs until the written value lands
    /// within `tolerance` of the target, up to `max_iters` attempts
    /// (returning the last attempt if none succeeds). This is the
    /// standard closed-loop MLC write scheme; it truncates the
    /// programming distribution at the verify tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, `tolerance` is negative, or
    /// `max_iters == 0`.
    pub fn program_verified(
        &self,
        i: usize,
        tolerance: f64,
        max_iters: usize,
        rng: &mut Rng64,
    ) -> f64 {
        assert!(tolerance >= 0.0, "negative tolerance");
        assert!(max_iters > 0, "need at least one attempt");
        let target = self.level_target(i);
        let mut value = self.program(i, rng);
        for _ in 1..max_iters {
            if (value - target).abs() <= tolerance {
                break;
            }
            value = self.program(i, rng);
        }
        value
    }

    /// Analytical probability that programming level `i` reads back as a
    /// different level (single-sided Gaussian tail across each adjacent
    /// midpoint).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level_error_rate(&self, i: usize) -> f64 {
        assert!(i < self.levels.len(), "level out of range");
        let mut p = 0.0;
        if i > 0 {
            p += gaussian_overlap_error(self.levels[i - 1], self.levels[i], self.sigma);
        }
        if i + 1 < self.levels.len() {
            p += gaussian_overlap_error(self.levels[i], self.levels[i + 1], self.sigma);
        }
        p.min(1.0)
    }

    /// Worst-case level error rate across all levels.
    pub fn max_error_rate(&self) -> f64 {
        (0..self.levels.len())
            .map(|i| self.level_error_rate(i))
            .fold(0.0, f64::max)
    }

    /// Monte-Carlo histogram of programmed analog values for level `i`
    /// (the Fig. 3G-i state-distribution plot).
    pub fn state_histogram(
        &self,
        i: usize,
        samples: usize,
        bins: usize,
        rng: &mut Rng64,
    ) -> Histogram {
        let _obs = xlda_obs::span!("device.state_histogram");
        let span = self.levels[self.levels.len() - 1] - self.levels[0];
        let lo = self.levels[0] - 0.25 * span - 4.0 * self.sigma;
        let hi = self.levels[self.levels.len() - 1] + 0.25 * span + 4.0 * self.sigma;
        let mut h = Histogram::new(lo, hi, bins);
        for _ in 0..samples {
            h.add(self.program(i, rng));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bits: u8, sigma: f64) -> MultiLevelCell {
        // FeFET-like: 1.2 V memory window starting at 0.4 V.
        MultiLevelCell::uniform(StateVariable::ThresholdVoltage, bits, 0.4, 1.6, sigma)
    }

    #[test]
    fn uniform_level_grid() {
        let c = cell(2, 0.0);
        assert_eq!(c.level_count(), 4);
        assert_eq!(c.bits(), 2);
        assert!((c.level_target(0) - 0.4).abs() < 1e-12);
        assert!((c.level_target(3) - 1.6).abs() < 1e-12);
        assert!((c.min_level_spacing() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_sigma_reads_back_exactly() {
        let c = cell(3, 0.0);
        let mut rng = Rng64::new(1);
        for i in 0..8 {
            assert_eq!(c.program_read(i, &mut rng), i);
        }
    }

    #[test]
    fn small_sigma_rarely_errors() {
        let c = cell(3, 0.010); // 10 mV against ~171 mV spacing
        let mut rng = Rng64::new(2);
        let mut errors = 0;
        for _ in 0..2000 {
            let lvl = rng.index(8);
            if c.program_read(lvl, &mut rng) != lvl {
                errors += 1;
            }
        }
        assert!(errors < 5, "{errors} errors");
    }

    #[test]
    fn paper_sigma_94mv_overlaps_for_3bit() {
        // The paper's measured sigma (94 mV) visibly overlaps adjacent
        // 3-bit states (spacing ~171 mV) — Fig. 3G-i.
        let c = cell(3, 0.094);
        assert!(c.max_error_rate() > 0.1);
        // ...while 1-bit cells (spacing 1.2 V) remain clean.
        let c1 = cell(1, 0.094);
        assert!(c1.max_error_rate() < 1e-9);
    }

    #[test]
    fn error_rate_monotone_in_sigma() {
        let lo = cell(2, 0.02).max_error_rate();
        let hi = cell(2, 0.15).max_error_rate();
        assert!(hi > lo);
    }

    #[test]
    fn interior_levels_err_more_than_edges() {
        let c = cell(2, 0.1);
        assert!(c.level_error_rate(1) > c.level_error_rate(0));
        assert!(c.level_error_rate(2) > c.level_error_rate(3));
    }

    #[test]
    fn monte_carlo_matches_analytical() {
        let c = cell(2, 0.08);
        let mut rng = Rng64::new(7);
        let lvl = 1;
        let trials = 40_000;
        let mut errs = 0;
        for _ in 0..trials {
            if c.program_read(lvl, &mut rng) != lvl {
                errs += 1;
            }
        }
        let mc = errs as f64 / trials as f64;
        let analytical = c.level_error_rate(lvl);
        assert!(
            (mc - analytical).abs() < 0.01,
            "mc {mc} vs analytical {analytical}"
        );
    }

    #[test]
    fn histogram_centers_on_target() {
        let c = cell(1, 0.05);
        let mut rng = Rng64::new(9);
        let h = c.state_histogram(1, 5000, 64, &mut rng);
        // Find the modal bin; it should sit near the level-1 target (1.6).
        let (mode, _) = h
            .counts()
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("non-empty");
        assert!((h.bin_center(mode) - 1.6).abs() < 0.1);
    }

    #[test]
    fn with_sigma_replaces_spread() {
        let c = cell(2, 0.05).with_sigma(0.2);
        assert_eq!(c.sigma(), 0.2);
        assert_eq!(c.level_count(), 4);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_levels_panic() {
        MultiLevelCell::from_levels(StateVariable::Conductance, vec![1.0, 0.5], 0.0);
    }
}
