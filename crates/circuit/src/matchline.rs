//! CAM matchline discharge model.
//!
//! In a CAM row (Fig. 2A of the paper), the matchline is precharged and
//! every mismatching cell turns on a pull-down path. The line therefore
//! discharges with a rate proportional to the number of mismatches, which
//! is how best-match and threshold-match CAMs measure Hamming distance.
//!
//! This module computes discharge waveforms, sense margins between
//! adjacent mismatch counts, and the *mismatch limit* — the maximum number
//! of cells a matchline can carry before the sense amplifier can no longer
//! distinguish `m` from `m+1` mismatches (paper Sec. VI).

use crate::senseamp::SenseAmp;
use crate::tech::TechNode;
use xlda_num::memo::f64_key;
use xlda_num::memo_cache;

/// Electrical parameters of one CAM cell as seen by its matchline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchlineConfig {
    /// Pull-down conductance of a fully mismatching cell (S).
    pub g_on: f64,
    /// Residual leakage conductance of a matching cell (S).
    pub g_off: f64,
    /// Capacitance each cell adds to the matchline (F).
    pub c_cell: f64,
    /// Precharge voltage as a fraction of Vdd.
    pub precharge_frac: f64,
    /// Reference voltage (sensing threshold) as a fraction of precharge.
    pub v_ref_frac: f64,
}

impl Default for MatchlineConfig {
    /// Defaults representative of a 2-FeFET cell: ~20 µS on, 2 nS off,
    /// 0.2 fF per cell, full precharge, half-swing reference.
    fn default() -> Self {
        Self {
            g_on: 20e-6,
            g_off: 2e-9,
            c_cell: 0.2e-15,
            precharge_frac: 1.0,
            v_ref_frac: 0.5,
        }
    }
}

impl MatchlineConfig {
    /// Exact cache-key words for the five electrical parameters.
    fn key_words(&self) -> [u64; 5] {
        [
            f64_key(self.g_on),
            f64_key(self.g_off),
            f64_key(self.c_cell),
            f64_key(self.precharge_frac),
            f64_key(self.v_ref_frac),
        ]
    }
}

memo_cache!(
    static MAX_CELLS: ([u64; 5], u64, usize, u64) => Option<usize>,
    "circuit.matchline_max_cells"
);

/// A matchline carrying `cells` CAM cells in a given technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Matchline {
    config: MatchlineConfig,
    cells: usize,
    tech: TechNode,
    c_total: f64,
    v_pre: f64,
}

impl Matchline {
    /// Builds the matchline model.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0`, conductances are negative, `g_on <= g_off`,
    /// or fractions are outside `(0, 1]`.
    pub fn new(config: MatchlineConfig, tech: &TechNode, cells: usize) -> Self {
        assert!(cells > 0, "matchline needs at least one cell");
        assert!(config.g_on > 0.0 && config.g_off >= 0.0, "bad conductances");
        assert!(config.g_on > config.g_off, "on must exceed off conductance");
        assert!(
            config.precharge_frac > 0.0 && config.precharge_frac <= 1.0,
            "precharge fraction out of range"
        );
        assert!(
            config.v_ref_frac > 0.0 && config.v_ref_frac < 1.0,
            "reference fraction out of range"
        );
        // Wire capacitance: cells are pitched ~2F apart on the line.
        let pitch_m = 2.0 * tech.feature_m();
        let c_wire = tech.wire_c_per_um * (cells as f64 * pitch_m * 1e6);
        let sa = SenseAmp::voltage_latch(tech);
        let c_total = cells as f64 * config.c_cell + c_wire + sa.input_cap;
        let v_pre = config.precharge_frac * tech.vdd;
        Self {
            config,
            cells,
            tech: tech.clone(),
            c_total,
            v_pre,
        }
    }

    /// Number of cells on the line.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Total matchline capacitance (F).
    pub fn capacitance(&self) -> f64 {
        self.c_total
    }

    /// Precharge voltage (V).
    pub fn precharge_voltage(&self) -> f64 {
        self.v_pre
    }

    /// Total pull-down conductance with `mismatches` mismatching cells (S).
    ///
    /// # Panics
    ///
    /// Panics if `mismatches > cells`.
    pub fn conductance(&self, mismatches: usize) -> f64 {
        assert!(mismatches <= self.cells, "more mismatches than cells");
        mismatches as f64 * self.config.g_on + (self.cells - mismatches) as f64 * self.config.g_off
    }

    /// Matchline voltage at time `t` after evaluation starts (V).
    pub fn voltage_at(&self, t: f64, mismatches: usize) -> f64 {
        let g = self.conductance(mismatches);
        self.v_pre * (-t * g / self.c_total).exp()
    }

    /// Time (s) for the line to fall to the reference voltage with the
    /// given mismatch count. Returns `f64::INFINITY` when it never does
    /// (perfect match with zero leakage).
    pub fn discharge_time(&self, mismatches: usize) -> f64 {
        let g = self.conductance(mismatches);
        if g <= 0.0 {
            return f64::INFINITY;
        }
        (self.c_total / g) * (1.0 / self.config.v_ref_frac).ln()
    }

    /// Voltage margin (V) between `m` and `m+1` mismatches at sense time
    /// `t`: the differential a sense amp must resolve to count mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `m + 1 > cells`.
    pub fn voltage_margin(&self, t: f64, m: usize) -> f64 {
        self.voltage_at(t, m) - self.voltage_at(t, m + 1)
    }

    /// Sense time (s) that maximizes the margin between `m` and `m+1`
    /// mismatches.
    ///
    /// For `V0 (e^{-at} - e^{-bt})` the maximum lies at
    /// `t* = ln(b/a) / (b - a)`.
    pub fn best_sense_time(&self, m: usize) -> f64 {
        let a = self.conductance(m) / self.c_total;
        let b = self.conductance(m + 1) / self.c_total;
        if a <= 0.0 {
            // Perfect-match line never discharges: sense when the
            // 1-mismatch line has fallen to the reference.
            return self.discharge_time(m + 1);
        }
        (b / a).ln() / (b - a)
    }

    /// Best achievable margin (V) between `m` and `m+1` mismatches.
    pub fn best_margin(&self, m: usize) -> f64 {
        self.voltage_margin(self.best_sense_time(m), m)
    }

    /// The mismatch limit: largest mismatch count `m` such that the sense
    /// amplifier can still distinguish `m` from `m+1` on this line.
    ///
    /// Returns 0 when even 0-vs-1 cannot be resolved.
    pub fn mismatch_limit(&self, sa: &SenseAmp) -> usize {
        let mut limit = 0;
        for m in 0..self.cells {
            if self.best_margin(m) >= sa.min_resolvable {
                limit = m + 1;
            } else {
                break;
            }
        }
        limit
    }

    /// Largest number of cells per matchline such that mismatch counts up
    /// to `required_mismatches` remain distinguishable by `sa`.
    ///
    /// This is the array-width limit Eva-CAM derives for BE/TH match
    /// (paper Sec. VI). Returns `None` if even a 2-cell line fails.
    ///
    /// The search re-runs identically for every sweep point sharing a
    /// cell/technology/margin combination (typically the entire sweep
    /// axis over capacities), so the bound is memoized process-wide. The
    /// sense amplifier enters the limit only through its resolvable
    /// floor, which is all the key carries of it.
    pub fn max_cells_for(
        config: MatchlineConfig,
        tech: &TechNode,
        required_mismatches: usize,
        sa: &SenseAmp,
    ) -> Option<usize> {
        // Span on the miss path only: a hit is one lookup, and a span on
        // every lookup would cost a large part of it.
        MAX_CELLS.get_or_insert_with(
            (
                config.key_words(),
                tech.memo_key(),
                required_mismatches,
                f64_key(sa.min_resolvable),
            ),
            || {
                let _span = xlda_obs::span!("circuit.matchline");
                Self::max_cells_for_uncached(config, tech, required_mismatches, sa)
            },
        )
    }

    fn max_cells_for_uncached(
        config: MatchlineConfig,
        tech: &TechNode,
        required_mismatches: usize,
        sa: &SenseAmp,
    ) -> Option<usize> {
        // Geometric-then-binary search over cell count.
        let ok = |n: usize| {
            if n <= required_mismatches {
                return false;
            }
            let ml = Matchline::new(config, tech, n);
            ml.mismatch_limit(sa) >= required_mismatches
        };
        let mut hi = (required_mismatches + 1).max(2);
        if !ok(hi) {
            return None;
        }
        while hi <= 1 << 20 && ok(hi * 2) {
            hi *= 2;
        }
        let mut lo = hi;
        hi *= 2;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if ok(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Supply energy (J) of one search cycle on this line.
    ///
    /// The pull-down paths dissipate charge already stored on the line,
    /// so the supply only pays to restore the charge lost by the sense
    /// time: `E = C · (V_pre − V_end) · Vdd` per precharge-evaluate cycle.
    pub fn search_energy(&self, mismatches: usize, t_sense: f64) -> f64 {
        let v_end = self.voltage_at(t_sense, mismatches);
        self.c_total * (self.v_pre - v_end).max(0.0) * self.tech.vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ml(cells: usize) -> Matchline {
        Matchline::new(MatchlineConfig::default(), &TechNode::n40(), cells)
    }

    #[test]
    fn more_mismatches_discharge_faster() {
        let m = ml(64);
        assert!(m.discharge_time(2) < m.discharge_time(1));
        assert!(m.discharge_time(32) < m.discharge_time(2));
    }

    #[test]
    fn perfect_match_with_leak_is_slow_but_finite() {
        let m = ml(64);
        let t0 = m.discharge_time(0);
        assert!(t0.is_finite());
        assert!(t0 > 100.0 * m.discharge_time(1));
    }

    #[test]
    fn zero_leak_never_discharges() {
        let cfg = MatchlineConfig {
            g_off: 0.0,
            ..MatchlineConfig::default()
        };
        let m = Matchline::new(cfg, &TechNode::n40(), 64);
        assert_eq!(m.discharge_time(0), f64::INFINITY);
    }

    #[test]
    fn voltage_decays_monotonically() {
        let m = ml(32);
        let v1 = m.voltage_at(1e-10, 4);
        let v2 = m.voltage_at(2e-10, 4);
        assert!(v2 < v1);
        assert!(v1 < m.precharge_voltage());
    }

    #[test]
    fn best_sense_time_maximizes_margin() {
        let m = ml(64);
        let t_star = m.best_sense_time(3);
        let best = m.voltage_margin(t_star, 3);
        for t in [t_star * 0.5, t_star * 0.8, t_star * 1.2, t_star * 2.0] {
            assert!(m.voltage_margin(t, 3) <= best + 1e-12);
        }
    }

    #[test]
    fn margin_shrinks_with_mismatch_count() {
        // Distinguishing 10 vs 11 is harder than 1 vs 2.
        let m = ml(64);
        assert!(m.best_margin(10) < m.best_margin(1));
    }

    #[test]
    fn margin_shrinks_with_line_length() {
        let short = ml(32);
        let long = ml(512);
        assert!(long.best_margin(4) < short.best_margin(4));
    }

    #[test]
    fn mismatch_limit_decreases_with_cells() {
        let t = TechNode::n40();
        let sa = SenseAmp::voltage_latch(&t);
        let short = ml(32).mismatch_limit(&sa);
        let long = ml(1024).mismatch_limit(&sa);
        assert!(short >= long, "short {short} long {long}");
        assert!(short >= 1);
    }

    #[test]
    fn max_cells_gives_consistent_bound() {
        let t = TechNode::n40();
        let sa = SenseAmp::voltage_latch(&t);
        let cfg = MatchlineConfig::default();
        let n = Matchline::max_cells_for(cfg, &t, 4, &sa).expect("should support 4 mismatches");
        assert!(n >= 8);
        let at_limit = Matchline::new(cfg, &t, n);
        assert!(at_limit.mismatch_limit(&sa) >= 4);
        let beyond = Matchline::new(cfg, &t, n * 2);
        assert!(beyond.mismatch_limit(&sa) < 4);
    }

    #[test]
    fn low_on_off_ratio_hits_limit_sooner() {
        // MRAM-like on/off ~ 2-3 versus FeFET-like 1e4.
        let t = TechNode::n40();
        let sa = SenseAmp::voltage_latch(&t);
        let good = MatchlineConfig::default();
        let bad = MatchlineConfig {
            g_on: 20e-6,
            g_off: 8e-6,
            ..good
        };
        let n_good = Matchline::max_cells_for(good, &t, 2, &sa).unwrap_or(0);
        let n_bad = Matchline::max_cells_for(bad, &t, 2, &sa).unwrap_or(0);
        assert!(n_bad < n_good, "bad {n_bad} good {n_good}");
    }

    #[test]
    fn search_energy_increases_with_mismatches() {
        let m = ml(64);
        let t = m.discharge_time(1);
        assert!(m.search_energy(8, t) > m.search_energy(0, t));
    }

    #[test]
    #[should_panic(expected = "more mismatches than cells")]
    fn too_many_mismatches_panics() {
        ml(8).conductance(9);
    }
}
