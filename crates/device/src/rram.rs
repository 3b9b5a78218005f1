//! Resistive RAM device model.
//!
//! Models the Ta/TaO_x/Pt valence-change devices of the paper's few-shot
//! learning case study (Sec. IV), including the three non-idealities that
//! study turns into design levers:
//!
//! 1. **State-dependent programming variation** — there is a conductance
//!    region where variation is substantially larger; TCAM mappings avoid
//!    it ([`Rram::mlc_avoiding_variation`]).
//! 2. **Broad, stochastic HRS distributions** — device-to-device spread is
//!    larger in the high-resistance state, which is *exploited* to realize
//!    the random projection matrices of in-memory LSH
//!    ([`Rram::sample_stochastic_hrs`]).
//! 3. **Conductance relaxation** — programmed conductances fluctuate over
//!    time, flipping hash bits near decision boundaries
//!    ([`Rram::relax`]); the ternary LSH scheme of Fig. 4C suppresses the
//!    resulting errors.

use crate::mlc::{MultiLevelCell, StateVariable};
use crate::{DeviceKind, MemoryDevice};
use xlda_num::rng::{NormalSampler, Rng64};

/// Error from the fallible RRAM state-evolution entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RramError {
    /// Relaxation was asked to run over a negative or non-finite number
    /// of time decades. `decades.sqrt()` would silently turn a negative
    /// elapsed time into NaN conductance, so the input is rejected here.
    InvalidRelaxTime {
        /// The offending elapsed-time exponent.
        decades: f64,
    },
}

impl std::fmt::Display for RramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidRelaxTime { decades } => {
                write!(f, "invalid relaxation time: {decades} decades")
            }
        }
    }
}

impl std::error::Error for RramError {}

/// Analytical RRAM model.
#[derive(Debug, Clone, PartialEq)]
pub struct Rram {
    flavor: &'static str,
    /// Minimum programmable conductance (deep HRS, S).
    pub g_min: f64,
    /// Maximum programmable conductance (strong LRS, S).
    pub g_max: f64,
    /// Baseline programming spread as a fraction of the target.
    pub sigma_rel_base: f64,
    /// Extra absolute spread (S) at the center of the high-variation
    /// conductance region.
    pub sigma_hump: f64,
    /// Center of the high-variation region (S).
    pub hump_center: f64,
    /// Width of the high-variation region (S).
    pub hump_width: f64,
    /// One-sigma conductance relaxation amplitude per decade of time,
    /// as a fraction of the programmed value.
    pub relax_rel: f64,
    write_voltage: f64,
    write_latency: f64,
    write_energy: f64,
    read_voltage: f64,
    endurance: f64,
    retention: f64,
    cell_area_f2: f64,
}

impl Rram {
    /// Ta/TaO_x/Pt preset matching the prototype scale of the paper's
    /// MANN demonstration (Sec. IV).
    pub fn taox() -> Self {
        Self {
            flavor: "TaOx-RRAM",
            g_min: 2e-6,
            g_max: 200e-6,
            sigma_rel_base: 0.04,
            sigma_hump: 6e-6,
            hump_center: 60e-6,
            hump_width: 25e-6,
            relax_rel: 0.05,
            write_voltage: 2.0,
            write_latency: 50e-9,
            write_energy: 1e-12,
            read_voltage: 0.2,
            endurance: 1e8,
            retention: 3.0 * 365.25 * 86400.0,
            cell_area_f2: 4.0,
        }
    }

    /// HfO_x preset (denser window, slightly different variation profile).
    pub fn hfox() -> Self {
        Self {
            flavor: "HfOx-RRAM",
            g_min: 1e-6,
            g_max: 150e-6,
            sigma_rel_base: 0.05,
            sigma_hump: 5e-6,
            hump_center: 45e-6,
            hump_width: 20e-6,
            relax_rel: 0.06,
            write_voltage: 1.8,
            write_latency: 30e-9,
            write_energy: 0.8e-12,
            read_voltage: 0.2,
            endurance: 1e7,
            retention: 3.0 * 365.25 * 86400.0,
            cell_area_f2: 4.0,
        }
    }

    /// One-sigma programming spread (S) when targeting conductance `g`.
    ///
    /// The spread has a baseline proportional to the target plus a bump in
    /// the high-variation region — the statistical array-model behaviour
    /// described in Sec. IV.
    pub fn programming_sigma(&self, g: f64) -> f64 {
        let rel = self.sigma_rel_base * g;
        let z = (g - self.hump_center) / self.hump_width;
        rel + self.sigma_hump * (-z * z).exp()
    }

    /// Programs a target conductance, returning the value actually
    /// written (clipped to the physical window).
    ///
    /// # Panics
    ///
    /// Panics if `g_target` lies outside the programmable window.
    pub fn program(&self, g_target: f64, rng: &mut Rng64) -> f64 {
        assert!(
            (self.g_min..=self.g_max).contains(&g_target),
            "target outside programmable window"
        );
        let sigma = self.programming_sigma(g_target);
        rng.normal(g_target, sigma).clamp(self.g_min, self.g_max)
    }

    /// Applies conductance relaxation over `decades` decades of elapsed
    /// time (e.g. 1.0 for 10× the programming time), returning the drifted
    /// conductance.
    ///
    /// # Panics
    ///
    /// Panics if `decades` is negative or non-finite; use
    /// [`try_relax`](Rram::try_relax) for the fallible form.
    pub fn relax(&self, g: f64, decades: f64, rng: &mut Rng64) -> f64 {
        self.try_relax(g, decades, rng)
            .expect("negative or non-finite relaxation time")
    }

    /// Fallible [`relax`](Rram::relax): rejects negative or non-finite
    /// `decades` instead of letting `decades.sqrt()` poison the
    /// conductance with NaN.
    pub fn try_relax<R: NormalSampler + ?Sized>(
        &self,
        g: f64,
        decades: f64,
        rng: &mut R,
    ) -> Result<f64, RramError> {
        Ok(self.relaxation(decades)?.sample(g, rng))
    }

    /// The relaxation [`try_relax`](Rram::try_relax) applies after
    /// `decades` decades, validated and with `decades.sqrt()` taken once:
    /// loops that relax many conductances over one elapsed time take this
    /// once and sample from it.
    ///
    /// # Errors
    ///
    /// [`RramError::InvalidRelaxTime`] if `decades` is negative or not
    /// finite.
    pub fn relaxation(&self, decades: f64) -> Result<Relaxation, RramError> {
        if !decades.is_finite() || decades < 0.0 {
            return Err(RramError::InvalidRelaxTime { decades });
        }
        Ok(Relaxation {
            relax_rel: self.relax_rel,
            sqrt_decades: decades.sqrt(),
            g_min: self.g_min,
            g_max: self.g_max,
        })
    }

    /// Samples a device-to-device stochastic HRS conductance.
    ///
    /// HRS distributions are broad and right-skewed (log-normal); the
    /// in-memory LSH scheme uses an array of such as-fabricated devices as
    /// a zero-mean-adjustable random projection matrix.
    pub fn sample_stochastic_hrs(&self, rng: &mut Rng64) -> f64 {
        self.hrs_sampler().sample(rng)
    }

    /// The distribution [`sample_stochastic_hrs`](Rram::sample_stochastic_hrs)
    /// draws from, with its log-mean computed once: loops that draw many
    /// conductances from one device take this once and sample from it.
    pub fn hrs_sampler(&self) -> HrsSampler {
        HrsSampler {
            mu: (4.0 * self.g_min).ln(),
            g_min: self.g_min,
            g_max: self.g_max,
        }
    }

    /// Multi-level cell over the full conductance window (naive uniform
    /// mapping).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=4`.
    pub fn mlc(&self, bits: u8) -> MultiLevelCell {
        let _span = xlda_obs::span!("device.mlc");
        let cell = MultiLevelCell::uniform(
            StateVariable::Conductance,
            bits,
            self.g_min,
            self.g_max,
            0.0,
        );
        // Use the worst-case sigma across the chosen levels.
        let sigma = cell
            .levels()
            .iter()
            .map(|&g| self.programming_sigma(g))
            .fold(0.0, f64::max);
        cell.with_sigma(sigma)
    }

    /// Multi-level cell whose levels are mapped *away* from the
    /// high-variation conductance region while also keeping conductances
    /// low to limit IR drop — the co-optimization of Sec. IV.
    ///
    /// Levels are placed uniformly below the hump region (capped at
    /// `hump_center - hump_width`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=4`.
    pub fn mlc_avoiding_variation(&self, bits: u8) -> MultiLevelCell {
        let _span = xlda_obs::span!("device.mlc");
        let hi = (self.hump_center - self.hump_width).max(2.0 * self.g_min);
        let cell = MultiLevelCell::uniform(StateVariable::Conductance, bits, self.g_min, hi, 0.0);
        let sigma = cell
            .levels()
            .iter()
            .map(|&g| self.programming_sigma(g))
            .fold(0.0, f64::max);
        cell.with_sigma(sigma)
    }

    /// A stable 64-bit digest of every model parameter, used as the
    /// device component of cross-sweep memo-cache keys (see
    /// `xlda_num::memo`). Devices differing in any parameter get
    /// distinct keys; presets hash identically across the process.
    pub fn memo_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.flavor.hash(&mut h);
        for v in [
            self.g_min,
            self.g_max,
            self.sigma_rel_base,
            self.sigma_hump,
            self.hump_center,
            self.hump_width,
            self.relax_rel,
            self.write_voltage,
            self.write_latency,
            self.write_energy,
            self.read_voltage,
            self.endurance,
            self.retention,
            self.cell_area_f2,
        ] {
            h.write_u64(v.to_bits());
        }
        h.finish()
    }
}

/// One device's stochastic HRS conductance distribution: log-normal
/// around `4 g_min` with a log-sigma of 0.6, clipped to the programmable
/// window. Built by [`Rram::hrs_sampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrsSampler {
    mu: f64,
    g_min: f64,
    g_max: f64,
}

impl HrsSampler {
    /// Draws one conductance (S).
    pub fn sample<R: NormalSampler + ?Sized>(&self, rng: &mut R) -> f64 {
        let g = rng.log_normal(self.mu, 0.6);
        g.clamp(self.g_min, self.g_max)
    }
}

/// One device's conductance relaxation over a fixed elapsed time: a
/// normal drift with one-sigma `relax_rel · g · sqrt(decades)`, clipped
/// to the programmable window. Built by [`Rram::relaxation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relaxation {
    relax_rel: f64,
    sqrt_decades: f64,
    g_min: f64,
    g_max: f64,
}

impl Relaxation {
    /// The relaxed value of conductance `g` (S).
    pub fn sample<R: NormalSampler + ?Sized>(&self, g: f64, rng: &mut R) -> f64 {
        let sigma = self.relax_rel * g * self.sqrt_decades;
        rng.normal(g, sigma).clamp(self.g_min, self.g_max)
    }
}

impl MemoryDevice for Rram {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Rram
    }

    fn terminals(&self) -> u8 {
        2
    }

    fn g_on(&self) -> f64 {
        self.g_max
    }

    fn g_off(&self) -> f64 {
        self.g_min
    }

    fn write_voltage(&self) -> f64 {
        self.write_voltage
    }

    fn write_latency(&self) -> f64 {
        self.write_latency
    }

    fn write_energy(&self) -> f64 {
        self.write_energy
    }

    fn read_voltage(&self) -> f64 {
        self.read_voltage
    }

    fn endurance(&self) -> f64 {
        self.endurance
    }

    fn retention(&self) -> f64 {
        self.retention
    }

    fn cell_area_f2(&self) -> f64 {
        self.cell_area_f2
    }

    fn max_bits_per_cell(&self) -> u8 {
        3
    }

    fn name(&self) -> &str {
        self.flavor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_num::stats::{mean, std_dev};

    #[test]
    fn sigma_peaks_in_hump_region() {
        let d = Rram::taox();
        let at_hump = d.programming_sigma(d.hump_center);
        let low = d.programming_sigma(d.g_min * 2.0);
        let high = d.programming_sigma(d.g_max);
        assert!(at_hump > low, "hump {at_hump} low {low}");
        // Relative variation at the hump exceeds relative variation in LRS.
        assert!(at_hump / d.hump_center > high / d.g_max);
    }

    #[test]
    fn program_is_clipped_and_unbiased() {
        let d = Rram::taox();
        let mut rng = Rng64::new(1);
        let target = 30e-6;
        let samples: Vec<f64> = (0..20_000).map(|_| d.program(target, &mut rng)).collect();
        assert!(samples.iter().all(|&g| (d.g_min..=d.g_max).contains(&g)));
        assert!((mean(&samples) - target).abs() < 0.02 * target);
        let sd = std_dev(&samples);
        let expect = d.programming_sigma(target);
        assert!(
            (sd - expect).abs() < 0.1 * expect,
            "sd {sd} expect {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "outside programmable window")]
    fn program_out_of_window_panics() {
        let d = Rram::taox();
        d.program(1.0, &mut Rng64::new(0));
    }

    #[test]
    fn relaxation_spreads_with_time() {
        let d = Rram::taox();
        let g = 50e-6;
        let mut rng = Rng64::new(2);
        let short: Vec<f64> = (0..5000).map(|_| d.relax(g, 0.5, &mut rng)).collect();
        let long: Vec<f64> = (0..5000).map(|_| d.relax(g, 4.0, &mut rng)).collect();
        assert!(std_dev(&long) > std_dev(&short));
        // Zero elapsed time leaves the state untouched.
        assert_eq!(d.relax(g, 0.0, &mut rng), g);
    }

    #[test]
    fn negative_or_non_finite_decades_is_a_typed_error() {
        let d = Rram::taox();
        let mut rng = Rng64::new(4);
        // Pre-fix, a negative time reached `decades.sqrt()` and produced
        // NaN sigma with no error; now it is rejected up front.
        assert_eq!(
            d.try_relax(50e-6, -1.0, &mut rng),
            Err(RramError::InvalidRelaxTime { decades: -1.0 })
        );
        assert!(d.try_relax(50e-6, f64::NAN, &mut rng).is_err());
        assert!(d.try_relax(50e-6, f64::INFINITY, &mut rng).is_err());
        let ok = d.try_relax(50e-6, 1.0, &mut rng).unwrap();
        assert!((d.g_min..=d.g_max).contains(&ok));
    }

    #[test]
    fn stochastic_hrs_is_broad_and_low() {
        let d = Rram::taox();
        let mut rng = Rng64::new(3);
        let gs: Vec<f64> = (0..10_000)
            .map(|_| d.sample_stochastic_hrs(&mut rng))
            .collect();
        let m = mean(&gs);
        // Sits in the high-resistance half of the window...
        assert!(m < 0.2 * d.g_max, "mean {m}");
        // ...with large relative spread (that's the point).
        assert!(std_dev(&gs) / m > 0.3);
    }

    #[test]
    fn variation_aware_mapping_has_lower_error() {
        let d = Rram::taox();
        let naive = d.mlc(2);
        let tuned = d.mlc_avoiding_variation(2);
        // The tuned mapping trades window for spread; its worst-case sigma
        // must be smaller.
        assert!(tuned.sigma() < naive.sigma());
        // And it avoids the hump region entirely.
        assert!(tuned
            .levels()
            .iter()
            .all(|&g| g <= d.hump_center - d.hump_width + 1e-12));
    }

    #[test]
    fn interface_foms() {
        let d = Rram::taox();
        assert_eq!(d.kind(), DeviceKind::Rram);
        assert_eq!(d.terminals(), 2);
        assert!(d.on_off_ratio() >= 50.0);
        assert_eq!(d.name(), "TaOx-RRAM");
    }
}
