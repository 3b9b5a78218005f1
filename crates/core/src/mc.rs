//! Variation-aware Monte-Carlo scenario kinds.
//!
//! Deterministic grids answer "what is this design's FOM"; the paper's
//! predictive claims also need "what is the *distribution* of outcomes
//! over device variation". This module adds that workload class behind
//! the same [`Scenario`] trait every consumer already dispatches on:
//!
//! - [`CamYieldMcScenario`] — yield-aware CAM sizing: the distribution of
//!   matchline sensing margins under per-cell conductance variation, plus
//!   the variation-aware array-width limit.
//! - [`MannAccuracyMcScenario`] — MANN retrieval-accuracy distributions
//!   when the in-memory LSH projection suffers conductance relaxation and
//!   read noise (the Sec. IV non-idealities).
//! - [`NvmLifetimeMcScenario`] — NVM lifetime and V_th percentiles over
//!   endurance spread, wear-leveling variation, and programming noise.
//!
//! Each scenario returns [`McDistribution`] summaries (mean/σ/p5/p50/p95,
//! yield fraction) instead of a single deterministic FOM, with
//! quantile-derived [`Candidate`]s so the triage/sweep/bench consumers
//! that only understand candidates still get a meaningful view.
//!
//! # Determinism
//!
//! The engine ([`run_trials_with`]) splits the trial range into
//! structure-of-arrays batches ([`TrialBatch`]) and schedules them with
//! the fallible sweep engine. Every trial's RNG stream is derived from
//! `(seed, global_trial_index)` ([`xlda_num::rng::Rng64::for_trial`]) and
//! each trial consumes only its own stream in a fixed per-column order,
//! so results are bit-identical for any batch size, worker count, or
//! schedule — pinned by the chunking-invariance tests and the bench
//! checksum gate, but true by construction.
//!
//! # Sampler
//!
//! Trial streams draw their normals by ziggurat
//! ([`xlda_num::trial::Ziggurat`]), not by the Box–Muller transform the
//! simulators use. The device formulas take the trial stream as their
//! sampler. A statistical gate in this module's tests holds every kind's
//! mean, σ, percentiles and yield within sampling error of a Box–Muller
//! population run through the same trial bodies.

use crate::error::{validate_fom, XldaError};
use crate::evaluate::{Evaluation, Scenario};
use crate::fom::{Candidate, Fom};
use crate::store::{Digest, DigestWriter};
use crate::sweep::{par_try_map, PointFailure, SweepOptions};
use xlda_circuit::matchline::MatchlineConfig;
use xlda_device::mlc::{MultiLevelCell, StateVariable};
use xlda_device::rram::Rram;
use xlda_device::MemoryDevice;
use xlda_evacam::variation::{max_cells_with_variation, CellVariation};
use xlda_num::rng::NormalSampler;
use xlda_num::trial::{
    checksum, summarize, yield_fraction, NormalMethod, Summary, TrialBatch, Ziggurat,
};

/// Default trials per batch when [`McParams::batch`] is 0: large enough
/// to amortize dispatch, small enough that a 1-core smoke run still
/// exercises multiple batches.
pub const DEFAULT_BATCH: usize = 256;

/// Monte-Carlo population controls shared by every MC scenario kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McParams {
    /// Trial population size.
    pub trials: usize,
    /// Experiment seed; together with the global trial index it fully
    /// determines every draw.
    pub seed: u64,
    /// Trials per structure-of-arrays batch (0 = [`DEFAULT_BATCH`]).
    /// Any value produces bit-identical results; this only tunes
    /// scheduling granularity.
    pub batch: usize,
    /// Worker threads for the trial sweep. Defaults to 1 because the
    /// outer consumers (sweep grids, the serve worker pool) already
    /// provide the parallelism; set 0 for all cores when running one
    /// deep scenario standalone.
    pub threads: usize,
}

impl Default for McParams {
    fn default() -> Self {
        Self {
            trials: 2048,
            seed: 0xA11CE,
            batch: 0,
            threads: 1,
        }
    }
}

impl McParams {
    fn sweep_opts(&self) -> SweepOptions {
        SweepOptions::builder().threads(self.threads).build()
    }

    fn validate(&self, stage: &'static str) -> Result<(), XldaError> {
        if self.trials == 0 {
            return Err(XldaError::NonFinite {
                stage,
                quantity: "trial population (zero trials)",
            });
        }
        Ok(())
    }
}

/// One Monte-Carlo outcome distribution: the digest a scenario returns
/// instead of a deterministic FOM.
#[derive(Debug, Clone, PartialEq)]
pub struct McDistribution {
    /// Outcome name (`"matchline_margin"`, `"accuracy"`, …).
    pub name: &'static str,
    /// Physical unit of the samples.
    pub unit: &'static str,
    /// Human-readable pass criterion behind [`yield_fraction`].
    ///
    /// [`yield_fraction`]: McDistribution::yield_fraction
    pub criterion: &'static str,
    /// Mean/σ/range/percentiles over the trial population.
    pub summary: Summary,
    /// Fraction of trials meeting the criterion (NaN outcomes fail).
    pub yield_fraction: f64,
    /// Order-sensitive FNV fold over the outcome column's bit patterns;
    /// equal iff two runs produced bit-identical trials in order.
    pub checksum: u64,
}

fn distribution(
    name: &'static str,
    unit: &'static str,
    criterion: &'static str,
    xs: &[f64],
    ok: impl Fn(f64) -> bool,
) -> McDistribution {
    McDistribution {
        name,
        unit,
        criterion,
        summary: summarize(xs),
        yield_fraction: yield_fraction(xs, ok),
        checksum: checksum(xs),
    }
}

/// A candidate whose accuracy axis carries a Monte-Carlo quantile or
/// yield (clamped into the FOM's `[0, 1]` domain; NaN — an all-NaN
/// outcome column — still fails validation loudly).
fn fraction_candidate(name: &str, fraction: f64) -> Result<Candidate, XldaError> {
    let fom = Fom {
        latency_s: 0.0,
        energy_j: 0.0,
        area_mm2: 0.0,
        accuracy: fraction.clamp(0.0, 1.0),
    };
    Ok(Candidate::new(name, validate_fom(name, fom)?))
}

/// Runs `trials` Monte-Carlo trials in structure-of-arrays batches and
/// returns `outputs` concatenated outcome columns (each of length
/// `trials`, in global trial order).
///
/// `eval` is called once per batch with the batch's per-trial RNG
/// streams and one scratch column per output (pre-sized to the batch
/// length); it must fill every column slot and draw only from the
/// batch's own streams so results stay chunking-invariant. The worker
/// count comes from `opts`.
///
/// # Errors
///
/// The first batch error, in trial order.
///
/// # Panics
///
/// Re-raises a panic from `eval` (a modeling bug, not an infeasible
/// point), and panics if `eval` resizes an output column.
pub fn run_trials_with<F>(
    trials: usize,
    seed: u64,
    batch: usize,
    opts: &SweepOptions,
    outputs: usize,
    eval: F,
) -> Result<Vec<Vec<f64>>, XldaError>
where
    F: Fn(&mut TrialBatch, &mut [Vec<f64>]) -> Result<(), XldaError> + Sync,
{
    run_trials(trials, seed, batch, opts, outputs, eval)
}

/// [`run_trials_with`] over trial streams that draw normals by `N`. Every
/// kind runs [`Ziggurat`]; only the statistical gate's tests run another
/// method through the same trial bodies.
fn run_trials<N: NormalMethod, F>(
    trials: usize,
    seed: u64,
    batch: usize,
    opts: &SweepOptions,
    outputs: usize,
    eval: F,
) -> Result<Vec<Vec<f64>>, XldaError>
where
    F: Fn(&mut TrialBatch<N>, &mut [Vec<f64>]) -> Result<(), XldaError> + Sync,
{
    let _span = xlda_obs::span!("mc.trials");
    let batch = if batch == 0 { DEFAULT_BATCH } else { batch };
    let ranges: Vec<(u64, usize)> = (0..trials)
        .step_by(batch)
        .map(|s| (s as u64, batch.min(trials - s)))
        .collect();
    let per_batch = par_try_map(
        &ranges,
        |&(start, len)| {
            let _span = xlda_obs::span!("mc.batch");
            let mut b = TrialBatch::<N>::new(seed, start, len);
            let mut cols: Vec<Vec<f64>> = (0..outputs).map(|_| vec![0.0; len]).collect();
            eval(&mut b, &mut cols)?;
            assert!(
                cols.iter().all(|c| c.len() == len),
                "mc batch resized an output column"
            );
            Ok(cols)
        },
        opts,
    );
    let mut out: Vec<Vec<f64>> = (0..outputs).map(|_| Vec::with_capacity(trials)).collect();
    for r in per_batch {
        match r {
            Ok(cols) => {
                for (o, c) in out.iter_mut().zip(cols) {
                    o.extend(c);
                }
            }
            Err(PointFailure::Error(e)) => return Err(e),
            Err(PointFailure::Panicked(msg)) => panic!("mc trial batch panicked: {msg}"),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// CAM yield
// ---------------------------------------------------------------------------

/// Yield-aware CAM sizing under per-cell conductance variation.
///
/// Each trial realizes two matchlines — one with `mismatches` and one
/// with `mismatches + 1` mismatching cells — with every pull-down path's
/// conductance drawn per cell, and records the relative sensing margin
/// `(G(m+1) − G(m)) / g_on`. A negative margin is a best-match
/// mis-ordering: the array width at which the margin distribution's
/// lower tail crosses zero is the real, variation-limited CAM size
/// (Sec. VI of the paper; the deterministic model in
/// [`xlda_evacam::CamArray`] assumes nominal cells).
#[derive(Debug, Clone, PartialEq)]
pub struct CamYieldMcScenario {
    /// Trial population controls.
    pub mc: McParams,
    /// Matchline length (cells per word).
    pub cells: usize,
    /// Base mismatch count `m` being distinguished from `m + 1`.
    pub mismatches: usize,
    /// Pull-down conductance of a mismatching cell (S).
    pub g_on: f64,
    /// Leakage conductance of a matching cell (S).
    pub g_off: f64,
    /// Per-cell variation spreads.
    pub variation: CellVariation,
    /// Analytic sizing target: sensing-error probability bound used for
    /// the yield-sized-matchline candidate.
    pub target_error: f64,
}

impl Default for CamYieldMcScenario {
    /// MRAM-like window (25 µS / 10 µS): a low on/off ratio where the
    /// variation limit actually binds at modest array widths.
    fn default() -> Self {
        Self {
            mc: McParams::default(),
            cells: 128,
            mismatches: 4,
            g_on: 25e-6,
            g_off: 10e-6,
            variation: CellVariation::default(),
            target_error: 1e-3,
        }
    }
}

impl CamYieldMcScenario {
    fn matchline(&self) -> MatchlineConfig {
        MatchlineConfig {
            g_on: self.g_on,
            g_off: self.g_off,
            ..MatchlineConfig::default()
        }
    }

    fn validate(&self) -> Result<(), XldaError> {
        self.mc.validate("cam_yield_mc")?;
        if self.cells == 0
            || self.mismatches + 1 > self.cells
            || !(self.g_on.is_finite() && self.g_on > 0.0)
            || !(self.g_off.is_finite() && self.g_off >= 0.0)
        {
            return Err(XldaError::NonFinite {
                stage: "cam_yield_mc",
                quantity: "matchline configuration",
            });
        }
        Ok(())
    }

    /// Raw outcome columns (`[margin]`) under an explicit sweep
    /// configuration — the chunking-invariance test hook.
    pub fn outcomes_with(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, XldaError> {
        self.outcomes::<Ziggurat>(opts)
    }

    /// The trial body, over trial streams that draw normals by `N`.
    fn outcomes<N: NormalMethod>(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, XldaError> {
        self.validate()?;
        let (g_on, g_off) = (self.g_on, self.g_off);
        let (s_on, s_off) = (
            self.variation.sigma_g_on_rel,
            self.variation.sigma_g_off_rel,
        );
        let (cells, m) = (self.cells, self.mismatches);
        run_trials::<N, _>(
            self.mc.trials,
            self.mc.seed,
            self.mc.batch,
            opts,
            1,
            move |batch, cols| {
                let n = batch.len();
                let mut margin = vec![0.0; n];
                let mut col = vec![0.0; n];
                // Column-major accumulation: cell k of every trial's two
                // matchlines is drawn across the batch before cell k+1.
                // Trial i's stream is consumed in the same column order
                // regardless of batch boundaries.
                for line in 0..2usize {
                    let sign = if line == 0 { -1.0 } else { 1.0 }; // G(m) vs G(m+1)
                    let mis = m + line;
                    for _ in 0..mis {
                        batch.fill_normal(1.0, s_on, &mut col);
                        for (acc, c) in margin.iter_mut().zip(&col) {
                            *acc += sign * (g_on * c).max(0.0);
                        }
                    }
                    for _ in 0..cells - mis {
                        batch.fill_normal(1.0, s_off, &mut col);
                        for (acc, c) in margin.iter_mut().zip(&col) {
                            *acc += sign * (g_off * c).max(0.0);
                        }
                    }
                }
                for (out, mg) in cols[0].iter_mut().zip(&margin) {
                    *out = mg / g_on;
                }
                Ok(())
            },
        )
    }

    /// Distributions and candidates from the outcome columns.
    fn evaluation(&self, cols: &[Vec<f64>]) -> Result<Evaluation, XldaError> {
        let margins = &cols[0];
        let dist = distribution(
            "matchline_margin",
            "g_on (relative)",
            "margin > 0 (no best-match mis-ordering)",
            margins,
            |x| x > 0.0,
        );
        let mut candidates = vec![fraction_candidate(
            &format!(
                "CAM sensing yield ({} cells, m={})",
                self.cells, self.mismatches
            ),
            dist.yield_fraction,
        )?];
        // The sizing half: the widest matchline the analytic variation
        // model certifies at the target error, as its own candidate.
        if let Some(max_cells) = max_cells_with_variation(
            &self.matchline(),
            &self.variation,
            self.mismatches,
            self.target_error,
        ) {
            candidates.push(fraction_candidate(
                &format!("yield-sized matchline ({max_cells} cells)"),
                1.0 - self.target_error,
            )?);
        }
        Ok(Evaluation {
            candidates,
            distributions: vec![dist],
        })
    }
}

impl Scenario for CamYieldMcScenario {
    fn kind(&self) -> &'static str {
        "cam_yield_mc"
    }

    /// `trials` and `seed` fully determine the draws; `batch`/`threads`
    /// are schedule-only (bit-identical results by the trial-stream
    /// contract) and deliberately left out of the key.
    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        w.usize(self.mc.trials)
            .word(self.mc.seed)
            .usize(self.cells)
            .usize(self.mismatches)
            .f64(self.g_on)
            .f64(self.g_off)
            .f64(self.variation.sigma_g_on_rel)
            .f64(self.variation.sigma_g_off_rel)
            .f64(self.target_error);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        Ok(self.evaluate()?.candidates)
    }

    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        self.evaluation(&self.outcomes_with(&self.mc.sweep_opts())?)
    }
}

// ---------------------------------------------------------------------------
// MANN accuracy
// ---------------------------------------------------------------------------

/// MANN retrieval-accuracy distribution under device variation.
///
/// Each trial realizes one in-memory LSH hash array: per hash bit, a
/// differential pair of stochastic HRS conductances
/// ([`Rram::hrs_sampler`]), then conductance relaxation over
/// [`relax_decades`](Self::relax_decades) decades
/// ([`Rram::relaxation`] — the typed-error path) and multiplicative read
/// noise on the differential. A bit flips when the perturbed
/// differential changes sign; the trial's retrieval accuracy degrades
/// linearly toward chance level at 50 % flipped bits (binary random
/// codes at Hamming distance `bits/2` carry no information — this is the
/// exposure the paper's ternary LSH scheme suppresses).
#[derive(Debug, Clone, PartialEq)]
pub struct MannAccuracyMcScenario {
    /// Trial population controls.
    pub mc: McParams,
    /// Hash signature length in bits.
    pub hash_bits: usize,
    /// Stored entries (support set size); chance accuracy is
    /// `1 / entries`.
    pub entries: usize,
    /// Software (no-variation) retrieval accuracy.
    pub acc_software: f64,
    /// Decades of relaxation time since programming.
    pub relax_decades: f64,
    /// Relative one-sigma multiplicative read noise.
    pub read_noise: f64,
    /// Yield criterion: trial passes when accuracy ≥ this floor.
    pub acc_floor: f64,
}

impl Default for MannAccuracyMcScenario {
    /// Omniglot-like 5-way × 25-class episode shape with the Sec. IV
    /// TaOx device, read 3 decades after programming.
    fn default() -> Self {
        Self {
            mc: McParams::default(),
            hash_bits: 256,
            entries: 125,
            acc_software: 0.95,
            relax_decades: 3.0,
            read_noise: 0.01,
            acc_floor: 0.85,
        }
    }
}

impl MannAccuracyMcScenario {
    fn validate(&self) -> Result<(), XldaError> {
        self.mc.validate("mann_mc")?;
        if self.hash_bits == 0
            || self.entries == 0
            || !(0.0..=1.0).contains(&self.acc_software)
            || !(self.read_noise.is_finite() && self.read_noise >= 0.0)
        {
            return Err(XldaError::NonFinite {
                stage: "mann_mc",
                quantity: "hash configuration",
            });
        }
        // relax_decades is validated by the device layer
        // (Rram::relaxation), once per scenario.
        Ok(())
    }

    /// Raw outcome columns (`[accuracy, flip_fraction]`) under an
    /// explicit sweep configuration — the chunking-invariance test hook.
    pub fn outcomes_with(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, XldaError> {
        self.outcomes::<Ziggurat>(opts)
    }

    /// The trial body, over trial streams that draw normals by `N`.
    fn outcomes<N: NormalMethod>(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, XldaError> {
        self.validate()?;
        let dev = Rram::taox();
        let hrs = dev.hrs_sampler();
        let relax = dev.relaxation(self.relax_decades)?;
        let bits = self.hash_bits;
        let read_noise = self.read_noise;
        let chance = 1.0 / self.entries as f64;
        let acc_sw = self.acc_software;
        run_trials::<N, _>(
            self.mc.trials,
            self.mc.seed,
            self.mc.batch,
            opts,
            2,
            move |batch, cols| {
                let n = batch.len();
                let mut flips = vec![0u32; n];
                // Bit-major: every trial's pair for hash bit b is drawn
                // (and relaxed, and read) across the batch before bit
                // b+1 — fixed per-trial stream order, columnar updates.
                for _ in 0..bits {
                    batch.for_each(|i, rng| {
                        let g_pos = hrs.sample(rng);
                        let g_neg = hrs.sample(rng);
                        let d0 = g_pos - g_neg;
                        let d_relaxed = relax.sample(g_pos, rng) - relax.sample(g_neg, rng);
                        let d1 = d_relaxed * (1.0 + rng.normal(0.0, read_noise));
                        if (d1 > 0.0) != (d0 > 0.0) {
                            flips[i] += 1;
                        }
                    });
                }
                let (acc_col, rest) = cols.split_first_mut().expect("two output columns");
                let flip_col = &mut rest[0];
                for i in 0..n {
                    let flip_frac = flips[i] as f64 / bits as f64;
                    // Linear decay to chance at half the bits flipped.
                    let intact = 1.0 - (2.0 * flip_frac).min(1.0);
                    acc_col[i] = chance + (acc_sw - chance) * intact;
                    flip_col[i] = flip_frac;
                }
                Ok(())
            },
        )
    }

    /// Distributions and candidates from the outcome columns.
    fn evaluation(&self, cols: &[Vec<f64>]) -> Result<Evaluation, XldaError> {
        let acc_floor = self.acc_floor;
        let acc = distribution(
            "accuracy",
            "fraction",
            "accuracy >= acc_floor",
            &cols[0],
            |x| x >= acc_floor,
        );
        let flips = distribution(
            "flip_fraction",
            "fraction",
            "flip_fraction <= 0.5 (above: hash is chance-level)",
            &cols[1],
            |x| x <= 0.5,
        );
        let candidates = vec![
            fraction_candidate("RRAM MANN accuracy p05", acc.summary.p5)?,
            fraction_candidate("RRAM MANN accuracy p50", acc.summary.p50)?,
            fraction_candidate("RRAM MANN accuracy p95", acc.summary.p95)?,
        ];
        Ok(Evaluation {
            candidates,
            distributions: vec![acc, flips],
        })
    }
}

impl Scenario for MannAccuracyMcScenario {
    fn kind(&self) -> &'static str {
        "mann_mc"
    }

    /// Scheduling-only `batch`/`threads` excluded; see
    /// [`CamYieldMcScenario::store_key`].
    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        w.usize(self.mc.trials)
            .word(self.mc.seed)
            .usize(self.hash_bits)
            .usize(self.entries)
            .f64(self.acc_software)
            .f64(self.relax_decades)
            .f64(self.read_noise)
            .f64(self.acc_floor);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        Ok(self.evaluate()?.candidates)
    }

    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        self.evaluation(&self.outcomes_with(&self.mc.sweep_opts())?)
    }
}

// ---------------------------------------------------------------------------
// NVM lifetime / V_th
// ---------------------------------------------------------------------------

/// NVM lifetime and V_th percentiles over device and system variation.
///
/// Per trial: the array's effective write endurance is drawn log-normally
/// around the device nominal (cycling endurance spreads about a decade in
/// measured parts), the achieved wear-leveling efficiency is drawn
/// normally around its target, and lifetime follows the
/// [`xlda_nvram::lifetime`] first-cell-wearout model. Independently, one
/// FeFET-like multi-level cell is programmed to a (per-trial) random
/// level and its threshold voltage recorded, yielding the V_th
/// distribution and the read-back yield of paper Fig. 3G.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmLifetimeMcScenario {
    /// Trial population controls.
    pub mc: McParams,
    /// Array capacity in bytes.
    pub capacity_bytes: f64,
    /// Sustained write traffic (bytes/second).
    pub write_bytes_per_second: f64,
    /// Target wear-leveling efficiency in `(0, 1]`.
    pub leveling: f64,
    /// One-sigma spread of the achieved leveling efficiency.
    pub leveling_sigma: f64,
    /// Nominal per-cell write endurance (cycles).
    pub endurance: f64,
    /// One-sigma endurance spread in decades (log10).
    pub endurance_sigma_decades: f64,
    /// Yield criterion: trial passes when lifetime ≥ this many years.
    pub required_years: f64,
    /// Bits per multi-level cell for the V_th study.
    pub vth_bits: u8,
    /// V_th window low edge (V).
    pub vth_lo: f64,
    /// V_th window high edge (V).
    pub vth_hi: f64,
    /// One-sigma V_th programming spread (V).
    pub vth_sigma: f64,
}

impl Default for NvmLifetimeMcScenario {
    /// A 1 GiB TaOx array under 50 MB/s of writes, with the paper's
    /// FeFET 8-level V_th window (0.4–1.6 V, σ = 94 mV).
    fn default() -> Self {
        Self {
            mc: McParams::default(),
            capacity_bytes: (1u64 << 30) as f64,
            write_bytes_per_second: 50e6,
            leveling: 0.9,
            leveling_sigma: 0.05,
            endurance: Rram::taox().endurance(),
            endurance_sigma_decades: 0.3,
            required_years: 5.0,
            vth_bits: 3,
            vth_lo: 0.4,
            vth_hi: 1.6,
            vth_sigma: 0.094,
        }
    }
}

const YEAR_S: f64 = 365.25 * 86400.0;

impl NvmLifetimeMcScenario {
    fn validate(&self) -> Result<(), XldaError> {
        self.mc.validate("nvm_mc")?;
        let ok = self.capacity_bytes.is_finite()
            && self.capacity_bytes > 0.0
            && self.write_bytes_per_second.is_finite()
            && self.write_bytes_per_second > 0.0
            && self.leveling > 0.0
            && self.leveling <= 1.0
            && self.endurance.is_finite()
            && self.endurance > 0.0
            && (1..=4).contains(&self.vth_bits)
            && self.vth_lo < self.vth_hi;
        if !ok {
            return Err(XldaError::NonFinite {
                stage: "nvm_mc",
                quantity: "array/traffic configuration",
            });
        }
        Ok(())
    }

    /// Raw outcome columns (`[lifetime_years, vth_volts, read_ok]`)
    /// under an explicit sweep configuration — the chunking-invariance
    /// test hook.
    pub fn outcomes_with(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, XldaError> {
        self.outcomes::<Ziggurat>(opts)
    }

    /// The trial body, over trial streams that draw normals by `N`.
    fn outcomes<N: NormalMethod>(&self, opts: &SweepOptions) -> Result<Vec<Vec<f64>>, XldaError> {
        self.validate()?;
        let cell = MultiLevelCell::uniform(
            StateVariable::ThresholdVoltage,
            self.vth_bits,
            self.vth_lo,
            self.vth_hi,
            self.vth_sigma,
        );
        let levels = cell.levels().len();
        let ln10 = std::f64::consts::LN_10;
        let mu_endurance = self.endurance.ln();
        let sigma_endurance = self.endurance_sigma_decades * ln10;
        let (leveling, leveling_sigma) = (self.leveling, self.leveling_sigma);
        let capacity = self.capacity_bytes;
        let traffic = self.write_bytes_per_second;
        run_trials::<N, _>(
            self.mc.trials,
            self.mc.seed,
            self.mc.batch,
            opts,
            3,
            move |batch, cols| {
                let n = batch.len();
                // Column 1: endurance draws; column 2: leveling draws.
                let mut endurance = vec![0.0; n];
                let mut level_eff = vec![0.0; n];
                batch.fill_log_normal(mu_endurance, sigma_endurance, &mut endurance);
                batch.fill_normal(leveling, leveling_sigma, &mut level_eff);
                // Columns 3+: per-trial V_th program/read.
                let (life_col, rest) = cols.split_first_mut().expect("three output columns");
                let (vth_col, rest) = rest.split_first_mut().expect("three output columns");
                let ok_col = &mut rest[0];
                batch.for_each(|i, rng| {
                    let target = rng.index(levels);
                    let v = cell.program(target, rng);
                    vth_col[i] = v;
                    ok_col[i] = if cell.read_level(v) == target {
                        1.0
                    } else {
                        0.0
                    };
                });
                for i in 0..n {
                    let eff = level_eff[i].clamp(0.05, 1.0);
                    // First-cell wearout: endurance / (traffic focused by
                    // imperfect leveling onto capacity), in years.
                    life_col[i] = endurance[i] * eff * capacity / traffic / YEAR_S;
                }
                Ok(())
            },
        )
    }

    /// Distributions and candidates from the outcome columns.
    fn evaluation(&self, cols: &[Vec<f64>]) -> Result<Evaluation, XldaError> {
        let years = self.required_years;
        let lifetime = distribution(
            "lifetime",
            "years",
            "lifetime >= required_years",
            &cols[0],
            |x| x >= years,
        );
        let vth = distribution(
            "vth",
            "V",
            "programmed level reads back correctly",
            &cols[1],
            // The V_th column's yield is the read-back success rate,
            // which lives in the companion 0/1 column.
            {
                let _ = &cols[2];
                |x| x.is_finite()
            },
        );
        let read_yield = xlda_num::trial::yield_fraction(&cols[2], |x| x > 0.5);
        let vth = McDistribution {
            yield_fraction: read_yield,
            criterion: "programmed level reads back correctly",
            ..vth
        };
        let candidates = vec![
            fraction_candidate(
                &format!("NVM lifetime yield (>= {years} y)"),
                lifetime.yield_fraction,
            )?,
            fraction_candidate("V_th read-back yield", read_yield)?,
        ];
        Ok(Evaluation {
            candidates,
            distributions: vec![lifetime, vth],
        })
    }
}

impl Scenario for NvmLifetimeMcScenario {
    fn kind(&self) -> &'static str {
        "nvm_mc"
    }

    /// Scheduling-only `batch`/`threads` excluded; see
    /// [`CamYieldMcScenario::store_key`].
    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        w.usize(self.mc.trials)
            .word(self.mc.seed)
            .f64(self.capacity_bytes)
            .f64(self.write_bytes_per_second)
            .f64(self.leveling)
            .f64(self.leveling_sigma)
            .f64(self.endurance)
            .f64(self.endurance_sigma_decades)
            .f64(self.required_years)
            .word(u64::from(self.vth_bits))
            .f64(self.vth_lo)
            .f64(self.vth_hi)
            .f64(self.vth_sigma);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        Ok(self.evaluate()?.candidates)
    }

    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        self.evaluation(&self.outcomes_with(&self.mc.sweep_opts())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_num::rng::Rng64;
    use xlda_num::trial::quantile;

    #[test]
    fn run_trials_concatenates_in_order() {
        let cols = run_trials_with(10, 1, 3, &SweepOptions::default(), 1, |batch, cols| {
            for (i, slot) in cols[0].iter_mut().enumerate() {
                *slot = batch.global_index(i) as f64;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(cols[0], (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn run_trials_propagates_errors() {
        let err = run_trials_with(8, 1, 2, &SweepOptions::default(), 1, |batch, _cols| {
            if batch.start() >= 4 {
                Err(XldaError::NonFinite {
                    stage: "test",
                    quantity: "q",
                })
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, XldaError::NonFinite { stage: "test", .. }));
    }

    #[test]
    fn cam_yield_matches_analytic_error() {
        let s = CamYieldMcScenario {
            mc: McParams {
                trials: 8192,
                ..McParams::default()
            },
            ..CamYieldMcScenario::default()
        };
        let eval = s.evaluate().unwrap();
        let dist = &eval.distributions[0];
        assert_eq!(dist.summary.trials, 8192);
        let mc_error = 1.0 - dist.yield_fraction;
        let analytic = xlda_evacam::variation::analytic_error_probability(
            &s.matchline(),
            &s.variation,
            s.cells,
            s.mismatches,
        );
        assert!(
            (mc_error - analytic).abs() < 0.02 + 0.3 * analytic,
            "mc {mc_error} vs analytic {analytic}"
        );
        // Margin is centered near (g_on - g_off)/g_on.
        let expect = (s.g_on - s.g_off) / s.g_on;
        assert!((dist.summary.mean - expect).abs() < 0.1 * expect);
    }

    #[test]
    fn mann_accuracy_degrades_with_relaxation_time() {
        let base = MannAccuracyMcScenario {
            mc: McParams {
                trials: 512,
                ..McParams::default()
            },
            hash_bits: 64,
            ..MannAccuracyMcScenario::default()
        };
        let short = MannAccuracyMcScenario {
            relax_decades: 0.5,
            ..base.clone()
        };
        let long = MannAccuracyMcScenario {
            relax_decades: 6.0,
            ..base
        };
        let acc_short = short.evaluate().unwrap().distributions[0].summary.mean;
        let acc_long = long.evaluate().unwrap().distributions[0].summary.mean;
        assert!(acc_long < acc_short, "short {acc_short} vs long {acc_long}");
        assert!(acc_short <= 0.95 && acc_long > 0.0);
    }

    #[test]
    fn mann_negative_relaxation_is_typed_error() {
        let s = MannAccuracyMcScenario {
            mc: McParams {
                trials: 8,
                ..McParams::default()
            },
            hash_bits: 4,
            relax_decades: -1.0,
            ..MannAccuracyMcScenario::default()
        };
        let err = s.evaluate().unwrap_err();
        assert!(
            matches!(
                err,
                XldaError::NonFinite {
                    stage: "rram.relax",
                    ..
                }
            ),
            "got {err:?}"
        );
        assert!(!err.is_infeasible());
    }

    #[test]
    fn nvm_lifetime_scales_with_traffic() {
        let base = NvmLifetimeMcScenario {
            mc: McParams {
                trials: 512,
                ..McParams::default()
            },
            ..NvmLifetimeMcScenario::default()
        };
        let heavy = NvmLifetimeMcScenario {
            write_bytes_per_second: base.write_bytes_per_second * 100.0,
            ..base.clone()
        };
        let light = base.evaluate().unwrap();
        let hot = heavy.evaluate().unwrap();
        assert!(light.distributions[0].summary.p50 > hot.distributions[0].summary.p50);
        // V_th sits inside the window and mostly reads back.
        let vth = &light.distributions[1];
        assert!(vth.summary.min > 0.0 && vth.summary.max < 2.0);
        // 8 levels over 1.2 V with sigma = 94 mV overlap substantially
        // (half-spacing is ~0.9 sigma): read-back yield is well below 1
        // but far above the 1/8 chance floor.
        assert!(vth.yield_fraction > 0.4 && vth.yield_fraction < 0.95);
    }

    #[test]
    fn zero_trials_is_rejected() {
        let s = CamYieldMcScenario {
            mc: McParams {
                trials: 0,
                ..McParams::default()
            },
            ..CamYieldMcScenario::default()
        };
        assert!(s.evaluate().is_err());
    }

    #[test]
    fn scenario_objects_expose_distributions() {
        let scenarios: Vec<Box<dyn Scenario>> = vec![
            Box::new(CamYieldMcScenario {
                mc: McParams {
                    trials: 64,
                    ..McParams::default()
                },
                cells: 32,
                ..CamYieldMcScenario::default()
            }),
            Box::new(MannAccuracyMcScenario {
                mc: McParams {
                    trials: 64,
                    ..McParams::default()
                },
                hash_bits: 16,
                ..MannAccuracyMcScenario::default()
            }),
            Box::new(NvmLifetimeMcScenario {
                mc: McParams {
                    trials: 64,
                    ..McParams::default()
                },
                ..NvmLifetimeMcScenario::default()
            }),
        ];
        for s in &scenarios {
            let eval = s.evaluate().unwrap();
            assert!(!eval.distributions.is_empty(), "{} has dists", s.kind());
            assert!(!eval.candidates.is_empty(), "{} has candidates", s.kind());
            // candidates() agrees with evaluate() (same trials, same seed).
            assert_eq!(s.candidates().unwrap(), eval.candidates);
            for d in &eval.distributions {
                assert!((0.0..=1.0).contains(&d.yield_fraction));
                assert_eq!(d.summary.trials + d.summary.nan_count, 64);
            }
        }
        // Deterministic scenarios report no distributions via the default.
        let hdc = crate::evaluate::HdcScenario::default();
        assert!(hdc.evaluate().unwrap().distributions.is_empty());
    }

    /// Box–Muller on a trial stream: the reference population of the
    /// sampler gate. Only tests draw trial normals by it.
    #[derive(Debug, Clone, Copy)]
    enum BoxMuller {}

    impl NormalMethod for BoxMuller {
        fn standard_normal(rng: &mut Rng64) -> f64 {
            rng.standard_normal()
        }
    }

    /// Standard error of the `p`-quantile of a sorted sample: the spread
    /// of the order statistics two binomial standard deviations of rank
    /// either side, over four. Distribution-free, and not zero on the
    /// lattice-valued MANN outcomes when the window straddles a step.
    fn quantile_se(sorted: &[f64], p: f64) -> f64 {
        let w = 2.0 * (p * (1.0 - p) / sorted.len() as f64).sqrt();
        (quantile(sorted, (p + w).min(1.0)) - quantile(sorted, (p - w).max(0.0))) / 4.0
    }

    /// `(name, value, standard error)` of one distribution's mean, σ,
    /// p5/p50/p95 and yield; `col` is its outcome column.
    fn gated_stats(d: &McDistribution, col: &[f64]) -> [(&'static str, f64, f64); 6] {
        let s = d.summary;
        let n = s.trials as f64;
        let mut sorted: Vec<f64> = col.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let var = s.std_dev * s.std_dev;
        let m4 = sorted.iter().map(|x| (x - s.mean).powi(4)).sum::<f64>() / n;
        let y = d.yield_fraction;
        [
            ("mean", s.mean, (var / n).sqrt()),
            (
                "sigma",
                s.std_dev,
                ((m4 - var * var) / (4.0 * var * n)).sqrt(),
            ),
            ("p5", s.p5, quantile_se(&sorted, 0.05)),
            ("p50", s.p50, quantile_se(&sorted, 0.50)),
            ("p95", s.p95, quantile_se(&sorted, 0.95)),
            ("yield", y, (y * (1.0 - y) / col.len() as f64).sqrt()),
        ]
    }

    /// The private trial body and summary step of each kind.
    trait Gated: Scenario + Sized {
        fn run<N: NormalMethod>(&self) -> Vec<Vec<f64>>;
        fn summary(&self, cols: &[Vec<f64>]) -> Evaluation;
    }

    macro_rules! gated {
        ($($kind:ty),*) => {$(
            impl Gated for $kind {
                fn run<N: NormalMethod>(&self) -> Vec<Vec<f64>> {
                    self.outcomes::<N>(&SweepOptions::default()).unwrap()
                }
                fn summary(&self, cols: &[Vec<f64>]) -> Evaluation {
                    self.evaluation(cols).unwrap()
                }
            }
        )*};
    }

    gated!(
        CamYieldMcScenario,
        MannAccuracyMcScenario,
        NvmLifetimeMcScenario
    );

    /// The sampler gate: `s` runs its trial body with ziggurat streams,
    /// `reference` (`s` on an independent seed) with Box–Muller ones.
    /// Every distribution's mean, σ, p5/p50/p95 and yield must agree
    /// within four standard errors of the difference.
    fn assert_sampler_gate<S: Gated>(s: &S, reference: &S) {
        let zig_cols = s.run::<Ziggurat>();
        let ref_cols = reference.run::<BoxMuller>();
        let (zig, bm) = (s.summary(&zig_cols), reference.summary(&ref_cols));
        assert_eq!(zig.distributions.len(), bm.distributions.len());
        for (k, (dz, dr)) in zig.distributions.iter().zip(&bm.distributions).enumerate() {
            assert_eq!(dz.summary.nan_count, dr.summary.nan_count);
            let stats = gated_stats(dz, &zig_cols[k])
                .into_iter()
                .zip(gated_stats(dr, &ref_cols[k]));
            for ((what, got, se_z), (_, want, se_r)) in stats {
                let se = se_z.hypot(se_r);
                assert!(
                    (got - want).abs() <= 4.0 * se,
                    "{} {} {what}: ziggurat {got} vs Box-Muller {want} (se {se:e})",
                    s.kind(),
                    dz.name
                );
            }
        }
    }

    /// Trial populations of the gate: the default seed, and an
    /// independent one for the Box–Muller reference.
    fn gate_params(trials: usize) -> [McParams; 2] {
        [0xA11CE, 0xB0C5_3A11].map(|seed| McParams {
            trials,
            seed,
            ..McParams::default()
        })
    }

    #[test]
    fn sampler_gate_cam_yield_mc() {
        let [s, r] = gate_params(1 << 14).map(|mc| CamYieldMcScenario {
            mc,
            ..CamYieldMcScenario::default()
        });
        assert_sampler_gate(&s, &r);
    }

    #[test]
    fn sampler_gate_mann_mc() {
        let [s, r] = gate_params(4096).map(|mc| MannAccuracyMcScenario {
            mc,
            ..MannAccuracyMcScenario::default()
        });
        assert_sampler_gate(&s, &r);
    }

    #[test]
    fn sampler_gate_nvm_mc() {
        let [s, r] = gate_params(1 << 14).map(|mc| NvmLifetimeMcScenario {
            mc,
            ..NvmLifetimeMcScenario::default()
        });
        assert_sampler_gate(&s, &r);
    }

    #[test]
    fn batch_and_schedule_do_not_change_results() {
        let s = MannAccuracyMcScenario {
            mc: McParams {
                trials: 100,
                ..McParams::default()
            },
            hash_bits: 8,
            ..MannAccuracyMcScenario::default()
        };
        let reference = s.outcomes_with(&SweepOptions::default()).unwrap();
        for batch in [1usize, 7, 64, 100] {
            let v = MannAccuracyMcScenario {
                mc: McParams { batch, ..s.mc },
                ..s.clone()
            };
            let opts = SweepOptions::builder().threads(4).build();
            let got = v.outcomes_with(&opts).unwrap();
            assert_eq!(got, reference, "batch {batch}");
        }
    }
}
