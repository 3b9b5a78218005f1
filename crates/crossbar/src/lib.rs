//! Analog crossbar simulator (paper Sec. II-B2 and the substrate of both
//! case studies).
//!
//! A crossbar stores a weight matrix as device conductances and computes
//! matrix-vector products in analog: inputs drive the rows as voltages,
//! and per Kirchhoff the column currents sum `G·v` in one step. This crate
//! provides both:
//!
//! - a **functional simulator** ([`Crossbar`]) that actually computes MVMs
//!   through the non-ideality chain — programming variation, conductance
//!   quantization, IR drop (fast model or full nodal solve), read noise,
//!   ADC quantization, stuck-at defects;
//! - a **macro model** ([`macro_model::CrossbarMacro`]) that reports
//!   latency/energy/area per operation, NeuroSim-style;
//! - a **stochastic projection** builder ([`stochastic`]) exploiting
//!   as-fabricated HRS randomness for in-memory LSH (Sec. IV).
//!
//! # Examples
//!
//! ```
//! use xlda_crossbar::{Crossbar, CrossbarConfig, Fidelity};
//! use xlda_num::{Matrix, Rng64};
//!
//! let mut rng = Rng64::new(7);
//! let config = CrossbarConfig { rows: 32, cols: 16, ..CrossbarConfig::default() };
//! let w = Matrix::random_normal(32, 16, 0.0, 0.5, &mut rng);
//! let xbar = Crossbar::program(&config, &w, &mut rng);
//! let x = vec![0.5; 32];
//! let y = xbar.mvm(&x, Fidelity::Ideal);
//! assert_eq!(y.len(), 16);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod macro_model;
pub mod stochastic;

pub use macro_model::CrossbarError;

use xlda_device::rram::Rram;
use xlda_num::matrix::Matrix;
use xlda_num::rng::Rng64;
use xlda_num::solve::GridSolver;

/// How faithfully an MVM is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Pure linear algebra on target conductances (no non-idealities).
    Ideal,
    /// Programmed conductances + read noise + ADC, with a closed-form
    /// per-column IR-drop attenuation factor.
    Fast,
    /// Programmed conductances + read noise + ADC, with the full
    /// Gauss–Seidel nodal solve of the resistive grid.
    Full,
}

/// Crossbar electrical and converter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarConfig {
    /// Array rows (inputs).
    pub rows: usize,
    /// Array columns (outputs). Differential weight mapping uses one
    /// physical column pair per logical column.
    pub cols: usize,
    /// Device model programmed at each crosspoint.
    pub device: Rram,
    /// Read voltage applied on active rows (V).
    pub v_read: f64,
    /// Wire resistance between adjacent crosspoints (Ω).
    pub r_wire: f64,
    /// Input DAC resolution (bits); inputs are quantized to this grid.
    pub dac_bits: u8,
    /// Output ADC resolution (bits); `0` disables output quantization.
    pub adc_bits: u8,
    /// Relative read-current noise (one sigma).
    pub read_noise: f64,
    /// Fraction of devices stuck at `g_min` (fabrication defects).
    pub stuck_off_rate: f64,
}

impl Default for CrossbarConfig {
    /// A 64×64 TaO_x crossbar with 8-level programming, 4-bit DAC,
    /// 6-bit ADC, 1 Ω segment wires.
    fn default() -> Self {
        Self {
            rows: 64,
            cols: 64,
            device: Rram::taox(),
            v_read: 0.2,
            r_wire: 1.0,
            dac_bits: 4,
            adc_bits: 6,
            read_noise: 0.01,
            stuck_off_rate: 0.0,
        }
    }
}

/// A programmed crossbar holding a weight matrix as differential
/// conductance pairs.
#[derive(Debug, Clone)]
pub struct Crossbar {
    config: CrossbarConfig,
    /// Positive-column conductances (`rows x cols`).
    g_pos: Matrix,
    /// Negative-column conductances (`rows x cols`).
    g_neg: Matrix,
    /// Ideal (target) conductances for the Ideal fidelity path.
    g_pos_target: Matrix,
    g_neg_target: Matrix,
    /// Weight scale: weight = (g_pos - g_neg) / g_scale.
    g_scale: f64,
    noise_seed: u64,
}

impl Crossbar {
    /// Programs `weights` (`rows x cols`) onto a differential crossbar.
    ///
    /// Weights are scaled so the largest magnitude maps to the full
    /// conductance window; each device suffers the RRAM model's
    /// state-dependent programming variation, and a `stuck_off_rate`
    /// fraction of devices are forced to `g_min`.
    ///
    /// # Panics
    ///
    /// Panics if the weight shape disagrees with the configuration.
    pub fn program(config: &CrossbarConfig, weights: &Matrix, rng: &mut Rng64) -> Self {
        assert_eq!(weights.rows(), config.rows, "weight rows mismatch");
        assert_eq!(weights.cols(), config.cols, "weight cols mismatch");
        let dev = &config.device;
        let w_max = weights
            .as_slice()
            .iter()
            .fold(0.0f64, |m, &w| m.max(w.abs()))
            .max(1e-12);
        let g_span = dev.g_max - dev.g_min;
        let g_scale = g_span / w_max;

        let (r, c) = (config.rows, config.cols);
        let mut g_pos_target = Matrix::zeros(r, c);
        let mut g_neg_target = Matrix::zeros(r, c);
        let mut g_pos = Matrix::zeros(r, c);
        let mut g_neg = Matrix::zeros(r, c);
        for i in 0..r {
            for j in 0..c {
                let w = weights.at(i, j);
                let (tp, tn) = if w >= 0.0 {
                    ((dev.g_min + w * g_scale).min(dev.g_max), dev.g_min)
                } else {
                    (dev.g_min, (dev.g_min - w * g_scale).min(dev.g_max))
                };
                *g_pos_target.at_mut(i, j) = tp;
                *g_neg_target.at_mut(i, j) = tn;
                let stuck_p = rng.chance(config.stuck_off_rate);
                let stuck_n = rng.chance(config.stuck_off_rate);
                *g_pos.at_mut(i, j) = if stuck_p {
                    dev.g_min
                } else {
                    dev.program(tp, rng)
                };
                *g_neg.at_mut(i, j) = if stuck_n {
                    dev.g_min
                } else {
                    dev.program(tn, rng)
                };
            }
        }
        Self {
            config: config.clone(),
            g_pos,
            g_neg,
            g_pos_target,
            g_neg_target,
            g_scale,
            noise_seed: rng.next_u64(),
        }
    }

    /// The configuration this crossbar was programmed with.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Programmed positive-column conductances.
    pub fn g_pos(&self) -> &Matrix {
        &self.g_pos
    }

    /// Programmed negative-column conductances.
    pub fn g_neg(&self) -> &Matrix {
        &self.g_neg
    }

    /// Applies conductance relaxation to every device over `decades`
    /// decades of elapsed time (Sec. IV non-ideality).
    pub fn relax(&mut self, decades: f64, rng: &mut Rng64) {
        let dev = self.config.device.clone();
        self.g_pos.map_inplace(|g| dev.relax(g, decades, rng));
        self.g_neg.map_inplace(|g| dev.relax(g, decades, rng));
    }

    /// Quantizes an input vector to the DAC grid over `[-1, 1]`.
    fn quantize_input(&self, x: &[f64]) -> Vec<f64> {
        let levels = ((1u32 << self.config.dac_bits) - 1) as f64;
        x.iter()
            .map(|&v| {
                let t = ((v + 1.0) / 2.0).clamp(0.0, 1.0);
                ((t * levels).round() / levels) * 2.0 - 1.0
            })
            .collect()
    }

    /// Computes a matrix-vector product `y = W^T x` through the crossbar.
    ///
    /// Inputs are interpreted in `[-1, 1]` (scaled to read voltages),
    /// outputs are returned in weight units (descaled from currents).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn mvm(&self, x: &[f64], fidelity: Fidelity) -> Vec<f64> {
        assert_eq!(x.len(), self.config.rows, "input length mismatch");
        match fidelity {
            Fidelity::Ideal => {
                let ip = self.g_pos_target.vecmat(x);
                let ineg = self.g_neg_target.vecmat(x);
                ip.iter()
                    .zip(&ineg)
                    .map(|(p, n)| (p - n) / self.g_scale)
                    .collect()
            }
            Fidelity::Fast => self.mvm_nonideal(x, false),
            Fidelity::Full => self.mvm_nonideal(x, true),
        }
    }

    fn mvm_nonideal(&self, x: &[f64], full_solve: bool) -> Vec<f64> {
        let xq = self.quantize_input(x);
        let v: Vec<f64> = xq.iter().map(|&u| u * self.config.v_read).collect();

        let (ip, ineg) = if full_solve {
            (
                self.solve_currents(&self.g_pos, &v),
                self.solve_currents(&self.g_neg, &v),
            )
        } else {
            (
                self.fast_currents(&self.g_pos, &v),
                self.fast_currents(&self.g_neg, &v),
            )
        };

        // Deterministic per-call read noise derived from the data.
        let mut nrng = Rng64::new(self.noise_seed ^ hash_inputs(&xq));
        let full_scale = self.full_scale_current();
        let levels = if self.config.adc_bits == 0 {
            0.0
        } else {
            ((1u64 << self.config.adc_bits) - 1) as f64
        };
        ip.iter()
            .zip(&ineg)
            .map(|(p, n)| {
                let mut i = p - n;
                i += nrng.normal(0.0, self.config.read_noise * full_scale);
                if levels > 0.0 {
                    let t = ((i / full_scale) + 1.0) / 2.0;
                    i = ((t.clamp(0.0, 1.0) * levels).round() / levels) * 2.0 * full_scale
                        - full_scale;
                }
                i / (self.config.v_read * self.g_scale)
            })
            .collect()
    }

    /// Worst-case single-ended column current, used as converter full
    /// scale.
    fn full_scale_current(&self) -> f64 {
        self.config.rows as f64 * self.config.device.g_max * self.config.v_read * 0.5
    }

    /// Signed-voltage ideal currents on programmed conductances (fast
    /// path) with a per-column IR-drop attenuation.
    fn fast_currents(&self, g: &Matrix, v: &[f64]) -> Vec<f64> {
        let raw = g.vecmat(v);
        // Closed-form attenuation: a column at index j sees accumulated
        // wire resistance ~ r_wire * (rows/2 + j), loaded by its total
        // conductance.
        let rows = self.config.rows as f64;
        raw.iter()
            .enumerate()
            .map(|(j, &i)| {
                let g_col: f64 = g.col(j).iter().sum();
                let r_path = self.config.r_wire * (rows / 2.0 + j as f64) / 2.0;
                i / (1.0 + g_col * r_path)
            })
            .collect()
    }

    /// Full nodal solve. Splits signed inputs into positive and negative
    /// phases (hardware applies them in two cycles).
    fn solve_currents(&self, g: &Matrix, v: &[f64]) -> Vec<f64> {
        let g_wire = 1.0 / self.config.r_wire.max(1e-3);
        let solver = GridSolver::new(self.config.rows, self.config.cols, g_wire, 1e-1, 1e-1);
        let vpos: Vec<f64> = v.iter().map(|&u| u.max(0.0)).collect();
        let vneg: Vec<f64> = v.iter().map(|&u| (-u).max(0.0)).collect();
        let sp = solver.solve(g, &vpos);
        let sn = solver.solve(g, &vneg);
        sp.col_currents
            .iter()
            .zip(&sn.col_currents)
            .map(|(a, b)| a - b)
            .collect()
    }

    /// Root-mean-square error of this crossbar's MVM against the exact
    /// product, for `trials` random inputs — a quick fidelity probe.
    pub fn mvm_rmse(&self, fidelity: Fidelity, trials: usize, rng: &mut Rng64) -> f64 {
        let mut se = 0.0;
        let mut n = 0;
        for _ in 0..trials {
            let x: Vec<f64> = (0..self.config.rows)
                .map(|_| rng.uniform_in(-1.0, 1.0))
                .collect();
            let ideal = self.mvm(&x, Fidelity::Ideal);
            let got = self.mvm(&x, fidelity);
            for (a, b) in ideal.iter().zip(&got) {
                se += (a - b) * (a - b);
                n += 1;
            }
        }
        (se / n as f64).sqrt()
    }
}

fn hash_inputs(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in x {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CrossbarConfig {
        CrossbarConfig {
            rows: 16,
            cols: 8,
            ..CrossbarConfig::default()
        }
    }

    fn weights(rng: &mut Rng64, cfg: &CrossbarConfig) -> Matrix {
        Matrix::random_normal(cfg.rows, cfg.cols, 0.0, 0.5, rng)
    }

    #[test]
    fn ideal_mvm_matches_linear_algebra() {
        let mut rng = Rng64::new(1);
        let cfg = small_config();
        let w = weights(&mut rng, &cfg);
        let xbar = Crossbar::program(&cfg, &w, &mut rng);
        let x: Vec<f64> = rng.normal_vec(cfg.rows, 0.0, 0.3);
        let y = xbar.mvm(&x, Fidelity::Ideal);
        let expect = w.transpose().matvec(&x);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fast_mvm_tracks_ideal_within_tolerance() {
        let mut rng = Rng64::new(2);
        let cfg = small_config();
        let w = weights(&mut rng, &cfg);
        let xbar = Crossbar::program(&cfg, &w, &mut rng);
        let rmse = xbar.mvm_rmse(Fidelity::Fast, 20, &mut rng);
        // Non-ideal but usable: errors well under the weight scale.
        assert!(rmse < 0.25, "rmse {rmse}");
        assert!(rmse > 0.0);
    }

    #[test]
    fn full_solve_close_to_fast_for_small_arrays() {
        let mut rng = Rng64::new(3);
        let cfg = small_config();
        let w = weights(&mut rng, &cfg);
        let xbar = Crossbar::program(&cfg, &w, &mut rng);
        let x: Vec<f64> = rng.normal_vec(cfg.rows, 0.0, 0.3);
        let fast = xbar.mvm(&x, Fidelity::Fast);
        let full = xbar.mvm(&x, Fidelity::Full);
        for (a, b) in fast.iter().zip(&full) {
            assert!((a - b).abs() < 0.3, "{a} vs {b}");
        }
    }

    #[test]
    fn more_wire_resistance_more_error() {
        let mut rng = Rng64::new(4);
        let mut cfg = CrossbarConfig {
            rows: 64,
            cols: 64,
            read_noise: 0.0,
            adc_bits: 0,
            dac_bits: 8,
            ..CrossbarConfig::default()
        };
        let w = weights(&mut rng, &cfg);
        cfg.r_wire = 0.2;
        let clean = Crossbar::program(&cfg, &w, &mut Rng64::new(10));
        cfg.r_wire = 20.0;
        let lossy = Crossbar::program(&cfg, &w, &mut Rng64::new(10));
        let e_clean = clean.mvm_rmse(Fidelity::Fast, 10, &mut Rng64::new(20));
        let e_lossy = lossy.mvm_rmse(Fidelity::Fast, 10, &mut Rng64::new(20));
        assert!(e_lossy > e_clean, "{e_lossy} vs {e_clean}");
    }

    #[test]
    fn stuck_devices_increase_error() {
        let mut rng = Rng64::new(5);
        let cfg_ok = CrossbarConfig {
            read_noise: 0.0,
            ..small_config()
        };
        let cfg_bad = CrossbarConfig {
            stuck_off_rate: 0.2,
            ..cfg_ok.clone()
        };
        let w = weights(&mut rng, &cfg_ok);
        let ok = Crossbar::program(&cfg_ok, &w, &mut Rng64::new(11));
        let bad = Crossbar::program(&cfg_bad, &w, &mut Rng64::new(11));
        let e_ok = ok.mvm_rmse(Fidelity::Fast, 20, &mut Rng64::new(21));
        let e_bad = bad.mvm_rmse(Fidelity::Fast, 20, &mut Rng64::new(21));
        assert!(e_bad > e_ok);
    }

    #[test]
    fn coarse_adc_increases_error() {
        let mut rng = Rng64::new(6);
        let base = CrossbarConfig {
            read_noise: 0.0,
            ..small_config()
        };
        let w = weights(&mut rng, &base);
        let fine = Crossbar::program(
            &CrossbarConfig {
                adc_bits: 10,
                ..base.clone()
            },
            &w,
            &mut Rng64::new(12),
        );
        let coarse = Crossbar::program(
            &CrossbarConfig {
                adc_bits: 2,
                ..base.clone()
            },
            &w,
            &mut Rng64::new(12),
        );
        let e_fine = fine.mvm_rmse(Fidelity::Fast, 20, &mut Rng64::new(22));
        let e_coarse = coarse.mvm_rmse(Fidelity::Fast, 20, &mut Rng64::new(22));
        assert!(e_coarse > e_fine, "{e_coarse} vs {e_fine}");
    }

    #[test]
    fn relaxation_perturbs_conductances() {
        let mut rng = Rng64::new(7);
        let cfg = small_config();
        let w = weights(&mut rng, &cfg);
        let mut xbar = Crossbar::program(&cfg, &w, &mut rng);
        let before = xbar.g_pos().clone();
        xbar.relax(3.0, &mut rng);
        let after = xbar.g_pos();
        let mut changed = 0;
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            if (a - b).abs() > 1e-9 {
                changed += 1;
            }
        }
        assert!(changed > before.as_slice().len() / 2);
    }

    #[test]
    fn noise_is_deterministic_per_input() {
        let mut rng = Rng64::new(8);
        let cfg = small_config();
        let w = weights(&mut rng, &cfg);
        let xbar = Crossbar::program(&cfg, &w, &mut rng);
        let x: Vec<f64> = rng.normal_vec(cfg.rows, 0.0, 0.3);
        assert_eq!(xbar.mvm(&x, Fidelity::Fast), xbar.mvm(&x, Fidelity::Fast));
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let mut rng = Rng64::new(9);
        let cfg = small_config();
        let w = weights(&mut rng, &cfg);
        let xbar = Crossbar::program(&cfg, &w, &mut rng);
        xbar.mvm(&[0.0; 3], Fidelity::Ideal);
    }
}
