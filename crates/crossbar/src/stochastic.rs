//! Stochastic-conductance projection crossbars for in-memory LSH
//! (paper Sec. IV, Fig. 4B).
//!
//! Locality-sensitive hashing needs a random projection matrix with zero
//! mean. The paper's insight: as-fabricated RRAM devices in their
//! high-resistance state already *are* i.i.d. random conductances — so a
//! crossbar programmed with stochastic HRS devices computes the random
//! projection in-memory. A hash bit is the sign of the current difference
//! between two adjacent columns; the ternary variant outputs a "don't
//! care" when the difference is too small to be stable against
//! conductance relaxation.

use xlda_device::rram::Rram;
use xlda_num::matrix::Matrix;
use xlda_num::rng::Rng64;

/// A crossbar of stochastic HRS devices computing sign-random projections.
#[derive(Debug, Clone)]
pub struct StochasticProjection {
    device: Rram,
    /// Conductances, `dim x (2 * bits)` — adjacent column pairs form one
    /// differential hash bit.
    g: Matrix,
    /// Read voltage (V).
    pub v_read: f64,
    /// Wire resistance between crosspoints (Ω); induces the current-
    /// dependent bias the paper mitigates by using HRS devices.
    pub r_wire: f64,
    /// Relative read noise (one sigma).
    pub read_noise: f64,
    noise_seed: u64,
}

impl StochasticProjection {
    /// Programs a `dim`-input, `bits`-output projection from
    /// as-fabricated stochastic HRS conductances.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `bits` is zero.
    pub fn new(dim: usize, bits: usize, device: &Rram, rng: &mut Rng64) -> Self {
        assert!(
            dim > 0 && bits > 0,
            "projection dimensions must be positive"
        );
        let mut g = Matrix::zeros(dim, 2 * bits);
        let hrs = device.hrs_sampler();
        for i in 0..dim {
            for j in 0..2 * bits {
                *g.at_mut(i, j) = hrs.sample(rng);
            }
        }
        Self {
            device: device.clone(),
            g,
            v_read: 0.2,
            r_wire: 1.0,
            read_noise: 0.01,
            noise_seed: rng.next_u64(),
        }
    }

    /// Number of signature bits produced.
    pub fn bits(&self) -> usize {
        self.g.cols() / 2
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.g.rows()
    }

    /// Applies conductance relaxation over `decades` decades of time —
    /// the source of unstable hash bits (Fig. 4C).
    pub fn relax(&mut self, decades: f64, rng: &mut Rng64) {
        let dev = self.device.clone();
        self.g.map_inplace(|g| dev.relax(g, decades, rng));
    }

    /// Differential column currents: one signed value per signature bit.
    ///
    /// Inputs must be non-negative (post-ReLU features); they are scaled
    /// to read voltages internally.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "input length mismatch");
        let x_max = x.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-12);
        let v: Vec<f64> = x.iter().map(|&u| u / x_max * self.v_read).collect();
        let raw = self.g.vecmat(&v);
        let rows = self.dim() as f64;
        // IR-drop attenuation grows with column index — the systematic
        // bias the paper observes with low-resistance (high-current)
        // mappings.
        let mut nrng = Rng64::new(self.noise_seed ^ hash_slice(&v));
        let attenuated: Vec<f64> = raw
            .iter()
            .enumerate()
            .map(|(j, &i)| {
                let g_col: f64 = self.g.col(j).iter().sum();
                let r_path = self.r_wire * (rows / 2.0 + j as f64) / 2.0;
                // Multiplicative read noise on each column current.
                i / (1.0 + g_col * r_path) * (1.0 + nrng.normal(0.0, self.read_noise))
            })
            .collect();
        attenuated
            .chunks_exact(2)
            .map(|pair| pair[0] - pair[1])
            .collect()
    }

    /// Binary LSH signature: the sign of each differential current.
    pub fn hash(&self, x: &[f64]) -> Vec<i8> {
        self.project(x)
            .iter()
            .map(|&d| if d >= 0.0 { 1 } else { -1 })
            .collect()
    }

    /// Ternary LSH signature (TLSH): bits whose differential magnitude is
    /// below `threshold` (A) become `0`, the "don't care" state that
    /// always contributes zero Hamming distance (Fig. 4C).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative.
    pub fn ternary_hash(&self, x: &[f64], threshold: f64) -> Vec<i8> {
        assert!(threshold >= 0.0, "negative threshold");
        self.project(x)
            .iter()
            .map(|&d| {
                if d.abs() < threshold {
                    0
                } else if d >= 0.0 {
                    1
                } else {
                    -1
                }
            })
            .collect()
    }

    /// A threshold scaled to the typical differential magnitude:
    /// `frac` of the mean |projection| over provided probe inputs.
    pub fn calibrate_threshold(&self, probes: &[Vec<f64>], frac: f64) -> f64 {
        let mut mags = Vec::new();
        for p in probes {
            for d in self.project(p) {
                mags.push(d.abs());
            }
        }
        frac * xlda_num::stats::mean(&mags)
    }
}

/// Hamming distance between two ternary signatures: "don't care" (0)
/// positions in *either* signature contribute zero distance.
///
/// # Panics
///
/// Panics if the signatures differ in length.
pub fn ternary_hamming(a: &[i8], b: &[i8]) -> usize {
    assert_eq!(a.len(), b.len(), "signature length mismatch");
    a.iter()
        .zip(b)
        .filter(|(&x, &y)| x != 0 && y != 0 && x != y)
        .count()
}

fn hash_slice(x: &[f64]) -> u64 {
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

    fn proj(dim: usize, bits: usize, seed: u64) -> StochasticProjection {
        let dev = Rram::taox();
        StochasticProjection::new(dim, bits, &dev, &mut Rng64::new(seed))
    }

    fn random_input(dim: usize, rng: &mut Rng64) -> Vec<f64> {
        (0..dim).map(|_| rng.uniform()).collect()
    }

    #[test]
    fn hash_is_deterministic() {
        let p = proj(64, 32, 1);
        let mut rng = Rng64::new(2);
        let x = random_input(64, &mut rng);
        assert_eq!(p.hash(&x), p.hash(&x));
    }

    #[test]
    fn hash_bits_roughly_balanced() {
        // Zero-mean projections: ones and minus-ones appear about equally
        // across inputs.
        let p = proj(128, 64, 3);
        let mut rng = Rng64::new(4);
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let x = random_input(128, &mut rng);
            for b in p.hash(&x) {
                if b == 1 {
                    ones += 1;
                }
                total += 1;
            }
        }
        let frac = ones as f64 / total as f64;
        assert!((0.3..0.7).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn similar_inputs_hash_closer_than_dissimilar() {
        let p = proj(128, 128, 5);
        let mut rng = Rng64::new(6);
        let x = random_input(128, &mut rng);
        // Small perturbation vs. fresh random vector.
        let near: Vec<f64> = x.iter().map(|&v| (v + 0.01).min(1.0)).collect();
        let far = random_input(128, &mut rng);
        let hx = p.hash(&x);
        let hn = p.hash(&near);
        let hf = p.hash(&far);
        let d_near = ternary_hamming(&hx, &hn);
        let d_far = ternary_hamming(&hx, &hf);
        assert!(d_near < d_far, "near {d_near} far {d_far}");
    }

    #[test]
    fn ternary_marks_small_margins_dont_care() {
        let p = proj(64, 64, 7);
        let mut rng = Rng64::new(8);
        let x = random_input(64, &mut rng);
        let thr = p.calibrate_threshold(std::slice::from_ref(&x), 0.5);
        let t = p.ternary_hash(&x, thr);
        let dont_care = t.iter().filter(|&&b| b == 0).count();
        assert!(dont_care > 0, "expected some X states");
        assert!(dont_care < t.len(), "not all should be X");
        // Binary hash never emits X.
        assert!(p.hash(&x).iter().all(|&b| b != 0));
    }

    #[test]
    fn tlsh_suppresses_relaxation_flips() {
        // Fig. 4C: bits near the hashing plane flip under relaxation;
        // the ternary scheme masks them.
        let mut rng = Rng64::new(9);
        let dev = Rram::taox();
        let mut flips_lsh = 0usize;
        let mut flips_tlsh = 0usize;
        for trial in 0..20 {
            let mut p = StochasticProjection::new(96, 64, &dev, &mut Rng64::new(100 + trial));
            let x = random_input(96, &mut rng);
            let thr = p.calibrate_threshold(std::slice::from_ref(&x), 0.4);
            let h0 = p.hash(&x);
            let t0 = p.ternary_hash(&x, thr);
            p.relax(3.0, &mut rng);
            let h1 = p.hash(&x);
            let t1 = p.ternary_hash(&x, thr);
            flips_lsh += h0.iter().zip(&h1).filter(|(&a, &b)| a != b).count();
            // A ternary "flip" is a definite disagreement (+1 vs -1).
            flips_tlsh += t0
                .iter()
                .zip(&t1)
                .filter(|(&a, &b)| a != 0 && b != 0 && a != b)
                .count();
        }
        assert!(
            flips_tlsh * 2 < flips_lsh,
            "tlsh {flips_tlsh} vs lsh {flips_lsh}"
        );
        assert!(flips_lsh > 0, "relaxation should flip some bits");
    }

    #[test]
    fn ternary_hamming_ignores_x() {
        let a = [1, -1, 0, 1];
        let b = [-1, -1, 1, 0];
        // Positions: 0 differs (1), 1 matches, 2 has X in a, 3 has X in b.
        assert_eq!(ternary_hamming(&a, &b), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_signatures_panic() {
        ternary_hamming(&[1], &[1, -1]);
    }
}
