//! Hypervector encoding and element quantization.

use std::ops::Range;
use xlda_num::matrix::Matrix;
use xlda_num::rng::Rng64;

/// Encoding style (Fig. 3A encoding module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingStyle {
    /// Dense bipolar random projection: `hv = P x` with `P ∈ {-1,+1}`.
    RandomProjection,
    /// ID-level encoding: each input feature is quantized to one of
    /// `levels` level HVs and bound to its position HV; the results are
    /// bundled. A common alternative for streaming/low-power encoders.
    IdLevel {
        /// Number of quantization levels for feature values.
        levels: usize,
    },
}

/// Encoder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Input feature dimensionality.
    pub dim_in: usize,
    /// Hypervector dimensionality (the paper's 1K-10K range).
    pub hv_dim: usize,
    /// Encoding style.
    pub style: EncodingStyle,
    /// Seed for the random projection / item memories.
    pub seed: u64,
}

impl Default for EncoderConfig {
    /// 4096-dimensional random projection from a 512-feature input.
    fn default() -> Self {
        Self {
            dim_in: 512,
            hv_dim: 4096,
            style: EncodingStyle::RandomProjection,
            seed: 0x11dc,
        }
    }
}

/// A constructed HDC encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
    /// Projection matrix (`hv_dim x dim_in`) for random projection, or
    /// position HVs for ID-level.
    proj: Matrix,
    /// Level HVs (`levels x hv_dim`) for ID-level encoding.
    level_hvs: Option<Matrix>,
}

impl Encoder {
    /// Builds an encoder from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `IdLevel` has fewer than 2 levels.
    pub fn new(config: &EncoderConfig) -> Self {
        assert!(
            config.dim_in > 0 && config.hv_dim > 0,
            "dimensions must be positive"
        );
        let mut rng = Rng64::new(config.seed);
        match config.style {
            EncodingStyle::RandomProjection => {
                let proj = Matrix::random_bipolar(config.hv_dim, config.dim_in, &mut rng);
                Self {
                    config: config.clone(),
                    proj,
                    level_hvs: None,
                }
            }
            EncodingStyle::IdLevel { levels } => {
                assert!(levels >= 2, "need at least two levels");
                // Position HVs: one bipolar HV per input feature.
                let proj = Matrix::random_bipolar(config.dim_in, config.hv_dim, &mut rng);
                // Level HVs: start random, flip a sliding window so that
                // nearby levels stay correlated (standard construction).
                let mut lv = Matrix::zeros(levels, config.hv_dim);
                let base = rng.bipolar_vec(config.hv_dim);
                let flips_per_level = config.hv_dim / (2 * (levels - 1));
                let mut current = base;
                let mut order: Vec<usize> = (0..config.hv_dim).collect();
                rng.shuffle(&mut order);
                let mut cursor = 0usize;
                for l in 0..levels {
                    lv.row_mut(l).copy_from_slice(&current);
                    for _ in 0..flips_per_level {
                        if cursor < order.len() {
                            current[order[cursor]] *= -1.0;
                            cursor += 1;
                        }
                    }
                }
                Self {
                    config: config.clone(),
                    proj,
                    level_hvs: Some(lv),
                }
            }
        }
    }

    /// The configuration used to build this encoder.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Hypervector dimensionality.
    pub fn hv_dim(&self) -> usize {
        self.config.hv_dim
    }

    /// Encodes one input feature vector into an (analog) hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the configured input dimension.
    pub fn encode(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.config.dim_in, "input dimension mismatch");
        match self.config.style {
            EncodingStyle::RandomProjection => {
                let mut hv = self.proj.matvec(x);
                unit_max(&mut hv);
                hv
            }
            EncodingStyle::IdLevel { levels } => {
                let lv = self.level_hvs.as_ref().expect("level HVs exist");
                let mut acc = vec![0.0; self.config.hv_dim];
                // Map each feature to a level across the sample's own
                // dynamic range (per-sample min-max normalization).
                let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let span = (hi - lo).max(1e-12);
                for (i, &xi) in x.iter().enumerate() {
                    let t = ((xi - lo) / span).clamp(0.0, 1.0);
                    let l = ((t * (levels - 1) as f64).round() as usize).min(levels - 1);
                    let pos = self.proj.row(i);
                    let level = lv.row(l);
                    for ((a, &p), &q) in acc.iter_mut().zip(pos).zip(level) {
                        *a += p * q; // binding by elementwise multiply
                    }
                }
                unit_max(&mut acc);
                acc
            }
        }
    }

    /// Encodes a block of samples, one per row of the row-major slice
    /// `xs`: row `s` of the result equals
    /// `self.encode(&xs[s * dim_in..(s + 1) * dim_in])` bit for bit.
    ///
    /// Random projection runs the whole block through one
    /// [`Matrix::matvec_rows`] pass; ID-level encoding encodes row by row.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or its length is not a multiple of the
    /// configured input dimension.
    pub fn encode_rows(&self, xs: &[f64]) -> Matrix {
        let dim_in = self.config.dim_in;
        assert!(
            !xs.is_empty() && xs.len().is_multiple_of(dim_in),
            "input dimension mismatch"
        );
        match self.config.style {
            EncodingStyle::RandomProjection => {
                let mut hvs = self.proj.matvec_rows(xs);
                for hv in hvs.as_mut_slice().chunks_exact_mut(self.config.hv_dim) {
                    unit_max(hv);
                }
                hvs
            }
            EncodingStyle::IdLevel { .. } => {
                let mut hvs = Matrix::zeros(xs.len() / dim_in, self.config.hv_dim);
                for (s, x) in xs.chunks_exact(dim_in).enumerate() {
                    hvs.row_mut(s).copy_from_slice(&self.encode(x));
                }
                hvs
            }
        }
    }

    /// Encodes rows `rows` of `data` in blocks of [`STREAM_BLOCK`]
    /// samples and hands each hypervector to `f` with its row index, in
    /// row order. Memory stays at one block whatever the row count.
    pub(crate) fn encode_each(
        &self,
        data: &Matrix,
        rows: Range<usize>,
        mut f: impl FnMut(usize, &[f64]),
    ) {
        let d = data.cols();
        for start in rows.clone().step_by(STREAM_BLOCK) {
            let end = (start + STREAM_BLOCK).min(rows.end);
            let hvs = self.encode_rows(&data.as_slice()[start * d..end * d]);
            for (i, hv) in (start..end).zip(hvs.as_slice().chunks_exact(hvs.cols())) {
                f(i, hv);
            }
        }
    }
}

/// Samples per [`Encoder::encode_rows`] call when a data set is streamed
/// through the encoder.
const STREAM_BLOCK: usize = 64;

/// Scales a hypervector to unit max magnitude for stable quantization.
fn unit_max(hv: &mut [f64]) {
    let m = hv.iter().fold(0.0f64, |a, &v| a.max(v.abs())).max(1e-12);
    for v in hv {
        *v /= m;
    }
}

/// Quantizes hypervector elements to `bits` bits.
///
/// `bits == 1` produces bipolar (±1) elements; larger values use a
/// symmetric uniform grid over `[-1, 1]`; `bits >= 32` returns the input
/// unchanged (the "full precision" reference point of Fig. 3C).
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn quantize_hv(hv: &[f64], bits: u8) -> Vec<f64> {
    assert!(bits > 0, "bits must be positive");
    if bits >= 32 {
        return hv.to_vec();
    }
    if bits == 1 {
        return hv
            .iter()
            .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
    }
    let levels = ((1u32 << bits) - 1) as f64;
    hv.iter()
        .map(|&v| {
            let t = ((v.clamp(-1.0, 1.0)) + 1.0) / 2.0;
            ((t * levels).round() / levels) * 2.0 - 1.0
        })
        .collect()
}

/// Maps a quantized HV element in `[-1, 1]` to its integer level index
/// for a `bits`-bit CAM cell.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 8.
pub fn element_to_level(v: f64, bits: u8) -> usize {
    assert!((1..=8).contains(&bits), "bits out of CAM range");
    let levels = ((1u32 << bits) - 1) as f64;
    let t = ((v.clamp(-1.0, 1.0)) + 1.0) / 2.0;
    (t * levels).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(hv_dim: usize) -> Encoder {
        Encoder::new(&EncoderConfig {
            dim_in: 64,
            hv_dim,
            ..EncoderConfig::default()
        })
    }

    #[test]
    fn encoding_is_deterministic() {
        let e = enc(512);
        let x: Vec<f64> = (0..64).map(|i| (i as f64 / 64.0) - 0.5).collect();
        assert_eq!(e.encode(&x), e.encode(&x));
    }

    #[test]
    fn similar_inputs_encode_similarly() {
        let e = enc(2048);
        let mut rng = Rng64::new(3);
        let x = rng.normal_vec(64, 0.0, 1.0);
        let near: Vec<f64> = x.iter().map(|&v| v + 0.01).collect();
        let far = rng.normal_vec(64, 0.0, 1.0);
        let hx = e.encode(&x);
        let s_near = xlda_num::matrix::cosine_similarity(&hx, &e.encode(&near));
        let s_far = xlda_num::matrix::cosine_similarity(&hx, &e.encode(&far));
        assert!(s_near > 0.95, "near similarity {s_near}");
        assert!(s_far < 0.5, "far similarity {s_far}");
    }

    #[test]
    fn id_level_encoder_preserves_locality() {
        let e = Encoder::new(&EncoderConfig {
            dim_in: 64,
            hv_dim: 2048,
            style: EncodingStyle::IdLevel { levels: 16 },
            seed: 9,
        });
        let mut rng = Rng64::new(4);
        let x: Vec<f64> = (0..64).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let near: Vec<f64> = x.iter().map(|&v| (v + 0.05).clamp(-1.0, 1.0)).collect();
        let far: Vec<f64> = (0..64).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let hx = e.encode(&x);
        let s_near = xlda_num::matrix::cosine_similarity(&hx, &e.encode(&near));
        let s_far = xlda_num::matrix::cosine_similarity(&hx, &e.encode(&far));
        assert!(s_near > s_far, "near {s_near} far {s_far}");
    }

    #[test]
    fn quantize_one_bit_is_bipolar() {
        let hv = [0.3, -0.7, 0.0, -0.01];
        assert_eq!(quantize_hv(&hv, 1), vec![1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn quantize_32_bits_is_identity() {
        let hv = [0.123, -0.456];
        assert_eq!(quantize_hv(&hv, 32), hv.to_vec());
    }

    #[test]
    fn quantize_error_shrinks_with_bits() {
        let e = enc(1024);
        let mut rng = Rng64::new(5);
        let hv = e.encode(&rng.normal_vec(64, 0.0, 1.0));
        let err = |bits: u8| -> f64 {
            let q = quantize_hv(&hv, bits);
            hv.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum::<f64>() / hv.len() as f64
        };
        assert!(err(2) < err(1));
        assert!(err(4) < err(2));
        assert!(err(8) < err(4));
    }

    #[test]
    fn level_mapping_roundtrips_grid_points() {
        for bits in 1..=3u8 {
            let levels = (1u32 << bits) as usize;
            for l in 0..levels {
                let v = (l as f64 / (levels - 1) as f64) * 2.0 - 1.0;
                assert_eq!(element_to_level(v, bits), l);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits must be positive")]
    fn zero_bits_panics() {
        quantize_hv(&[0.0], 0);
    }
}
