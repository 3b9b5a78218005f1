//! Property-based tests for the HDC stack.

use proptest::prelude::*;
use xlda_datagen::ClassificationSpec;
use xlda_hdc::encode::{element_to_level, quantize_hv, Encoder, EncoderConfig, EncodingStyle};
use xlda_hdc::model::{Distance, HdcModel};
use xlda_num::rng::Rng64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quantization_is_idempotent(
        hv in prop::collection::vec(-1.0f64..1.0, 1..64),
        bits in 1u8..8,
    ) {
        let q = quantize_hv(&hv, bits);
        prop_assert_eq!(quantize_hv(&q, bits), q);
    }

    #[test]
    fn quantized_values_on_grid(
        hv in prop::collection::vec(-2.0f64..2.0, 1..64),
        bits in 2u8..8,
    ) {
        let levels = ((1u32 << bits) - 1) as f64;
        for v in quantize_hv(&hv, bits) {
            prop_assert!((-1.0..=1.0).contains(&v));
            let code = (v + 1.0) / 2.0 * levels;
            prop_assert!((code - code.round()).abs() < 1e-9, "off-grid value {v}");
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_step(
        hv in prop::collection::vec(-1.0f64..1.0, 1..64),
        bits in 2u8..8,
    ) {
        let step = 2.0 / ((1u32 << bits) - 1) as f64;
        for (a, b) in hv.iter().zip(quantize_hv(&hv, bits)) {
            prop_assert!((a - b).abs() <= step / 2.0 + 1e-12);
        }
    }

    #[test]
    fn level_mapping_is_monotone(bits in 1u8..=8, a in -1.0f64..1.0, b in -1.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(element_to_level(lo, bits) <= element_to_level(hi, bits));
    }

    #[test]
    fn encoding_dimension_and_range(
        dim_in in 4usize..64,
        hv_dim in 16usize..256,
        seed in any::<u64>(),
    ) {
        let encoder = Encoder::new(&EncoderConfig {
            dim_in,
            hv_dim,
            style: EncodingStyle::RandomProjection,
            seed,
        });
        let mut rng = Rng64::new(seed ^ 1);
        let x = rng.normal_vec(dim_in, 0.0, 1.0);
        let hv = encoder.encode(&x);
        prop_assert_eq!(hv.len(), hv_dim);
        prop_assert!(hv.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        // Normalization: the largest magnitude element touches 1.
        let m = hv.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        prop_assert!((m - 1.0).abs() < 1e-9 || m == 0.0);
    }

    #[test]
    fn encoding_is_scale_covariant_in_sign(
        dim_in in 4usize..32,
        seed in any::<u64>(),
        scale in 0.1f64..10.0,
    ) {
        // Random projection then max-normalization: positive scaling of
        // the input leaves the encoded HV unchanged.
        let encoder = Encoder::new(&EncoderConfig {
            dim_in,
            hv_dim: 128,
            style: EncodingStyle::RandomProjection,
            seed,
        });
        let mut rng = Rng64::new(seed ^ 2);
        let x = rng.normal_vec(dim_in, 0.0, 1.0);
        let scaled: Vec<f64> = x.iter().map(|v| v * scale).collect();
        let a = encoder.encode(&x);
        let b = encoder.encode(&scaled);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn id_level_encoder_produces_valid_hvs(
        dim_in in 4usize..24,
        levels in 2usize..16,
        seed in any::<u64>(),
    ) {
        let encoder = Encoder::new(&EncoderConfig {
            dim_in,
            hv_dim: 128,
            style: EncodingStyle::IdLevel { levels },
            seed,
        });
        let mut rng = Rng64::new(seed ^ 3);
        let x: Vec<f64> = (0..dim_in).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let hv = encoder.encode(&x);
        prop_assert_eq!(hv.len(), 128);
        prop_assert!(hv.iter().all(|v| v.is_finite()));
    }
}

/// Bit-for-bit equality. IEEE 754 leaves NaN payloads and signs
/// unspecified, so any two NaNs compare equal; every other value,
/// signed zeros and infinities included, must match exactly.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_rows_matches_encode_bit_for_bit(
        dim_in in 1usize..20,
        hv_dim in 1usize..70,
        samples in 1usize..30,
        id_level in any::<bool>(),
        specials in 0u64..4,
        seed in any::<u64>(),
    ) {
        // Odd hv_dim and sample counts off the kernel's blocks; with
        // `specials`, some inputs are ±0.0, ±inf or NaN.
        let style = if id_level {
            EncodingStyle::IdLevel { levels: 4 }
        } else {
            EncodingStyle::RandomProjection
        };
        let encoder = Encoder::new(&EncoderConfig { dim_in, hv_dim, style, seed });
        let mut rng = Rng64::new(seed ^ 4);
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let xs: Vec<f64> = (0..samples * dim_in)
            .map(|_| {
                let x = rng.normal(0.0, 1.0);
                if rng.below(12) < specials { SPECIAL[rng.below(5) as usize] } else { x }
            })
            .collect();
        let hvs = encoder.encode_rows(&xs);
        prop_assert_eq!((hvs.rows(), hvs.cols()), (samples, hv_dim));
        for (s, x) in xs.chunks_exact(dim_in).enumerate() {
            prop_assert!(same_bits(hvs.row(s), &encoder.encode(x)), "sample {s} of {samples}");
        }
    }
}

/// FNV-1a over the bit patterns of `xs`.
fn fnv_bits(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    })
}

#[test]
fn trained_class_hvs_keep_their_bits() {
    // Digests recorded from the one-sample-at-a-time encoder: blocked
    // encoding and cached class norms may not move a bit. 517 HV rows,
    // 234 training and 130 test samples leave kernel blocks ragged; the
    // full-precision model keeps every rounding difference that 3-bit
    // quantization could hide.
    let mut spec = ClassificationSpec::isolet_like();
    spec.noise = 4.0;
    spec.train_per_class = 9;
    spec.test_per_class = 5;
    let data = spec.generate();
    let encoder = Encoder::new(&EncoderConfig {
        dim_in: data.dim(),
        hv_dim: 517,
        ..EncoderConfig::default()
    });
    for (bits, class_hvs, accuracy) in [
        (3, 0x2064_f106_3b04_64d7, 0x3fe2_b52b_52b5_2b53),
        (32, 0x75aa_147b_e68a_8902, 0x3fe3_f03f_03f0_3f04),
    ] {
        let model = HdcModel::train(&encoder, &data, bits, 2);
        let acc = model.accuracy_with(&encoder, &data, Distance::Cosine);
        assert_eq!(
            fnv_bits(model.class_hvs().as_slice()),
            class_hvs,
            "{bits}-bit"
        );
        assert_eq!(acc.to_bits(), accuracy, "{bits}-bit");
    }
}
