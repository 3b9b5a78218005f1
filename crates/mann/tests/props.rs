//! Property-based tests for the MANN stack.

use proptest::prelude::*;
use xlda_datagen::fewshot::FewShotSpec;
use xlda_mann::am::{SignatureAm, SoftwareAm};
use xlda_mann::controller::{train_controller, TrainConfig};
use xlda_mann::lsh::{Hasher, SoftwareLsh};
use xlda_mann::nn::{softmax, SmallCnn, Tensor};
use xlda_num::rng::Rng64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-50.0f64..50.0, 1..20)) {
        let p = softmax(&logits);
        prop_assert_eq!(p.len(), logits.len());
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_is_shift_invariant(logits in prop::collection::vec(-20.0f64..20.0, 1..10), shift in -20.0f64..20.0) {
        let shifted: Vec<f64> = logits.iter().map(|l| l + shift).collect();
        let a = softmax(&logits);
        let b = softmax(&shifted);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn embeddings_are_unit_norm_or_zero(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let net = SmallCnn::new(8, 16, 3, &mut rng);
        let img: Vec<f64> = (0..64).map(|_| rng.uniform()).collect();
        let e = net.embed(&img);
        let n = xlda_num::matrix::norm(&e);
        prop_assert!(n.abs() < 1e-9 || (n - 1.0).abs() < 1e-9, "norm {n}");
    }

    #[test]
    fn train_step_returns_finite_loss(seed in any::<u64>(), label in 0usize..3) {
        let mut rng = Rng64::new(seed);
        let mut net = SmallCnn::new(8, 8, 3, &mut rng);
        let img: Vec<f64> = (0..64).map(|_| rng.uniform()).collect();
        let loss = net.train_step(&img, label, 0.01);
        prop_assert!(loss.is_finite() && loss >= 0.0);
    }

    #[test]
    fn tensor_roundtrip(c in 1usize..4, h in 1usize..8, w in 1usize..8, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let data = rng.normal_vec(c * h * w, 0.0, 1.0);
        let t = Tensor::from_vec(c, h, w, data.clone());
        prop_assert_eq!(t.data, data);
        prop_assert_eq!((t.c, t.h, t.w), (c, h, w));
    }

    #[test]
    fn lsh_signature_is_bipolar_and_deterministic(
        dim in 2usize..32,
        bits in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::new(seed);
        let lsh = SoftwareLsh::new(dim, bits, &mut rng);
        let x = rng.normal_vec(dim, 0.0, 1.0);
        let s = lsh.signature(&x);
        prop_assert_eq!(s.len(), bits);
        prop_assert!(s.iter().all(|&b| b == 1 || b == -1));
        prop_assert_eq!(s, lsh.signature(&x));
    }

    #[test]
    fn lsh_sign_flip_inverts_signature(dim in 2usize..32, bits in 1usize..32, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let lsh = SoftwareLsh::new(dim, bits, &mut rng);
        let x = rng.normal_vec(dim, 0.0, 1.0);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        let a = lsh.signature(&x);
        let b = lsh.signature(&neg);
        // Sign projections flip with the input (ties break toward +1, so
        // allow equality only on exact-zero projections — measure zero).
        let flipped = a.iter().zip(&b).filter(|(x, y)| **x != **y).count();
        prop_assert!(flipped >= bits.saturating_sub(1), "{flipped}/{bits} flipped");
    }

    #[test]
    fn am_returns_stored_label_for_stored_key(
        entries in 1usize..10,
        dim in 2usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::new(seed);
        let mut sw = SoftwareAm::new();
        let mut sig = SignatureAm::new();
        let mut keys = Vec::new();
        for label in 0..entries {
            let fv = rng.normal_vec(dim, 0.0, 1.0);
            let s: Vec<i8> = fv.iter().map(|&v| if v >= 0.0 { 1 } else { -1 }).collect();
            sw.write(fv.clone(), label);
            sig.write(s.clone(), label);
            keys.push((fv, s, label));
        }
        // Exact stored keys must return a label whose entry is at
        // distance zero (ties possible between identical signatures).
        for (fv, s, label) in &keys {
            let got = sw.query_cosine(fv);
            prop_assert!(got < entries);
            let got_sig = sig.query(s);
            prop_assert!(got_sig < entries);
            let _ = label;
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
fn trained_controller_keeps_its_bits() {
    // Digests recorded from the one-output-at-a-time CNN: the blocked
    // convolution and linear passes may not move a bit of training or
    // of the embeddings.
    let data = FewShotSpec {
        background_classes: 6,
        eval_classes: 4,
        samples_per_class: 6,
        ..FewShotSpec::default()
    }
    .generate();
    let (net, acc) = train_controller(
        &data,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    );
    let mut outputs = Vec::new();
    for img in data.eval.iter().flatten() {
        outputs.extend(net.embed(img));
        outputs.extend(net.logits(img));
    }
    assert_eq!(fnv_bits(&outputs), 0xe076_3128_cc37_22bc);
    assert_eq!(acc.to_bits(), 1.0f64.to_bits());
}
