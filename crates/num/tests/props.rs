//! Property-based tests for the numerical substrate.

use proptest::prelude::*;
use xlda_num::matrix::{cosine_similarity, dot, norm, squared_euclidean, Matrix};
use xlda_num::rng::Rng64;
use xlda_num::solve::{gauss_seidel, thomas_tridiagonal};
use xlda_num::stats::{mean, pearson, std_dev, Histogram};

proptest! {
    #[test]
    fn uniform_always_in_unit_interval(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        for _ in 0..100 {
            let x = rng.uniform();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_always_in_range(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = Rng64::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..50)) {
        let mut rng = Rng64::new(seed);
        let mut original = v.clone();
        rng.shuffle(&mut v);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(original, v);
    }

    #[test]
    fn sample_indices_distinct_and_bounded(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
        let k = ((n as f64 * frac) as usize).min(n);
        let mut rng = Rng64::new(seed);
        let mut idx = rng.sample_indices(n, k);
        prop_assert_eq!(idx.len(), k);
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(idx.len(), k);
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    #[test]
    fn mean_bounded_by_extremes(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let m = mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn std_dev_shift_invariant(xs in prop::collection::vec(-1e3f64..1e3, 2..50), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((std_dev(&xs) - std_dev(&shifted)).abs() < 1e-6);
    }

    #[test]
    fn pearson_in_unit_ball(
        xy in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..50)
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        let r = pearson(&x, &y);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
    }

    #[test]
    fn histogram_counts_every_sample(xs in prop::collection::vec(-10.0f64..10.0, 0..100), bins in 1usize..20) {
        let mut h = Histogram::new(-5.0, 5.0, bins);
        for &x in &xs {
            h.add(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn transpose_is_involution(r in 1usize..12, c in 1usize..12, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let m = Matrix::random_normal(r, c, 0.0, 1.0, &mut rng);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_is_linear(r in 1usize..10, c in 1usize..10, seed in any::<u64>(), a in -3.0f64..3.0) {
        let mut rng = Rng64::new(seed);
        let m = Matrix::random_normal(r, c, 0.0, 1.0, &mut rng);
        let x = rng.normal_vec(c, 0.0, 1.0);
        let scaled: Vec<f64> = x.iter().map(|v| a * v).collect();
        let y1 = m.matvec(&scaled);
        let y2: Vec<f64> = m.matvec(&x).iter().map(|v| a * v).collect();
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn matmul_matches_matvec_per_column(r in 1usize..8, k in 1usize..8, c in 1usize..8, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let a = Matrix::random_normal(r, k, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(k, c, 0.0, 1.0, &mut rng);
        let p = a.matmul(&b);
        for j in 0..c {
            let col = a.matvec(&b.col(j));
            for (i, &cv) in col.iter().enumerate() {
                prop_assert!((p.at(i, j) - cv).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cauchy_schwarz(x in prop::collection::vec(-1e2f64..1e2, 1..30), seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let y = rng.normal_vec(x.len(), 0.0, 10.0);
        prop_assert!(dot(&x, &y).abs() <= norm(&x) * norm(&y) + 1e-6);
        let cs = cosine_similarity(&x, &y);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&cs));
    }

    #[test]
    fn squared_euclidean_is_metric_like(x in prop::collection::vec(-1e2f64..1e2, 1..30)) {
        prop_assert!(squared_euclidean(&x, &x) < 1e-9);
        let zeros = vec![0.0; x.len()];
        let d = squared_euclidean(&x, &zeros);
        prop_assert!((d - dot(&x, &x)).abs() < 1e-6 * (1.0 + d));
    }

    #[test]
    fn thomas_solution_satisfies_system(n in 2usize..20, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        // Diagonally dominant tridiagonal system.
        let sub: Vec<f64> = (0..n - 1).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let sup: Vec<f64> = (0..n - 1).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
        let diag: Vec<f64> = (0..n).map(|_| 3.0 + rng.uniform()).collect();
        let rhs: Vec<f64> = (0..n).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
        let x = thomas_tridiagonal(&sub, &diag, &sup, &rhs);
        for i in 0..n {
            let mut lhs = diag[i] * x[i];
            if i > 0 {
                lhs += sub[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                lhs += sup[i] * x[i + 1];
            }
            prop_assert!((lhs - rhs[i]).abs() < 1e-8, "row {i}: {lhs} vs {}", rhs[i]);
        }
    }

    #[test]
    fn gauss_seidel_converges_on_dominant_systems(n in 1usize..10, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let mut a = Matrix::random_normal(n, n, 0.0, 0.3, &mut rng);
        for i in 0..n {
            *a.at_mut(i, i) = 2.0 + n as f64 * 0.3; // force dominance
        }
        let b = rng.normal_vec(n, 0.0, 1.0);
        let mut x = vec![0.0; n];
        let info = gauss_seidel(&a, &b, &mut x, 1e-10, 500);
        prop_assert!(info.converged, "residual {}", info.residual);
        let r = a.matvec(&x);
        for (u, v) in r.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6);
        }
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

/// `n` normal draws; with `specials > 0`, about one in `12 / specials`
/// is replaced by ±0.0, ±inf or NaN.
fn with_specials(rng: &mut Rng64, n: usize, specials: u64) -> Vec<f64> {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    (0..n)
        .map(|_| {
            let x = rng.normal(0.0, 2.0);
            if rng.below(12) < specials {
                SPECIAL[rng.below(5) as usize]
            } else {
                x
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matvec_rows_matches_matvec_bit_for_bit(
        rows in 1usize..21,
        cols in 1usize..13,
        samples in 1usize..35,
        specials in 0u64..4,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::new(seed);
        let m = Matrix::from_vec(rows, cols, with_specials(&mut rng, rows * cols, specials));
        let xs = with_specials(&mut rng, samples * cols, specials);
        let y = m.matvec_rows(&xs);
        prop_assert_eq!((y.rows(), y.cols()), (samples, rows));
        for (s, x) in xs.chunks_exact(cols).enumerate() {
            prop_assert!(same_bits(y.row(s), &m.matvec(x)), "sample {s} of {samples}");
        }
    }
}

#[test]
fn matvec_rows_one_column_and_signed_zeros() {
    // One column, block-sized and ragged sample counts: every product is
    // -0.0, and both paths sum from +0.0, so every output is +0.0.
    for samples in [1, 7, 8, 9, 17] {
        let m = Matrix::filled(5, 1, 1.0);
        let xs = vec![-0.0; samples];
        let y = m.matvec_rows(&xs);
        for s in 0..samples {
            assert!(same_bits(y.row(s), &m.matvec(&xs[s..s + 1])));
            assert!(y.row(s).iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        }
    }
}
