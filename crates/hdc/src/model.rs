//! HDC training and software classification.

use crate::encode::{quantize_hv, Encoder};
use xlda_datagen::Dataset;
use xlda_num::matrix::{cosine_with_norms, norm, squared_euclidean, Matrix};

/// Distance used for associative search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distance {
    /// Cosine similarity (the common GPU/software choice).
    Cosine,
    /// Hamming distance on signs (binary CAM semantics).
    Hamming,
    /// Squared Euclidean (what the multi-bit FeFET CAM computes in
    /// analog, Fig. 3D) — a proxy for Euclidean distance.
    SquaredEuclidean,
}

/// A trained HDC classifier: one quantized class HV per label.
#[derive(Debug, Clone)]
pub struct HdcModel {
    class_hvs: Matrix,
    /// L2 norm of each class HV, for cosine search.
    class_norms: Vec<f64>,
    bits: u8,
}

impl HdcModel {
    /// Trains by bundling encoded training samples per class, followed by
    /// `retrain_passes` perceptron-style correction passes, then
    /// quantizing class HVs to `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `bits == 0`.
    pub fn train(encoder: &Encoder, data: &Dataset, bits: u8, retrain_passes: usize) -> Self {
        let _span = xlda_obs::span!("hdc.train");
        assert!(bits > 0, "bits must be positive");
        assert!(!data.train_labels.is_empty(), "empty training set");
        let d = encoder.hv_dim();
        let mut class_acc = Matrix::zeros(data.classes, d);
        let encoded = encoder.encode_rows(data.train.as_slice());
        for (i, &c) in data.train_labels.iter().enumerate() {
            for (slot, &v) in class_acc.row_mut(c).iter_mut().zip(encoded.row(i)) {
                *slot += v;
            }
        }
        // Retraining: misclassified samples are added to the true class
        // and subtracted from the predicted one.
        for _ in 0..retrain_passes {
            let snapshot = Self::finalize(&class_acc, bits);
            for (i, &c) in data.train_labels.iter().enumerate() {
                let hv = encoded.row(i);
                let pred = snapshot.classify_hv(&quantize_hv(hv, bits), Distance::Cosine);
                if pred != c {
                    for (slot, &v) in class_acc.row_mut(c).iter_mut().zip(hv) {
                        *slot += v;
                    }
                    for (slot, &v) in class_acc.row_mut(pred).iter_mut().zip(hv) {
                        *slot -= v;
                    }
                }
            }
        }
        Self::finalize(&class_acc, bits)
    }

    fn finalize(class_acc: &Matrix, bits: u8) -> Self {
        // Equalize class-HV L2 norms before quantizing with a *shared*
        // scale: squared-Euclidean search (the CAM's native distance)
        // only ranks like cosine when stored vectors have equal norms.
        let unit_rows: Vec<Vec<f64>> = (0..class_acc.rows())
            .map(|c| {
                let row = class_acc.row(c);
                let n = xlda_num::matrix::norm(row).max(1e-12);
                row.iter().map(|&v| v / n).collect()
            })
            .collect();
        let gmax = unit_rows
            .iter()
            .flat_map(|r| r.iter())
            .fold(0.0f64, |a, &v| a.max(v.abs()))
            .max(1e-12);
        let mut class_hvs = Matrix::zeros(class_acc.rows(), class_acc.cols());
        for (c, row) in unit_rows.iter().enumerate() {
            let scaled: Vec<f64> = row.iter().map(|&v| v / gmax).collect();
            class_hvs
                .row_mut(c)
                .copy_from_slice(&quantize_hv(&scaled, bits));
        }
        let class_norms = (0..class_hvs.rows())
            .map(|c| norm(class_hvs.row(c)))
            .collect();
        Self {
            class_hvs,
            class_norms,
            bits,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.class_hvs.rows()
    }

    /// Hypervector dimensionality.
    pub fn hv_dim(&self) -> usize {
        self.class_hvs.cols()
    }

    /// Element precision of the stored class HVs.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The stored class hypervectors (one row per class).
    pub fn class_hvs(&self) -> &Matrix {
        &self.class_hvs
    }

    /// Classifies an already-encoded, quantized hypervector.
    pub fn classify_hv(&self, hv: &[f64], distance: Distance) -> usize {
        // Cosine takes the query's norm once and each class HV's from the
        // cache.
        let hv_norm = match distance {
            Distance::Cosine => norm(hv),
            Distance::Hamming | Distance::SquaredEuclidean => 0.0,
        };
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..self.classes() {
            let stored = self.class_hvs.row(c);
            let score = match distance {
                Distance::Cosine => cosine_with_norms(hv, stored, hv_norm, self.class_norms[c]),
                Distance::Hamming => {
                    -(hv.iter()
                        .zip(stored)
                        .filter(|(&a, &b)| (a >= 0.0) != (b >= 0.0))
                        .count() as f64)
                }
                Distance::SquaredEuclidean => -squared_euclidean(hv, stored),
            };
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    /// Encodes, quantizes, and classifies a raw feature vector.
    pub fn classify(&self, encoder: &Encoder, x: &[f64], distance: Distance) -> usize {
        let hv = quantize_hv(&encoder.encode(x), self.bits);
        self.classify_hv(&hv, distance)
    }

    /// Test-set accuracy with the given distance. The encoder must be the
    /// one used at training time.
    pub fn accuracy_with(&self, encoder: &Encoder, data: &Dataset, distance: Distance) -> f64 {
        let _span = xlda_obs::span!("hdc.classify");
        let n = data.test_labels.len();
        let mut correct = 0usize;
        encoder.encode_each(&data.test, 0..n, |i, hv| {
            if self.classify_hv(&quantize_hv(hv, self.bits), distance) == data.test_labels[i] {
                correct += 1;
            }
        });
        correct as f64 / n as f64
    }

    /// Test-set accuracy with cosine distance (the software default).
    ///
    /// Note: the encoder is rebuilt deterministically from the stored
    /// dimensions, so this convenience method requires the caller to pass
    /// the dataset only.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        // The encoder cannot be reconstructed from the model alone; this
        // convenience path re-derives it from the default seed and the
        // dataset dimensionality, matching `Encoder::new` defaults used in
        // examples. For full control use `accuracy_with`.
        let encoder = Encoder::new(&crate::encode::EncoderConfig {
            dim_in: data.dim(),
            hv_dim: self.hv_dim(),
            ..crate::encode::EncoderConfig::default()
        });
        self.accuracy_with(&encoder, data, Distance::Cosine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncoderConfig;
    use xlda_datagen::ClassificationSpec;

    fn setup(hv_dim: usize, bits: u8) -> (Encoder, HdcModel, xlda_datagen::Dataset) {
        let data = ClassificationSpec::emg_like().generate();
        let encoder = Encoder::new(&EncoderConfig {
            dim_in: data.dim(),
            hv_dim,
            ..EncoderConfig::default()
        });
        let model = HdcModel::train(&encoder, &data, bits, 2);
        (encoder, model, data)
    }

    #[test]
    fn model_learns_the_easy_dataset() {
        let (encoder, model, data) = setup(2048, 3);
        let acc = model.accuracy_with(&encoder, &data, Distance::Cosine);
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(model.classes(), 5);
        assert_eq!(model.hv_dim(), 2048);
    }

    #[test]
    fn higher_precision_never_much_worse() {
        let data = ClassificationSpec::isolet_like().generate();
        let encoder = Encoder::new(&EncoderConfig {
            dim_in: data.dim(),
            hv_dim: 2048,
            ..EncoderConfig::default()
        });
        let acc_of = |bits: u8| {
            HdcModel::train(&encoder, &data, bits, 1).accuracy_with(
                &encoder,
                &data,
                Distance::Cosine,
            )
        };
        let a1 = acc_of(1);
        let a3 = acc_of(3);
        let a32 = acc_of(32);
        // Fig. 3C shape: 3-bit is iso-accurate with full precision;
        // 1-bit is no better than 3-bit.
        assert!(a3 >= a32 - 0.03, "a3 {a3} a32 {a32}");
        assert!(a1 <= a3 + 0.02, "a1 {a1} a3 {a3}");
    }

    #[test]
    fn distances_agree_on_easy_data() {
        let (encoder, model, data) = setup(2048, 3);
        let cos = model.accuracy_with(&encoder, &data, Distance::Cosine);
        let se = model.accuracy_with(&encoder, &data, Distance::SquaredEuclidean);
        // SE distance is the CAM's native function and should track
        // cosine closely on normalized HVs (the paper's proxy argument).
        assert!((cos - se).abs() < 0.05, "cos {cos} se {se}");
    }

    #[test]
    fn longer_hvs_help_binary_models() {
        let data = ClassificationSpec::isolet_like().generate();
        let acc_at = |hv_dim: usize| {
            let encoder = Encoder::new(&EncoderConfig {
                dim_in: data.dim(),
                hv_dim,
                ..EncoderConfig::default()
            });
            HdcModel::train(&encoder, &data, 1, 1).accuracy_with(&encoder, &data, Distance::Hamming)
        };
        let short = acc_at(256);
        let long = acc_at(4096);
        assert!(long >= short, "short {short} long {long}");
    }

    #[test]
    fn retraining_does_not_hurt() {
        let data = ClassificationSpec::ucihar_like().generate();
        let encoder = Encoder::new(&EncoderConfig {
            dim_in: data.dim(),
            hv_dim: 1024,
            ..EncoderConfig::default()
        });
        let plain =
            HdcModel::train(&encoder, &data, 2, 0).accuracy_with(&encoder, &data, Distance::Cosine);
        let retrained =
            HdcModel::train(&encoder, &data, 2, 3).accuracy_with(&encoder, &data, Distance::Cosine);
        assert!(
            retrained >= plain - 0.02,
            "plain {plain} retrained {retrained}"
        );
    }
}
