//! Controller training on the background class split.
//!
//! Following the standard Omniglot protocol (and the paper's MANN), the
//! CNN is trained as a plain classifier on *background* classes; its
//! penultimate-layer embedding then generalizes to unseen classes, which
//! are learned by writing embeddings into the associative memory.

use crate::nn::SmallCnn;
use xlda_datagen::fewshot::{ImageSet, IMAGE_SIDE};
use xlda_num::rng::Rng64;

/// Training hyperparameters for the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Embedding dimensionality.
    pub emb_dim: usize,
    /// SGD epochs over the background split.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    /// 64-d embeddings, 5 epochs, lr 0.01.
    fn default() -> Self {
        Self {
            emb_dim: 64,
            epochs: 5,
            lr: 0.01,
            seed: 0xc0_47,
        }
    }
}

/// Trains the controller CNN on the background split and reports the
/// final background training accuracy.
pub fn train_controller(data: &ImageSet, config: &TrainConfig) -> (SmallCnn, f64) {
    let _span = xlda_obs::span!("mann.train");
    let classes = data.background.len();
    let mut rng = Rng64::new(config.seed);
    let mut net = SmallCnn::new(IMAGE_SIDE, config.emb_dim, classes, &mut rng);

    // Flatten (image, label) pairs and shuffle each epoch.
    let mut samples: Vec<(usize, usize)> = Vec::new();
    for (c, imgs) in data.background.iter().enumerate() {
        for s in 0..imgs.len() {
            samples.push((c, s));
        }
    }
    for epoch in 0..config.epochs {
        rng.shuffle(&mut samples);
        // Simple schedule: halve the rate in the final epoch.
        let lr = if epoch + 1 == config.epochs {
            config.lr / 2.0
        } else {
            config.lr
        };
        for &(c, s) in &samples {
            net.train_step(&data.background[c][s], c, lr);
        }
    }

    let mut correct = 0usize;
    for &(c, s) in &samples {
        let logits = net.logits(&data.background[c][s]);
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == c {
            correct += 1;
        }
    }
    let acc = correct as f64 / samples.len() as f64;
    (net, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_datagen::fewshot::FewShotSpec;
    use xlda_num::matrix::cosine_similarity;

    fn tiny_set() -> ImageSet {
        FewShotSpec {
            background_classes: 8,
            eval_classes: 6,
            samples_per_class: 8,
            ..FewShotSpec::default()
        }
        .generate()
    }

    #[test]
    fn controller_learns_background_classes() {
        let data = tiny_set();
        let (_, acc) = train_controller(
            &data,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        assert!(acc > 0.8, "background accuracy {acc}");
    }

    #[test]
    fn embeddings_cluster_unseen_classes() {
        // The embedding must transfer: same-class eval images should be
        // closer in cosine than cross-class ones.
        let data = tiny_set();
        let (net, _) = train_controller(
            &data,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
        let e_a0 = net.embed(&data.eval[0][0]);
        let e_a1 = net.embed(&data.eval[0][1]);
        let e_b0 = net.embed(&data.eval[1][0]);
        let within = cosine_similarity(&e_a0, &e_a1);
        let across = cosine_similarity(&e_a0, &e_b0);
        assert!(within > across, "within {within} across {across}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = tiny_set();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let (net_a, acc_a) = train_controller(&data, &cfg);
        let (net_b, acc_b) = train_controller(&data, &cfg);
        assert_eq!(acc_a, acc_b);
        assert_eq!(net_a.embed(&data.eval[0][0]), net_b.embed(&data.eval[0][0]));
    }
}
