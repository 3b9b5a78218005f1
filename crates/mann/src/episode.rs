//! End-to-end N-way K-shot episode evaluation (Fig. 4E).
//!
//! Each episode samples unseen classes, writes hashed support embeddings
//! into the associative memory, and classifies query embeddings by
//! nearest signature. Variants differ in where hashing and search run:
//! exact software, software LSH, RRAM crossbar LSH, or RRAM crossbar
//! ternary LSH with a variation-aware TCAM.

use crate::am::{RramTcam, SignatureAm, SoftwareAm, TcamMapping};
use crate::lsh::{Hasher, RramLsh, RramTlsh, SoftwareLsh};
use crate::nn::SmallCnn;
use crate::xbar_cnn::CrossbarCnn;
use xlda_crossbar::stochastic::StochasticProjection;
use xlda_crossbar::{CrossbarConfig, Fidelity};
use xlda_datagen::fewshot::ImageSet;
use xlda_device::rram::Rram;
use xlda_num::rng::Rng64;

/// Enrollment-time and query-time hasher pair (they differ when device
/// state drifts between enrollment and query).
type HasherPair = (Box<dyn Hasher>, Box<dyn Hasher>);

/// Which hardware/software stack executes hashing and search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MannVariant {
    /// Exact cosine over raw embeddings (software skyline).
    SoftwareCosine,
    /// Software sign-random-projection LSH + exact Hamming AM.
    SoftwareLsh {
        /// Signature length.
        bits: usize,
    },
    /// RRAM stochastic-crossbar LSH + RRAM TCAM.
    RramLsh {
        /// Signature length.
        bits: usize,
        /// Conductance relaxation (decades of time) elapsing between
        /// support enrollment and query hashing — the source of the
        /// unstable bits in Fig. 4C.
        relax_decades: f64,
    },
    /// RRAM ternary LSH (don't-care states) + RRAM TCAM.
    RramTlsh {
        /// Signature length.
        bits: usize,
        /// Conductance relaxation (decades of time) elapsing between
        /// support enrollment and query hashing.
        relax_decades: f64,
        /// Don't-care threshold as a fraction of mean |projection|.
        threshold_frac: f64,
    },
    /// The complete paper pipeline: CNN on tiled crossbars, ternary LSH
    /// on a stochastic crossbar, search in an RRAM TCAM — every compute
    /// kernel in-memory (Sec. IV: "all essential compute tasks ...
    /// realized via RRAM crossbars").
    RramEndToEnd {
        /// Signature length.
        bits: usize,
        /// Conductance relaxation between enrollment and query.
        relax_decades: f64,
        /// Don't-care threshold as a fraction of mean |projection|.
        threshold_frac: f64,
    },
}

/// Episode evaluation settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeConfig {
    /// Classes per episode.
    pub n_way: usize,
    /// Support examples per class.
    pub k_shot: usize,
    /// Query examples per class.
    pub queries_per_way: usize,
    /// Number of episodes to average.
    pub episodes: usize,
    /// Seed for episode sampling and hardware instances.
    pub seed: u64,
}

impl Default for EpisodeConfig {
    /// 5-way 1-shot, 5 queries per class, 20 episodes.
    fn default() -> Self {
        Self {
            n_way: 5,
            k_shot: 1,
            queries_per_way: 5,
            episodes: 20,
            seed: 0xe9,
        }
    }
}

/// Mean few-shot accuracy of a MANN variant over sampled episodes.
pub fn evaluate(
    net: &SmallCnn,
    data: &ImageSet,
    variant: MannVariant,
    config: &EpisodeConfig,
) -> f64 {
    let _span = xlda_obs::span!("mann.episodes");
    let mut rng = Rng64::new(config.seed);
    let emb_dim = net.emb_dim();
    let device = Rram::taox();

    // Hardware hashers are fabricated once and reused across episodes.
    // For RRAM variants the conductances *relax* between support
    // enrollment and query time, so the enroll-time and query-time
    // hashers see different device states (the Fig. 4C instability).
    let mut hw_rng = rng.fork();
    // The embedding path: software CNN, or the CNN mapped onto tiled
    // crossbars for the end-to-end variant.
    let xcnn: Option<CrossbarCnn> = match variant {
        MannVariant::RramEndToEnd { .. } => {
            let cfg = CrossbarConfig {
                rows: 64,
                cols: 64,
                dac_bits: 8,
                adc_bits: 8,
                read_noise: 0.003,
                r_wire: 0.2,
                ..CrossbarConfig::default()
            };
            Some(CrossbarCnn::program(net, &cfg, Fidelity::Fast, &mut hw_rng))
        }
        _ => None,
    };
    let embed = |img: &[f64]| -> Vec<f64> {
        match &xcnn {
            Some(x) => x.embed(img),
            None => net.embed(img),
        }
    };
    let hashers: Option<HasherPair> = match variant {
        MannVariant::SoftwareCosine => None,
        MannVariant::SoftwareLsh { bits } => {
            let h = SoftwareLsh::new(emb_dim, bits, &mut hw_rng);
            Some((Box::new(h.clone()), Box::new(h)))
        }
        MannVariant::RramLsh {
            bits,
            relax_decades,
        } => {
            let proj = StochasticProjection::new(emb_dim, bits, &device, &mut hw_rng);
            let mut drifted = proj.clone();
            drifted.relax(relax_decades, &mut hw_rng);
            Some((
                Box::new(RramLsh { projection: proj }),
                Box::new(RramLsh {
                    projection: drifted,
                }),
            ))
        }
        MannVariant::RramTlsh {
            bits,
            relax_decades,
            threshold_frac,
        }
        | MannVariant::RramEndToEnd {
            bits,
            relax_decades,
            threshold_frac,
        } => {
            let proj = StochasticProjection::new(emb_dim, bits, &device, &mut hw_rng);
            let mut drifted = proj.clone();
            drifted.relax(relax_decades, &mut hw_rng);
            // Calibrate the don't-care threshold on real embeddings from
            // the background split (a held-out calibration set).
            let probes: Vec<Vec<f64>> = data
                .background
                .iter()
                .take(4)
                .flat_map(|class| class.iter().take(2))
                .map(|img| embed(img).iter().map(|&v| v.max(0.0)).collect())
                .collect();
            let threshold = proj.calibrate_threshold(&probes, threshold_frac);
            // Ternary signatures are assigned at *enrollment*: marginal
            // (unstable) bits become don't-cares in the stored word.
            // Queries use plain binary hashing on the drifted devices.
            Some((
                Box::new(RramTlsh {
                    projection: proj,
                    threshold,
                }),
                Box::new(RramLsh {
                    projection: drifted,
                }),
            ))
        }
    };
    let uses_rram_tcam = matches!(
        variant,
        MannVariant::RramLsh { .. }
            | MannVariant::RramTlsh { .. }
            | MannVariant::RramEndToEnd { .. }
    );

    // Episodes are sampled sequentially (one RNG stream) but evaluated in
    // parallel: each episode's hardware instances derive from its own
    // seed, so the result is independent of thread scheduling.
    let episodes: Vec<_> = (0..config.episodes)
        .map(|ep| {
            (
                ep,
                data.sample_episode(
                    config.n_way,
                    config.k_shot,
                    config.queries_per_way,
                    &mut rng,
                ),
            )
        })
        .collect();
    let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = episodes
            .iter()
            .map(|(ep, episode)| {
                let hashers = &hashers;
                let device = &device;
                let embed = &embed;
                scope.spawn(move || {
                    run_episode(
                        embed,
                        episode,
                        hashers,
                        uses_rram_tcam,
                        device,
                        config.seed ^ (*ep as u64),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("episode worker panicked"))
            .collect()
    });
    let total_correct: usize = results.iter().map(|(c, _)| c).sum();
    let total_queries: usize = results.iter().map(|(_, q)| q).sum();
    total_correct as f64 / total_queries.max(1) as f64
}

/// Evaluates one episode, returning (correct, queries).
fn run_episode(
    embed: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    episode: &xlda_datagen::Episode,
    hashers: &Option<HasherPair>,
    uses_rram_tcam: bool,
    device: &Rram,
    tcam_seed: u64,
) -> (usize, usize) {
    let mut correct = 0usize;
    let mut queries = 0usize;
    match hashers {
        None => {
            let mut am = SoftwareAm::new();
            for (img, label) in &episode.support {
                am.write(embed(img), *label);
            }
            for (img, label) in &episode.query {
                if am.query_cosine(&embed(img)) == *label {
                    correct += 1;
                }
                queries += 1;
            }
        }
        Some((enroll, query_time)) => {
            if uses_rram_tcam {
                let mut am = RramTcam::new(device, TcamMapping::VariationAware, tcam_seed);
                for (img, label) in &episode.support {
                    am.write(&enroll.signature(&embed(img)), *label);
                }
                for (img, label) in &episode.query {
                    if am.query(&query_time.signature(&embed(img))) == *label {
                        correct += 1;
                    }
                    queries += 1;
                }
            } else {
                let mut am = SignatureAm::new();
                for (img, label) in &episode.support {
                    am.write(enroll.signature(&embed(img)), *label);
                }
                for (img, label) in &episode.query {
                    if am.query(&query_time.signature(&embed(img))) == *label {
                        correct += 1;
                    }
                    queries += 1;
                }
            }
        }
    }
    (correct, queries)
}

/// Accuracy as a function of hash signature length for a fixed variant
/// constructor — the x-axis sweep of Fig. 4E.
pub fn accuracy_vs_bits<F>(
    net: &SmallCnn,
    data: &ImageSet,
    bit_lengths: &[usize],
    config: &EpisodeConfig,
    make_variant: F,
) -> Vec<(usize, f64)>
where
    F: Fn(usize) -> MannVariant,
{
    bit_lengths
        .iter()
        .map(|&bits| (bits, evaluate(net, data, make_variant(bits), config)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{train_controller, TrainConfig};
    use xlda_datagen::fewshot::FewShotSpec;

    fn trained() -> (SmallCnn, ImageSet) {
        let data = FewShotSpec {
            background_classes: 8,
            eval_classes: 10,
            samples_per_class: 8,
            ..FewShotSpec::default()
        }
        .generate();
        let (net, _) = train_controller(
            &data,
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        (net, data)
    }

    fn quick() -> EpisodeConfig {
        EpisodeConfig {
            episodes: 10,
            ..EpisodeConfig::default()
        }
    }

    #[test]
    fn software_cosine_beats_chance_decisively() {
        let (net, data) = trained();
        let acc = evaluate(&net, &data, MannVariant::SoftwareCosine, &quick());
        assert!(acc > 0.6, "accuracy {acc} (chance 0.2)");
    }

    #[test]
    fn longer_hashes_approach_cosine_accuracy() {
        // Fig. 4E: hashing loses accuracy at short signatures and
        // recovers it as the signature grows.
        let (net, data) = trained();
        let cfg = quick();
        let cosine = evaluate(&net, &data, MannVariant::SoftwareCosine, &cfg);
        let sweep = accuracy_vs_bits(&net, &data, &[16, 256], &cfg, |bits| {
            MannVariant::SoftwareLsh { bits }
        });
        let short = sweep[0].1;
        let long = sweep[1].1;
        assert!(long >= short, "short {short} long {long}");
        assert!(long >= cosine - 0.08, "long {long} cosine {cosine}");
    }

    #[test]
    fn rram_variants_work_and_tlsh_helps() {
        // Stress the unstable-bit mechanism: short signatures, long
        // drift, harder episodes (Fig. 4C conditions).
        let (net, data) = trained();
        let cfg = EpisodeConfig {
            n_way: 8,
            episodes: 15,
            ..EpisodeConfig::default()
        };
        let lsh = evaluate(
            &net,
            &data,
            MannVariant::RramLsh {
                bits: 24,
                relax_decades: 8.0,
            },
            &cfg,
        );
        let tlsh = evaluate(
            &net,
            &data,
            MannVariant::RramTlsh {
                bits: 24,
                relax_decades: 8.0,
                threshold_frac: 0.3,
            },
            &cfg,
        );
        assert!(lsh > 0.2, "rram lsh accuracy {lsh}");
        assert!(tlsh >= lsh, "tlsh {tlsh} lsh {lsh}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (net, data) = trained();
        let cfg = quick();
        let a = evaluate(&net, &data, MannVariant::SoftwareLsh { bits: 64 }, &cfg);
        let b = evaluate(&net, &data, MannVariant::SoftwareLsh { bits: 64 }, &cfg);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod end_to_end_tests {
    use super::*;
    use crate::controller::{train_controller, TrainConfig};
    use xlda_datagen::fewshot::FewShotSpec;

    #[test]
    fn all_rram_pipeline_beats_chance_decisively() {
        // The paper's headline: few-shot learning works end-to-end with
        // CNN, hashing, and search all on RRAM crossbars.
        let data = FewShotSpec {
            background_classes: 8,
            eval_classes: 10,
            samples_per_class: 8,
            ..FewShotSpec::default()
        }
        .generate();
        let (net, _) = train_controller(
            &data,
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let cfg = EpisodeConfig {
            episodes: 8,
            ..EpisodeConfig::default() // 5-way 1-shot
        };
        let software = evaluate(&net, &data, MannVariant::SoftwareCosine, &cfg);
        let rram = evaluate(
            &net,
            &data,
            MannVariant::RramEndToEnd {
                bits: 128,
                relax_decades: 3.0,
                threshold_frac: 0.2,
            },
            &cfg,
        );
        assert!(rram > 0.5, "all-RRAM accuracy {rram} (chance 0.2)");
        // The paper's own 128-bit experimental demonstration "suggests a
        // degradation in accuracy versus a software-based cosine
        // distance" — we accept the same gap and recover it with longer
        // hashes in Fig. 4E.
        assert!(
            rram >= software - 0.35,
            "rram {rram} vs software {software}"
        );
    }
}
