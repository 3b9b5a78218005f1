//! Workspace-level determinism: every Monte-Carlo pipeline must be a
//! pure function of its seeds, end to end. This is what makes the
//! triage methodology auditable — a reported number can be regenerated
//! bit-for-bit.

use xlda::core::evaluate::{HdcScenario, Scenario};
use xlda::crossbar::stochastic::StochasticProjection;
use xlda::crossbar::{Crossbar, CrossbarConfig, Fidelity};
use xlda::datagen::fewshot::FewShotSpec;
use xlda::datagen::ClassificationSpec;
use xlda::device::rram::Rram;
use xlda::evacam::acam::{AcamArray, AcamConfig, TreeNode};
use xlda::evacam::variation::{sensing_error_probability, CellVariation};
use xlda::num::{Matrix, Rng64};
use xlda::syssim::alp::run_streams;
use xlda::syssim::system::SystemConfig;
use xlda::syssim::workload::{cnn_trace, lstm_trace};

#[test]
fn datasets_are_pure_functions_of_seed() {
    let a = ClassificationSpec::isolet_like().generate();
    let b = ClassificationSpec::isolet_like().generate();
    assert_eq!(a.train, b.train);
    let fa = FewShotSpec::default().generate();
    let fb = FewShotSpec::default().generate();
    assert_eq!(fa.eval[0][0], fb.eval[0][0]);
}

#[test]
fn crossbar_programming_and_mvm_deterministic() {
    let cfg = CrossbarConfig {
        rows: 16,
        cols: 16,
        ..CrossbarConfig::default()
    };
    let run = || {
        let mut rng = Rng64::new(42);
        let w = Matrix::random_normal(16, 16, 0.0, 0.5, &mut rng);
        let xbar = Crossbar::program(&cfg, &w, &mut rng);
        let x = rng.normal_vec(16, 0.0, 0.3);
        xbar.mvm(&x, Fidelity::Full)
    };
    assert_eq!(run(), run());
}

#[test]
fn stochastic_hashing_deterministic() {
    let dev = Rram::taox();
    let run = || {
        let mut rng = Rng64::new(7);
        let mut proj = StochasticProjection::new(32, 64, &dev, &mut rng);
        proj.relax(4.0, &mut rng);
        let x: Vec<f64> = (0..32).map(|_| rng.uniform()).collect();
        (proj.hash(&x), proj.ternary_hash(&x, 1e-7))
    };
    assert_eq!(run(), run());
}

#[test]
fn monte_carlo_variation_analysis_deterministic() {
    let cfg = xlda::circuit::matchline::MatchlineConfig::default();
    let var = CellVariation::default();
    let run = || {
        let mut rng = Rng64::new(3);
        sensing_error_probability(&cfg, &var, 64, 2, 5_000, &mut rng)
    };
    assert_eq!(run(), run());
}

#[test]
fn acam_inference_deterministic() {
    let tree = TreeNode::Split {
        feature: 0,
        threshold: 0.5,
        left: Box::new(TreeNode::Leaf { class: 0 }),
        right: Box::new(TreeNode::Leaf { class: 1 }),
    };
    let (rows, labels) = tree.to_acam_rows(2);
    let run = || {
        let mut rng = Rng64::new(11);
        let acam = AcamArray::program(&rows, &labels, AcamConfig::default(), &mut rng);
        let mut out = Vec::new();
        for i in 0..50 {
            let q = [i as f64 / 50.0, 0.5];
            out.push(acam.classify(&q, &mut rng));
        }
        out
    };
    assert_eq!(run(), run());
}

#[test]
fn system_and_alp_simulation_deterministic() {
    let streams = [cnn_trace(4), lstm_trace(8, 256)];
    let a = run_streams(&SystemConfig::with_crossbar(), &streams);
    let b = run_streams(&SystemConfig::with_crossbar(), &streams);
    assert_eq!(a, b);
}

#[test]
fn full_candidate_evaluation_deterministic() {
    let s = HdcScenario::default();
    assert_eq!(s.candidates().unwrap(), s.candidates().unwrap());
}

#[test]
fn parallel_accuracy_matches_itself_across_runs() {
    // The thread-parallel CAM accuracy path must not depend on thread
    // scheduling.
    use xlda::device::fefet::Fefet;
    use xlda::hdc::cam::{Aggregation, CamAm, CamSearchConfig};
    use xlda::hdc::encode::{Encoder, EncoderConfig};
    use xlda::hdc::model::HdcModel;
    let mut spec = ClassificationSpec::emg_like();
    spec.train_per_class = 10;
    spec.test_per_class = 6;
    let data = spec.generate();
    let encoder = Encoder::new(&EncoderConfig {
        dim_in: data.dim(),
        hv_dim: 256,
        ..EncoderConfig::default()
    });
    let model = HdcModel::train(&encoder, &data, 3, 1);
    let config = CamSearchConfig {
        bits_per_cell: 3,
        subarray_cols: 32,
        device: Fefet::silicon(),
        aggregation: Aggregation::SubarrayVote,
        verify_tolerance: None,
    };
    let acc = |seed: u64| {
        CamAm::program(&model, &config, &mut Rng64::new(seed)).accuracy(&encoder, &data)
    };
    assert_eq!(acc(5), acc(5));
    // And the per-episode parallel MANN path too.
    use xlda::mann::controller::{train_controller, TrainConfig};
    use xlda::mann::episode::{evaluate, EpisodeConfig, MannVariant};
    let imgs = FewShotSpec {
        background_classes: 4,
        eval_classes: 6,
        samples_per_class: 6,
        ..FewShotSpec::default()
    }
    .generate();
    let (net, _) = train_controller(
        &imgs,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );
    let cfg = EpisodeConfig {
        episodes: 6,
        ..EpisodeConfig::default()
    };
    let e1 = evaluate(&net, &imgs, MannVariant::SoftwareLsh { bits: 32 }, &cfg);
    let e2 = evaluate(&net, &imgs, MannVariant::SoftwareLsh { bits: 32 }, &cfg);
    assert_eq!(e1, e2);
}
