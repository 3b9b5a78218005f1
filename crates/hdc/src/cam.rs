//! FeFET multi-bit CAM associative memory for HDC search.
//!
//! Class hypervectors are stored as CAM levels in multi-bit FeFET cells;
//! a query is compared against every stored word in analog, with each
//! cell contributing a squared-Euclidean term through the quadratic
//! conductance law (Fig. 3D). Because peripheral circuitry cannot sense
//! thousand-cell matchlines, words are partitioned across subarrays and
//! per-subarray winners are *voted* — the aggregation-error mechanism of
//! Fig. 3F. Cell programming variation (Fig. 3G) is injected through the
//! device model's V_th spread.

use crate::encode::{element_to_level, quantize_hv, Encoder};
use crate::model::HdcModel;
use xlda_datagen::Dataset;
use xlda_device::fefet::Fefet;
use xlda_num::rng::Rng64;

/// How per-subarray results combine into a final match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Each subarray votes for its best-matching word; most votes wins
    /// (the scheme whose failure mode Fig. 3F-i illustrates).
    SubarrayVote,
    /// Per-subarray distances are digitized (saturating at the sensing
    /// resolution) and summed — costlier peripherals, fewer aggregation
    /// errors.
    DistanceSum {
        /// Largest distinguishable distance per subarray; larger analog
        /// distances saturate to this value. `None` means unquantized.
        resolution: Option<usize>,
    },
}

/// CAM search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CamSearchConfig {
    /// Bits stored per CAM cell (1..=3 for FeFET).
    pub bits_per_cell: u8,
    /// Cells per subarray matchline.
    pub subarray_cols: usize,
    /// FeFET device (its `sigma_vth` sets programming variation; use
    /// [`Fefet::with_sigma`] to sweep Fig. 3G).
    pub device: Fefet,
    /// Aggregation scheme across subarrays.
    pub aggregation: Aggregation,
    /// Program-and-verify tolerance (V): `Some(t)` re-programs cells
    /// until within `t` of the target (closed-loop MLC writing);
    /// `None` writes single-shot.
    pub verify_tolerance: Option<f64>,
}

impl Default for CamSearchConfig {
    /// 3-bit cells, 64-cell subarrays, silicon FeFET, subarray voting.
    fn default() -> Self {
        Self {
            bits_per_cell: 3,
            subarray_cols: 64,
            device: Fefet::silicon(),
            aggregation: Aggregation::SubarrayVote,
            verify_tolerance: None,
        }
    }
}

/// A CAM-mapped associative memory holding one word per class.
#[derive(Debug, Clone)]
pub struct CamAm {
    config: CamSearchConfig,
    /// Stored analog V_th per class per cell (programming error applied).
    stored_vth: Vec<Vec<f64>>,
    /// Cells per word.
    cells_per_word: usize,
}

impl CamAm {
    /// Programs the model's class HVs into CAM cells.
    ///
    /// Each HV element becomes one multi-bit cell level, programmed with
    /// the device's Gaussian V_th spread.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_cell` is outside `1..=3` or `subarray_cols`
    /// is zero.
    pub fn program(model: &HdcModel, config: &CamSearchConfig, rng: &mut Rng64) -> Self {
        assert!(
            (1..=3).contains(&config.bits_per_cell),
            "FeFET cells store 1..=3 bits"
        );
        assert!(config.subarray_cols > 0, "subarray must have cells");
        let mlc = config.device.mlc(config.bits_per_cell);
        let cells_per_word = model.hv_dim();
        let stored_vth = (0..model.classes())
            .map(|c| {
                let hv = quantize_hv(model.class_hvs().row(c), config.bits_per_cell);
                hv.iter()
                    .map(|&v| {
                        let lvl = element_to_level(v, config.bits_per_cell);
                        match config.verify_tolerance {
                            Some(tol) => mlc.program_verified(lvl, tol, 8, rng),
                            None => mlc.program(lvl, rng),
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            config: config.clone(),
            stored_vth,
            cells_per_word,
        }
    }

    /// Number of stored words (classes).
    pub fn words(&self) -> usize {
        self.stored_vth.len()
    }

    /// Number of subarray segments each word spans.
    pub fn segments(&self) -> usize {
        self.cells_per_word.div_ceil(self.config.subarray_cols)
    }

    /// Analog squared-distance contribution of one segment of one word
    /// against the query voltages.
    fn segment_distance(&self, word: usize, seg: usize, query_v: &[f64]) -> f64 {
        let lo = seg * self.config.subarray_cols;
        let hi = (lo + self.config.subarray_cols).min(self.cells_per_word);
        let stored = &self.stored_vth[word];
        let mut current = 0.0;
        for i in lo..hi {
            // Matchline current through the quadratic cell law.
            current += self
                .config
                .device
                .cam_cell_conductance(query_v[i] - stored[i]);
        }
        current
    }

    /// Searches the CAM for the best-matching word for a quantized query
    /// hypervector.
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the stored word length.
    pub fn search(&self, query_hv: &[f64]) -> usize {
        assert_eq!(query_hv.len(), self.cells_per_word, "query length mismatch");
        // Map query elements to the same V_th grid (drivers are exact).
        let mlc = self.config.device.mlc(self.config.bits_per_cell);
        let query_v: Vec<f64> = query_hv
            .iter()
            .map(|&v| mlc.level_target(element_to_level(v, self.config.bits_per_cell)))
            .collect();
        let segments = self.segments();
        match self.config.aggregation {
            Aggregation::SubarrayVote => {
                let mut votes = vec![0usize; self.words()];
                for seg in 0..segments {
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for w in 0..self.words() {
                        let d = self.segment_distance(w, seg, &query_v);
                        if d < best_d {
                            best_d = d;
                            best = w;
                        }
                    }
                    votes[best] += 1;
                }
                votes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
            Aggregation::DistanceSum { resolution } => {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for w in 0..self.words() {
                    let mut total = 0.0;
                    for seg in 0..segments {
                        let mut d = self.segment_distance(w, seg, &query_v);
                        if let Some(res) = resolution {
                            // Digitize: saturate at `res` cell-units of
                            // full mismatch current.
                            let unit = self.config.device.g_on / res as f64;
                            d = (d / unit).round().min(res as f64) * unit;
                        }
                        total += d;
                    }
                    if total < best_d {
                        best_d = total;
                        best = w;
                    }
                }
                best
            }
        }
    }

    /// Test-set accuracy of CAM-based classification.
    ///
    /// Test queries are independent, so evaluation fans out across
    /// threads (the Fig. 3F/3G sweeps run hundreds of these).
    pub fn accuracy(&self, encoder: &Encoder, data: &Dataset) -> f64 {
        let _span = xlda_obs::span!("hdc.cam");
        let n = data.test_labels.len();
        if n == 0 {
            return 0.0;
        }
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        let chunk = n.div_ceil(threads);
        let correct = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for start in (0..n).step_by(chunk) {
                let end = (start + chunk).min(n);
                handles.push(scope.spawn(move || {
                    let mut local = 0usize;
                    encoder.encode_each(&data.test, start..end, |i, hv| {
                        let hv = quantize_hv(hv, self.config.bits_per_cell);
                        if self.search(&hv) == data.test_labels[i] {
                            local += 1;
                        }
                    });
                    local
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("accuracy worker panicked"))
                .sum::<usize>()
        });
        correct as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncoderConfig;
    use crate::model::HdcModel;
    use xlda_datagen::ClassificationSpec;

    fn setup(hv_dim: usize) -> (Encoder, HdcModel, xlda_datagen::Dataset) {
        let data = ClassificationSpec::emg_like().generate();
        let encoder = Encoder::new(&EncoderConfig {
            dim_in: data.dim(),
            hv_dim,
            ..EncoderConfig::default()
        });
        let model = HdcModel::train(&encoder, &data, 3, 1);
        (encoder, model, data)
    }

    #[test]
    fn ideal_cam_matches_software_accuracy() {
        let (encoder, model, data) = setup(1024);
        let config = CamSearchConfig {
            device: Fefet::silicon().with_sigma(0.0),
            subarray_cols: 1024, // full-word matchline: no aggregation
            ..CamSearchConfig::default()
        };
        let cam = CamAm::program(&model, &config, &mut Rng64::new(1));
        let sw = model.accuracy_with(&encoder, &data, crate::model::Distance::SquaredEuclidean);
        let hw = cam.accuracy(&encoder, &data);
        assert!((sw - hw).abs() < 0.03, "sw {sw} hw {hw}");
    }

    #[test]
    fn small_subarrays_cause_aggregation_errors() {
        // Fig. 3F-ii: accuracy grows with subarray size. Needs a dataset
        // hard enough that per-segment votes actually disagree: many
        // classes, high intra-class noise.
        let mut spec = ClassificationSpec::isolet_like();
        spec.noise = 3.2;
        spec.test_per_class = 10;
        let data = spec.generate();
        let encoder = Encoder::new(&EncoderConfig {
            dim_in: data.dim(),
            hv_dim: 1024,
            ..EncoderConfig::default()
        });
        let model = HdcModel::train(&encoder, &data, 3, 1);
        let acc_at = |cols: usize| {
            let config = CamSearchConfig {
                device: Fefet::silicon().with_sigma(0.0),
                subarray_cols: cols,
                ..CamSearchConfig::default()
            };
            CamAm::program(&model, &config, &mut Rng64::new(2)).accuracy(&encoder, &data)
        };
        let tiny = acc_at(8);
        let small = acc_at(64);
        let max = acc_at(1024);
        assert!(max >= small, "small {small} max {max}");
        assert!(max > tiny, "tiny {tiny} max {max}");
    }

    #[test]
    fn paper_sigma_is_tolerated() {
        // Fig. 3G-ii: 94 mV programming sigma costs no accuracy.
        let (encoder, model, data) = setup(1024);
        let acc_at_sigma = |sigma: f64| {
            let config = CamSearchConfig {
                device: Fefet::silicon().with_sigma(sigma),
                subarray_cols: 64,
                ..CamSearchConfig::default()
            };
            CamAm::program(&model, &config, &mut Rng64::new(3)).accuracy(&encoder, &data)
        };
        let ideal = acc_at_sigma(0.0);
        let paper = acc_at_sigma(0.094);
        let extreme = acc_at_sigma(0.6);
        assert!(paper >= ideal - 0.03, "ideal {ideal} paper-sigma {paper}");
        assert!(extreme < ideal, "extreme sigma should finally hurt");
    }

    #[test]
    fn distance_sum_beats_voting_with_small_subarrays() {
        let (encoder, model, data) = setup(1024);
        let acc_with = |agg: Aggregation| {
            let config = CamSearchConfig {
                device: Fefet::silicon().with_sigma(0.0),
                subarray_cols: 16,
                aggregation: agg,
                ..CamSearchConfig::default()
            };
            CamAm::program(&model, &config, &mut Rng64::new(4)).accuracy(&encoder, &data)
        };
        let vote = acc_with(Aggregation::SubarrayVote);
        let sum = acc_with(Aggregation::DistanceSum { resolution: None });
        assert!(sum >= vote, "vote {vote} sum {sum}");
    }

    #[test]
    fn segments_cover_word() {
        let (_, model, _) = setup(1000);
        let config = CamSearchConfig {
            subarray_cols: 64,
            ..CamSearchConfig::default()
        };
        let cam = CamAm::program(&model, &config, &mut Rng64::new(5));
        assert_eq!(cam.segments(), 16); // ceil(1000/64)
        assert_eq!(cam.words(), 5);
    }

    #[test]
    #[should_panic(expected = "query length mismatch")]
    fn wrong_query_length_panics() {
        let (_, model, _) = setup(256);
        let cam = CamAm::program(&model, &CamSearchConfig::default(), &mut Rng64::new(6));
        cam.search(&[0.0; 8]);
    }
}
