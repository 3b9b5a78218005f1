//! Array-level FOM computation (the heart of the Eva-CAM reproduction).

use crate::design::{CamConfig, CamError, DataKind, MatchKind};
use xlda_circuit::decoder::Decoder;
use xlda_circuit::error::ceil_log2;
use xlda_circuit::gate::{BufferChain, Gate, GateKind};
use xlda_circuit::matchline::Matchline;
use xlda_circuit::senseamp::SenseAmp;
use xlda_circuit::wire::Wire;

/// An analyzed CAM array: configuration plus derived circuit models.
#[derive(Debug, Clone)]
pub struct CamArray {
    config: CamConfig,
    segments: usize,
    cols_per_segment: usize,
    ml: Matchline,
    sa: SenseAmp,
    mismatch_limit: usize,
}

/// Complete figure-of-merit report for a CAM array.
#[derive(Debug, Clone, PartialEq)]
pub struct CamReport {
    /// Total silicon area (µm²), cells plus peripherals.
    pub area_um2: f64,
    /// One full-array search latency (s).
    pub search_latency_s: f64,
    /// One full-array search energy (J).
    pub search_energy_j: f64,
    /// Latency to write one word (s), including program-verify for MLC.
    pub write_latency_s: f64,
    /// Energy to write one word (J).
    pub write_energy_j: f64,
    /// Static (leakage + standing) power of the array (W).
    pub leakage_w: f64,
    /// Number of word segments after the mismatch-limit split.
    pub segments: usize,
    /// Cells per matchline in each segment.
    pub cols_per_segment: usize,
    /// Largest mismatch count distinguishable on the chosen matchline.
    pub mismatch_limit: usize,
    /// Storage capacity in bits.
    pub capacity_bits: usize,
}

impl CamArray {
    /// Analyzes a CAM configuration.
    ///
    /// Determines the maximum matchline length compatible with the
    /// sense margin required by the match type, splits words into
    /// segments accordingly, and instantiates the circuit models.
    ///
    /// # Errors
    ///
    /// Returns a [`CamError`] for unsupported design/data/match
    /// combinations or when no matchline length meets the sense margin.
    pub fn new(config: CamConfig) -> Result<Self, CamError> {
        config.check()?;
        let cells = config.cells_per_word();
        let mlcfg = config.design.matchline_config();
        let sa = SenseAmp::voltage_latch(&config.tech);
        let req = config.match_kind.required_resolution();
        let max_cols = Matchline::max_cells_for(mlcfg, &config.tech, req, &sa).ok_or(
            CamError::SenseMarginUnachievable {
                required_resolution: req,
            },
        )?;
        let segments = cells.div_ceil(max_cols);
        let cols_per_segment = cells.div_ceil(segments);
        let ml = Matchline::new(mlcfg, &config.tech, cols_per_segment);
        let mismatch_limit = ml.mismatch_limit(&sa);
        Ok(Self {
            config,
            segments,
            cols_per_segment,
            ml,
            sa,
            mismatch_limit,
        })
    }

    /// The analyzed configuration.
    pub fn config(&self) -> &CamConfig {
        &self.config
    }

    /// Number of word segments (separate matchlines per word).
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Cells per matchline.
    pub fn cols_per_segment(&self) -> usize {
        self.cols_per_segment
    }

    /// Largest distinguishable mismatch count on one matchline.
    pub fn mismatch_limit(&self) -> usize {
        self.mismatch_limit
    }

    fn cell_edge_m(&self) -> f64 {
        (self.config.design.cell_area_f2()).sqrt() * self.config.tech.feature_m()
    }

    fn total_cells(&self) -> usize {
        self.config.words * self.segments * self.cols_per_segment
    }

    /// Searchline model: one line per cell column spanning the words of
    /// one row bank.
    fn searchline(&self) -> (Wire, BufferChain) {
        let tech = &self.config.tech;
        let words = self.config.words.div_ceil(self.config.row_banks);
        let length = words as f64 * self.cell_edge_m();
        let wire = Wire::new(length, tech);
        // Each cell loads the searchline with roughly half its cell cap.
        let c_cells = words as f64 * 0.5 * 0.1e-15;
        let c_total = wire.capacitance() + c_cells;
        let c_in = tech.gate_cap(3.0 * tech.min_width_um);
        let chain = BufferChain::size_for(c_in, c_total.max(c_in), tech);
        (wire, chain)
    }

    /// Time at which matchline sensing fires for this match type.
    fn sense_time(&self) -> f64 {
        match self.config.match_kind {
            MatchKind::Exact => {
                // Wait until a single-mismatch line has crossed the
                // reference (with 10% guard band).
                1.1 * self.ml.discharge_time(1)
            }
            MatchKind::Best { .. } | MatchKind::Threshold { .. } => {
                let m = self
                    .config
                    .match_kind
                    .required_resolution()
                    .min(self.cols_per_segment.saturating_sub(1));
                self.ml.best_sense_time(m)
            }
        }
    }

    /// Sense-amp input differential available at the sense time.
    fn sense_margin(&self) -> f64 {
        match self.config.match_kind {
            MatchKind::Exact => {
                // Differential between a fully matching word (slow leak)
                // and a single-mismatch word at the sense instant.
                let t = self.sense_time();
                self.ml.voltage_margin(t, 0).max(self.sa.min_resolvable)
            }
            _ => {
                let m = self
                    .config
                    .match_kind
                    .required_resolution()
                    .min(self.cols_per_segment.saturating_sub(1));
                self.ml.best_margin(m).max(self.sa.min_resolvable)
            }
        }
    }

    /// Match-result processing latency after sensing: a priority encoder
    /// for exact match, a compare/aggregate tree for distance matches.
    fn encode_latency(&self) -> f64 {
        let tech = &self.config.tech;
        let nand = Gate::new(GateKind::Nand(2), 2.0, tech);
        let load = nand.input_cap();
        // Integer ceil-log2: exact at powers of two and well-defined for
        // degenerate 1-word arrays, where float log2(1) sits on the
        // domain edge of the old formula.
        let depth_words = (ceil_log2(self.config.words) as f64).max(1.0);
        let depth_segs = ceil_log2(self.segments + 1) as f64;
        let per_stage = nand.delay(load);
        match self.config.match_kind {
            MatchKind::Exact => depth_words * per_stage,
            // Distance matches tally per-segment counts then compare
            // across words: adder tree + comparator tree.
            _ => (2.0 * depth_segs + 2.0 * depth_words) * per_stage,
        }
    }

    fn encode_energy(&self) -> f64 {
        let tech = &self.config.tech;
        let nand = Gate::new(GateKind::Nand(2), 2.0, tech);
        let load = nand.input_cap();
        let gates = match self.config.match_kind {
            MatchKind::Exact => self.config.words as f64,
            _ => self.config.words as f64 * (2.0 + 2.0 * self.segments as f64),
        };
        gates * nand.switching_energy(load)
    }

    /// One full-array search latency (s).
    pub fn search_latency(&self) -> f64 {
        self.search_latency_with(&self.searchline())
    }

    fn search_latency_with(&self, (wire, chain): &(Wire, BufferChain)) -> f64 {
        let t_sl = chain.delay() + wire.elmore_delay();
        let phases = self.config.design.sense_phases() as f64;
        let t_ml = phases * self.sense_time();
        let t_sa = phases * self.sa.latency(self.sense_margin());
        t_sl + t_ml + t_sa + self.encode_latency()
    }

    /// One full-array search energy (J).
    pub fn search_energy(&self) -> f64 {
        self.search_energy_with(&self.searchline())
    }

    fn search_energy_with(&self, (wire, chain): &(Wire, BufferChain)) -> f64 {
        let cols_total = self.segments * self.cols_per_segment;
        // Half the searchlines toggle per new query on average; each row
        // bank drives its own searchline segment.
        let e_sl = 0.5
            * (cols_total * self.config.row_banks) as f64
            * (chain.energy() + wire.switch_energy(0.0));
        // Every matchline precharges and (mis)discharges; average word
        // mismatches on half its cells.
        let t_sense = self.sense_time();
        let avg_mismatch = self.cols_per_segment / 2;
        let e_ml = (self.config.words * self.segments) as f64
            * self.ml.search_energy(avg_mismatch, t_sense);
        let e_sa = (self.config.words * self.segments) as f64 * self.sa.energy();
        e_sl + e_ml + e_sa + self.encode_energy()
    }

    /// Program-and-verify iterations per write: multi-bit cells iterate
    /// more as the number of levels grows.
    fn verify_iters(&self) -> f64 {
        match self.config.data {
            DataKind::MultiBit(b) => (1u32 << (b - 1)) as f64,
            DataKind::Analog => 8.0,
            _ => 1.0,
        }
    }

    /// Latency to write one word (s).
    ///
    /// Multi-bit cells use program-and-verify: the iteration count grows
    /// with the number of levels.
    pub fn write_latency(&self) -> f64 {
        self.write_latency_with(&self.write_decoder())
    }

    fn write_latency_with(&self, decoder: &Decoder) -> f64 {
        let dev = self.config.design.device();
        decoder.delay() + self.verify_iters() * dev.write_latency()
    }

    /// Energy to write one word (J).
    pub fn write_energy(&self) -> f64 {
        self.write_energy_with(&self.write_decoder())
    }

    fn write_energy_with(&self, decoder: &Decoder) -> f64 {
        let dev = self.config.design.device();
        let cells = self.segments * self.cols_per_segment;
        decoder.energy() + self.verify_iters() * cells as f64 * 2.0 * dev.write_energy()
    }

    fn write_decoder(&self) -> Decoder {
        let tech = &self.config.tech;
        let cols_total = self.segments * self.cols_per_segment;
        let wl_len = cols_total as f64 * self.cell_edge_m();
        let wl_wire = Wire::new(wl_len, tech);
        let wl_cap = wl_wire.capacitance() + cols_total as f64 * 0.2e-15;
        Decoder::new(self.config.words, wl_cap, tech)
    }

    /// Static (leakage plus standing-current) power (W).
    pub fn leakage_power(&self) -> f64 {
        self.leakage_power_with(&self.write_decoder())
    }

    fn leakage_power_with(&self, decoder: &Decoder) -> f64 {
        let tech = &self.config.tech;
        let cells = self.total_cells() as f64;
        let cell_leak = self.config.design.matchline_config().g_off
            * tech.vdd
            * 0.1 // only precharged fraction leaks between searches
            + self.config.design.static_power_per_cell();
        let sa_leak = (self.config.words * self.segments) as f64 * self.sa.leakage_power();
        cells * cell_leak + sa_leak + decoder.leakage_power()
    }

    /// Total silicon area (µm²).
    pub fn area_um2(&self) -> f64 {
        self.area_um2_with(&self.searchline().1, &self.write_decoder())
    }

    fn area_um2_with(&self, chain: &BufferChain, decoder: &Decoder) -> f64 {
        let tech = &self.config.tech;
        let f2 = tech.f2_area_m2();
        let cells = self.total_cells() as f64 * self.config.design.cell_area_f2() * f2;
        let cols_total = (self.segments * self.cols_per_segment) as f64;
        // Two (complementary) searchline drivers per cell column per bank.
        let drivers = 2.0 * cols_total * self.config.row_banks as f64 * chain.area();
        let sas = (self.config.words * self.segments) as f64 * self.sa.area();
        let encode_f2 = match self.config.match_kind {
            MatchKind::Exact => 80.0,
            _ => 250.0 * self.segments as f64,
        };
        let encode = self.config.words as f64 * encode_f2 * f2;
        let total_m2 = (cells + drivers + sas + encode + decoder.area()) * 1.15; // routing
        total_m2 * 1e12
    }

    /// Full FOM report.
    ///
    /// Builds the searchline and the write decoder once and composes
    /// every figure from them, with the expressions of the per-figure
    /// methods, so each field equals its method bit for bit.
    pub fn report(&self) -> CamReport {
        let _span = xlda_obs::span!("evacam.report");
        let searchline = self.searchline();
        let decoder = self.write_decoder();
        CamReport {
            area_um2: self.area_um2_with(&searchline.1, &decoder),
            search_latency_s: self.search_latency_with(&searchline),
            search_energy_j: self.search_energy_with(&searchline),
            write_latency_s: self.write_latency_with(&decoder),
            write_energy_j: self.write_energy_with(&decoder),
            leakage_w: self.leakage_power_with(&decoder),
            segments: self.segments,
            cols_per_segment: self.cols_per_segment,
            mismatch_limit: self.mismatch_limit,
            capacity_bits: self.config.words * self.config.bits_per_word,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::CamCellDesign;
    use xlda_circuit::tech::TechNode;

    fn base() -> CamConfig {
        CamConfig::default()
    }

    #[test]
    fn default_array_builds() {
        let cam = CamArray::new(base()).expect("default should model");
        let r = cam.report();
        assert!(r.area_um2 > 0.0);
        assert!(r.search_latency_s > 0.0 && r.search_latency_s < 1e-6);
        assert!(r.search_energy_j > 0.0);
        assert_eq!(r.capacity_bits, 1024 * 128);
    }

    #[test]
    fn bigger_array_costs_more() {
        let small = CamArray::new(base()).unwrap().report();
        let big = CamArray::new(CamConfig {
            words: 8192,
            ..base()
        })
        .unwrap()
        .report();
        assert!(big.area_um2 > 4.0 * small.area_um2);
        assert!(big.search_energy_j > 4.0 * small.search_energy_j);
        // Latency grows only mildly (longer searchlines, deeper encode).
        assert!(big.search_latency_s < 4.0 * small.search_latency_s);
    }

    #[test]
    fn best_match_segments_words_when_needed() {
        // Distance resolution on long RRAM words forces a split: the 2T2R
        // discharge path's low on/off ratio caps the matchline length.
        let cam = CamArray::new(CamConfig {
            bits_per_word: 1024,
            design: CamCellDesign::Rram2T2R,
            match_kind: MatchKind::Best { max_distance: 4 },
            ..base()
        })
        .unwrap();
        assert!(cam.segments() > 1, "expected segmentation");
        assert!(cam.cols_per_segment() * cam.segments() >= 1024);
        assert!(cam.mismatch_limit() >= 4);
    }

    #[test]
    fn unachievable_resolution_is_an_error() {
        // No matchline length lets a sense amp split 48-vs-49 mismatches.
        let err = CamArray::new(CamConfig {
            bits_per_word: 128,
            match_kind: MatchKind::Best { max_distance: 48 },
            ..base()
        })
        .unwrap_err();
        assert!(matches!(err, CamError::SenseMarginUnachievable { .. }));
    }

    #[test]
    fn exact_match_allows_longer_lines_than_best() {
        let exact = CamArray::new(CamConfig {
            bits_per_word: 512,
            design: CamCellDesign::Rram2T2R,
            match_kind: MatchKind::Exact,
            ..base()
        })
        .unwrap();
        let best = CamArray::new(CamConfig {
            bits_per_word: 512,
            design: CamCellDesign::Rram2T2R,
            match_kind: MatchKind::Best { max_distance: 4 },
            ..base()
        })
        .unwrap();
        assert!(exact.segments() <= best.segments());
        assert!(exact.cols_per_segment() >= best.cols_per_segment());
    }

    #[test]
    fn rram_segments_sooner_than_fefet() {
        // Low on/off ratio in the discharge path => earlier mismatch limit.
        let mk = MatchKind::Best { max_distance: 4 };
        let fefet = CamArray::new(CamConfig {
            bits_per_word: 512,
            match_kind: mk,
            ..base()
        })
        .unwrap();
        let rram = CamArray::new(CamConfig {
            bits_per_word: 512,
            design: CamCellDesign::Rram2T2R,
            match_kind: mk,
            ..base()
        })
        .unwrap();
        assert!(rram.segments() >= fefet.segments());
        assert!(rram.cols_per_segment() <= fefet.cols_per_segment());
    }

    #[test]
    fn multibit_shrinks_array() {
        let binary = CamArray::new(base()).unwrap().report();
        let mcam = CamArray::new(CamConfig {
            data: DataKind::MultiBit(3),
            ..base()
        })
        .unwrap()
        .report();
        // Same capacity in a third of the cells.
        assert!(mcam.area_um2 < 0.6 * binary.area_um2);
        assert_eq!(mcam.capacity_bits, binary.capacity_bits);
        // But writes take longer (program-verify).
        assert!(mcam.write_latency_s > binary.write_latency_s);
    }

    #[test]
    fn sram_cam_is_much_larger_but_fast() {
        let fefet = CamArray::new(base()).unwrap().report();
        let sram = CamArray::new(CamConfig {
            design: CamCellDesign::Sram16T,
            data: DataKind::Binary,
            ..base()
        })
        .unwrap()
        .report();
        assert!(sram.area_um2 > 3.0 * fefet.area_um2);
        assert!(sram.write_latency_s < fefet.write_latency_s);
    }

    #[test]
    fn scaling_node_shrinks_area() {
        let n40 = CamArray::new(base()).unwrap().report();
        let n22 = CamArray::new(CamConfig {
            tech: TechNode::n22(),
            ..base()
        })
        .unwrap()
        .report();
        assert!(n22.area_um2 < n40.area_um2);
    }

    #[test]
    fn one_word_array_models_finitely() {
        // A single stored word is a legal (if degenerate) CAM; every FOM
        // must stay finite and positive across match kinds despite the
        // log2 edge at words == 1.
        for match_kind in [MatchKind::Exact, MatchKind::Best { max_distance: 4 }] {
            let cam = CamArray::new(CamConfig {
                words: 1,
                match_kind,
                ..base()
            })
            .expect("1-word array should model");
            let r = cam.report();
            for v in [
                r.area_um2,
                r.search_latency_s,
                r.search_energy_j,
                r.write_latency_s,
                r.write_energy_j,
                r.leakage_w,
            ] {
                assert!(v.is_finite() && v > 0.0, "{match_kind:?}: {v}");
            }
            assert_eq!(r.capacity_bits, 128);
        }
    }

    #[test]
    fn one_word_search_is_cheaper_than_default() {
        let one = CamArray::new(CamConfig { words: 1, ..base() })
            .unwrap()
            .report();
        let full = CamArray::new(base()).unwrap().report();
        assert!(one.search_energy_j < full.search_energy_j);
        assert!(one.search_latency_s <= full.search_latency_s);
    }

    #[test]
    fn leakage_positive_and_scales_with_cells() {
        let small = CamArray::new(base()).unwrap();
        let big = CamArray::new(CamConfig {
            words: 4096,
            ..base()
        })
        .unwrap();
        assert!(small.leakage_power() > 0.0);
        assert!(big.leakage_power() > small.leakage_power());
    }
}
