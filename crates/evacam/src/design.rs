//! CAM configuration space: cell designs, data kinds, match types.

use xlda_circuit::matchline::MatchlineConfig;
use xlda_circuit::tech::TechNode;
use xlda_device::fefet::Fefet;
use xlda_device::flash::Flash;
use xlda_device::mram::Mram;
use xlda_device::pcm::Pcm;
use xlda_device::rram::Rram;
use xlda_device::sram::Sram;
use xlda_device::MemoryDevice;

/// CAM cell circuit design (paper Sec. II-B1 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CamCellDesign {
    /// The compact 2-FeFET cell (Fig. 2B): TCAM, MCAM, and ACAM capable.
    Fefet2T,
    /// RRAM 2T2R TCAM cell.
    Rram2T2R,
    /// RRAM 6T2R analog CAM cell (exact match only, high static power).
    Acam6T2R,
    /// PCM 2T2R TCAM cell with clocked self-referenced sensing.
    Pcm2T2R,
    /// MRAM 4T2R TCAM cell.
    Mram4T2R,
    /// Conventional 16-transistor CMOS CAM cell.
    Sram16T,
    /// 2-transistor flash CAM cell (3D-NAND-style complementary storage).
    Flash2T,
}

impl CamCellDesign {
    /// All designs, for design-space enumeration.
    pub fn all() -> [CamCellDesign; 7] {
        [
            CamCellDesign::Fefet2T,
            CamCellDesign::Rram2T2R,
            CamCellDesign::Acam6T2R,
            CamCellDesign::Pcm2T2R,
            CamCellDesign::Mram4T2R,
            CamCellDesign::Sram16T,
            CamCellDesign::Flash2T,
        ]
    }

    /// Short human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            CamCellDesign::Fefet2T => "FeFET-2T",
            CamCellDesign::Rram2T2R => "RRAM-2T2R",
            CamCellDesign::Acam6T2R => "RRAM-6T2R-ACAM",
            CamCellDesign::Pcm2T2R => "PCM-2T2R",
            CamCellDesign::Mram4T2R => "MRAM-4T2R",
            CamCellDesign::Sram16T => "SRAM-16T",
            CamCellDesign::Flash2T => "Flash-2T",
        }
    }

    /// The storage device underlying the cell.
    pub fn device(&self) -> Box<dyn MemoryDevice + Send + Sync> {
        match self {
            CamCellDesign::Fefet2T => Box::new(Fefet::silicon()),
            CamCellDesign::Rram2T2R | CamCellDesign::Acam6T2R => Box::new(Rram::taox()),
            CamCellDesign::Pcm2T2R => Box::new(Pcm::gst()),
            CamCellDesign::Mram4T2R => Box::new(Mram::stt()),
            CamCellDesign::Sram16T => Box::new(Sram::cam_cell_16t()),
            CamCellDesign::Flash2T => Box::new(Flash::nor()),
        }
    }

    /// Number of device terminals (3-terminal cells need the extended
    /// Eva-CAM modeling path the paper calls out).
    pub fn terminals(&self) -> u8 {
        self.device().terminals()
    }

    /// Transistor+device count per cell (area driver).
    pub fn elements_per_cell(&self) -> u8 {
        match self {
            CamCellDesign::Fefet2T | CamCellDesign::Flash2T => 2,
            CamCellDesign::Rram2T2R | CamCellDesign::Pcm2T2R => 4,
            CamCellDesign::Acam6T2R => 8,
            CamCellDesign::Mram4T2R => 6,
            CamCellDesign::Sram16T => 16,
        }
    }

    /// Cell footprint in F².
    pub fn cell_area_f2(&self) -> f64 {
        match self {
            CamCellDesign::Fefet2T => 28.0,
            CamCellDesign::Rram2T2R => 36.0,
            CamCellDesign::Acam6T2R => 80.0,
            CamCellDesign::Pcm2T2R => 50.0,
            CamCellDesign::Mram4T2R => 100.0,
            CamCellDesign::Sram16T => 389.0,
            CamCellDesign::Flash2T => 24.0,
        }
    }

    /// Maximum bits a single cell can store for MCAM operation.
    pub fn max_bits_per_cell(&self) -> u8 {
        match self {
            CamCellDesign::Fefet2T => 3,
            CamCellDesign::Flash2T => 2,
            CamCellDesign::Acam6T2R => 4,
            _ => 1,
        }
    }

    /// Whether this cell supports best/threshold (distance) matches.
    ///
    /// The 6T2R ACAM supports exact match only (paper Sec. II-B1).
    pub fn supports_distance_match(&self) -> bool {
        !matches!(self, CamCellDesign::Acam6T2R)
    }

    /// Static power per cell (W) beyond leakage — the ACAM's standing
    /// current and SRAM's retention leakage.
    pub fn static_power_per_cell(&self) -> f64 {
        match self {
            CamCellDesign::Acam6T2R => 50e-9,
            CamCellDesign::Sram16T => 2.5e-9,
            _ => 0.0,
        }
    }

    /// Number of clocked sensing phases per search.
    ///
    /// The published PCM and MRAM chips use clocked *self-referenced*
    /// sensing, which evaluates the matchline twice per search.
    pub fn sense_phases(&self) -> u8 {
        match self {
            CamCellDesign::Pcm2T2R | CamCellDesign::Mram4T2R => 2,
            _ => 1,
        }
    }

    /// Matchline electrical parameters of the cell.
    ///
    /// For transistor-gated cells (FeFET, flash, SRAM, MRAM-4T2R) the
    /// pull-down path is a transistor, so the on/off ratio seen by the
    /// matchline is transistor-like regardless of the storage device; for
    /// resistor-in-path cells (2T2R) the device's own on/off ratio limits
    /// the matchline — which is exactly why RRAM/PCM TCAMs hit the
    /// mismatch limit sooner (paper Sec. VI).
    pub fn matchline_config(&self) -> MatchlineConfig {
        let (g_on, g_off, c_cell) = match self {
            CamCellDesign::Fefet2T => (20e-6, 2e-9, 0.10e-15),
            CamCellDesign::Flash2T => (50e-6, 0.5e-9, 0.10e-15),
            CamCellDesign::Sram16T => (100e-6, 1e-9, 0.25e-15),
            // MTJ state gates a compare transistor; the small TMR leaves
            // the "off" transistor partially on.
            CamCellDesign::Mram4T2R => (15e-6, 50e-9, 0.15e-15),
            // Discharge flows through the resistive device itself.
            CamCellDesign::Rram2T2R => (60e-6, 2e-6, 0.15e-15),
            CamCellDesign::Acam6T2R => (60e-6, 2e-6, 0.20e-15),
            CamCellDesign::Pcm2T2R => (40e-6, 0.5e-6, 0.12e-15),
        };
        // The clocked self-referenced PCM scheme senses a deeper swing.
        let v_ref_frac = match self {
            CamCellDesign::Pcm2T2R => 0.30,
            _ => 0.5,
        };
        MatchlineConfig {
            g_on,
            g_off,
            c_cell,
            precharge_frac: 1.0,
            v_ref_frac,
        }
    }
}

impl std::fmt::Display for CamCellDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Data representation stored/searched per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// One bit per cell.
    Binary,
    /// One bit per cell plus a "don't care" state.
    Ternary,
    /// `b` bits per cell (MCAM).
    MultiBit(u8),
    /// Analog bounds per cell (ACAM).
    Analog,
}

impl DataKind {
    /// Bits of information stored per cell (analog cells are credited
    /// with 4 bits, the usual ACAM equivalence).
    pub fn bits_per_cell(&self) -> u8 {
        match self {
            DataKind::Binary | DataKind::Ternary => 1,
            DataKind::MultiBit(b) => *b,
            DataKind::Analog => 4,
        }
    }
}

/// Match semantics the array must implement (Fig. 2C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact match: flag words with zero mismatches.
    Exact,
    /// Best match: return the word with the smallest distance; the sense
    /// path must distinguish adjacent mismatch counts up to
    /// `max_distance`.
    Best {
        /// Largest distance that must remain resolvable.
        max_distance: usize,
    },
    /// Threshold match: flag words with at most `k` mismatches.
    Threshold {
        /// Distance threshold.
        k: usize,
    },
}

impl MatchKind {
    /// The number of adjacent mismatch counts the matchline sensing must
    /// distinguish (1 for exact: zero-vs-one).
    pub fn required_resolution(&self) -> usize {
        match self {
            MatchKind::Exact => 1,
            MatchKind::Best { max_distance } => (*max_distance).max(1),
            MatchKind::Threshold { k } => (*k).max(1),
        }
    }
}

/// Full CAM array configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CamConfig {
    /// Number of stored words (rows).
    pub words: usize,
    /// Search width in bits per word.
    pub bits_per_word: usize,
    /// Cell circuit design.
    pub design: CamCellDesign,
    /// Data representation.
    pub data: DataKind,
    /// Match semantics.
    pub match_kind: MatchKind,
    /// Row banking: words are split across this many independently
    /// driven banks, shortening searchlines at the cost of replicated
    /// drivers (1 = flat array).
    pub row_banks: usize,
    /// Process node.
    pub tech: TechNode,
}

impl Default for CamConfig {
    /// A 1024 × 128-bit ternary FeFET CAM at 40 nm with exact match.
    fn default() -> Self {
        Self {
            words: 1024,
            bits_per_word: 128,
            design: CamCellDesign::Fefet2T,
            data: DataKind::Ternary,
            match_kind: MatchKind::Exact,
            row_banks: 1,
            tech: TechNode::n40(),
        }
    }
}

impl CamConfig {
    /// Cells per word after multi-bit packing.
    pub fn cells_per_word(&self) -> usize {
        let b = self.data.bits_per_cell() as usize;
        self.bits_per_word.div_ceil(b)
    }

    /// Validates the configuration against the design support matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CamError`] describing the first unsupported combination.
    pub fn check(&self) -> Result<(), CamError> {
        if self.words == 0 || self.bits_per_word == 0 || self.row_banks == 0 {
            return Err(CamError::EmptyArray);
        }
        let bits = self.data.bits_per_cell();
        if bits == 0 || bits > self.design.max_bits_per_cell() {
            return Err(CamError::UnsupportedData {
                design: self.design,
                data: self.data,
            });
        }
        if matches!(
            self.match_kind,
            MatchKind::Best { .. } | MatchKind::Threshold { .. }
        ) && !self.design.supports_distance_match()
        {
            return Err(CamError::UnsupportedMatch {
                design: self.design,
                match_kind: self.match_kind,
            });
        }
        Ok(())
    }
}

/// Errors raised when a CAM configuration cannot be modeled.
#[derive(Debug, Clone, PartialEq)]
pub enum CamError {
    /// Zero rows or zero bits.
    EmptyArray,
    /// The cell design cannot store the requested data representation.
    UnsupportedData {
        /// Offending design.
        design: CamCellDesign,
        /// Requested data representation.
        data: DataKind,
    },
    /// The cell design cannot perform the requested match type.
    UnsupportedMatch {
        /// Offending design.
        design: CamCellDesign,
        /// Requested match type.
        match_kind: MatchKind,
    },
    /// No matchline length satisfies the sense-margin requirement.
    SenseMarginUnachievable {
        /// Mismatch counts that must stay distinguishable.
        required_resolution: usize,
    },
}

impl std::fmt::Display for CamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CamError::EmptyArray => write!(f, "array has zero words or zero bits"),
            CamError::UnsupportedData { design, data } => {
                write!(f, "{design} cannot store {data:?} data")
            }
            CamError::UnsupportedMatch { design, match_kind } => {
                write!(f, "{design} cannot perform {match_kind:?} matches")
            }
            CamError::SenseMarginUnachievable {
                required_resolution,
            } => write!(
                f,
                "no matchline length can resolve {required_resolution} mismatches"
            ),
        }
    }
}

impl std::error::Error for CamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(CamConfig::default().check().is_ok());
    }

    #[test]
    fn multibit_packs_cells() {
        let cfg = CamConfig {
            data: DataKind::MultiBit(3),
            bits_per_word: 128,
            ..CamConfig::default()
        };
        assert_eq!(cfg.cells_per_word(), 43); // ceil(128/3)
    }

    #[test]
    fn mram_rejects_multibit() {
        let cfg = CamConfig {
            design: CamCellDesign::Mram4T2R,
            data: DataKind::MultiBit(2),
            ..CamConfig::default()
        };
        assert!(matches!(cfg.check(), Err(CamError::UnsupportedData { .. })));
    }

    #[test]
    fn acam_rejects_best_match() {
        let cfg = CamConfig {
            design: CamCellDesign::Acam6T2R,
            data: DataKind::Analog,
            match_kind: MatchKind::Best { max_distance: 4 },
            ..CamConfig::default()
        };
        assert!(matches!(
            cfg.check(),
            Err(CamError::UnsupportedMatch { .. })
        ));
    }

    #[test]
    fn acam_accepts_exact_analog() {
        let cfg = CamConfig {
            design: CamCellDesign::Acam6T2R,
            data: DataKind::Analog,
            match_kind: MatchKind::Exact,
            ..CamConfig::default()
        };
        assert!(cfg.check().is_ok());
    }

    #[test]
    fn empty_array_rejected() {
        let cfg = CamConfig {
            words: 0,
            ..CamConfig::default()
        };
        assert_eq!(cfg.check(), Err(CamError::EmptyArray));
    }

    #[test]
    fn sram_cam_is_largest_cell() {
        let areas: Vec<f64> = CamCellDesign::all()
            .iter()
            .map(|d| d.cell_area_f2())
            .collect();
        let sram = CamCellDesign::Sram16T.cell_area_f2();
        assert!(areas.iter().all(|&a| a <= sram));
    }

    #[test]
    fn required_resolution() {
        assert_eq!(MatchKind::Exact.required_resolution(), 1);
        assert_eq!(MatchKind::Best { max_distance: 8 }.required_resolution(), 8);
        assert_eq!(MatchKind::Threshold { k: 3 }.required_resolution(), 3);
    }

    #[test]
    fn error_display_nonempty() {
        let e = CamError::EmptyArray;
        assert!(!e.to_string().is_empty());
    }
}
