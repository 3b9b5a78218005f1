//! NeuroSim-style macro model: per-operation latency, energy, and area of
//! a crossbar MVM core including its data converters.

use crate::CrossbarConfig;
use xlda_circuit::adc::{RowDac, SarAdc};
use xlda_circuit::tech::TechNode;
use xlda_circuit::wire::Wire;
use xlda_num::memo::f64_key;
use xlda_num::memo_cache;

/// Memoized figure-of-merit bundle of one macro geometry. Design-space
/// sweeps rebuild the same macro for every candidate sharing a
/// (geometry, device, node) triple, so the derived costs are cached
/// process-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MacroFoms {
    mvm: MvmCost,
    area_m2: f64,
}

memo_cache!(
    static MACRO_FOMS: ((usize, usize, usize), (u8, u8), u64, u64, u64) => MacroFoms,
    "crossbar.macro"
);

/// A crossbar macro configuration the model cannot evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossbarError {
    /// `adc_share` of zero: no column could ever be converted.
    ZeroAdcShare,
    /// Zero ADC bits: the macro model needs an output converter to
    /// price the read path.
    NoOutputAdc,
    /// An empty array (zero rows or columns) has no MVM to model.
    EmptyArray,
}

impl std::fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrossbarError::ZeroAdcShare => write!(f, "adc_share must be positive"),
            CrossbarError::NoOutputAdc => write!(f, "macro model requires an output ADC"),
            CrossbarError::EmptyArray => write!(f, "crossbar has zero rows or columns"),
        }
    }
}

impl std::error::Error for CrossbarError {}

/// Figure-of-merit model of one crossbar compute core.
#[derive(Debug, Clone)]
pub struct CrossbarMacro {
    config: CrossbarConfig,
    tech: TechNode,
    dac: RowDac,
    adc: SarAdc,
    /// Columns sharing one ADC through a mux (1 = ADC per column).
    pub adc_share: usize,
}

/// Per-MVM figures of merit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvmCost {
    /// Latency of one full matrix-vector product (s).
    pub latency_s: f64,
    /// Energy of one full matrix-vector product (J).
    pub energy_j: f64,
}

impl CrossbarMacro {
    /// Builds the macro model at a process node.
    ///
    /// # Panics
    ///
    /// Panics if `adc_share` is zero or ADC bits are zero (macro model
    /// needs converters); guarded call sites should use
    /// [`CrossbarMacro::try_new`].
    pub fn new(config: &CrossbarConfig, tech: &TechNode, adc_share: usize) -> Self {
        match Self::try_new(config, tech, adc_share) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CrossbarMacro::new`].
    ///
    /// # Errors
    ///
    /// [`CrossbarError`] naming the first configuration defect (zero ADC
    /// share, missing output ADC, or an empty array).
    pub fn try_new(
        config: &CrossbarConfig,
        tech: &TechNode,
        adc_share: usize,
    ) -> Result<Self, CrossbarError> {
        if adc_share == 0 {
            return Err(CrossbarError::ZeroAdcShare);
        }
        if config.adc_bits == 0 {
            return Err(CrossbarError::NoOutputAdc);
        }
        if config.rows == 0 || config.cols == 0 {
            return Err(CrossbarError::EmptyArray);
        }
        Ok(Self {
            config: config.clone(),
            tech: tech.clone(),
            dac: RowDac::new(config.dac_bits, tech),
            adc: SarAdc::new(config.adc_bits, tech),
            adc_share,
        })
    }

    fn row_line(&self) -> Wire {
        // Crosspoint pitch ~ 2F for a 4F² resistive cell.
        let pitch = 2.0 * self.tech.feature_m();
        Wire::new(self.config.cols as f64 * pitch, &self.tech)
    }

    fn col_line(&self) -> Wire {
        let pitch = 2.0 * self.tech.feature_m();
        Wire::new(self.config.rows as f64 * pitch, &self.tech)
    }

    /// Array settling time: the RC of the worst-case column loaded by all
    /// devices at maximum conductance.
    pub fn settle_time(&self) -> f64 {
        let wire = self.col_line();
        let g_total = self.config.rows as f64 * self.config.device.g_max;
        let c_line = wire.capacitance() + self.config.rows as f64 * 0.1e-15;
        // Conservative: 3 time constants of R_eq * C.
        3.0 * c_line / g_total.max(1e-9) + wire.elmore_delay()
    }

    /// The memoized FOM bundle for this macro geometry. Read noise and
    /// stuck-device rate are deliberately absent from the key: they
    /// shape MVM *fidelity*, not the latency/energy/area model.
    fn foms(&self) -> MacroFoms {
        MACRO_FOMS.get_or_insert_with(
            (
                (self.config.rows, self.config.cols, self.adc_share),
                (self.config.dac_bits, self.config.adc_bits),
                self.config.device.memo_key(),
                f64_key(self.config.v_read),
                self.tech.memo_key(),
            ),
            || MacroFoms {
                mvm: self.compute_mvm_cost(),
                area_m2: self.compute_area_m2(),
            },
        )
    }

    /// Cost of one full `rows x cols` analog MVM.
    pub fn mvm_cost(&self) -> MvmCost {
        self.foms().mvm
    }

    fn compute_mvm_cost(&self) -> MvmCost {
        let conversions = self.config.cols.div_ceil(self.adc_share);
        let latency =
            self.dac.latency() + self.settle_time() + self.adc.latency() * self.adc_share as f64;
        // Array static burn during evaluation: average half-on devices.
        let g_avg = 0.5 * (self.config.device.g_max + self.config.device.g_min);
        let i_array =
            self.config.rows as f64 * self.config.cols as f64 * g_avg * self.config.v_read * 0.5;
        let t_eval = self.dac.latency() + self.settle_time();
        let e_array = i_array * self.config.v_read * t_eval;
        let e_dac = self.config.rows as f64 * self.dac.energy(self.row_line().capacitance());
        let e_adc = conversions as f64 * self.adc.energy() * self.adc_share as f64;
        MvmCost {
            latency_s: latency,
            energy_j: e_array + e_dac + e_adc,
        }
    }

    /// Area of the core (m²): array plus converters and muxes.
    pub fn area_m2(&self) -> f64 {
        self.foms().area_m2
    }

    fn compute_area_m2(&self) -> f64 {
        let f2 = self.tech.f2_area_m2();
        let cell = self.config.device.cell_area_f2();
        let array = (self.config.rows * self.config.cols) as f64 * cell * f2;
        let dacs = self.config.rows as f64 * self.dac.area();
        let adcs = (self.config.cols.div_ceil(self.adc_share)) as f64 * self.adc.area();
        let mux = self.config.cols as f64 * 10.0 * f2;
        (array + dacs + adcs + mux) * 1.2
    }

    /// Energy to program the full array once (J).
    pub fn program_energy(&self) -> f64 {
        (self.config.rows * self.config.cols) as f64 * 2.0 * self.config.device.write_energy()
    }

    /// Time to program the full array row-by-row (s).
    pub fn program_time(&self) -> f64 {
        self.config.rows as f64 * self.config.device.write_latency() * 2.0
    }
}

// Pull the trait into scope for device FOM access inside this module.
use xlda_device::MemoryDevice;

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rows: usize, cols: usize, share: usize) -> CrossbarMacro {
        let cfg = CrossbarConfig {
            rows,
            cols,
            ..CrossbarConfig::default()
        };
        CrossbarMacro::new(&cfg, &TechNode::n40(), share)
    }

    #[test]
    fn mvm_cost_positive_and_scales() {
        let small = mk(64, 64, 8).mvm_cost();
        let big = mk(256, 256, 8).mvm_cost();
        assert!(small.latency_s > 0.0 && small.energy_j > 0.0);
        assert!(big.energy_j > small.energy_j);
    }

    #[test]
    fn adc_sharing_trades_latency_for_area() {
        let dedicated = mk(64, 64, 1);
        let shared = mk(64, 64, 16);
        assert!(shared.mvm_cost().latency_s > dedicated.mvm_cost().latency_s);
        assert!(shared.area_m2() < dedicated.area_m2());
    }

    #[test]
    fn amortized_mvm_beats_digital_energy_scale() {
        // The analog core should compute a 64x64 MVM for far less energy
        // than 4096 digital MACs at ~1 pJ each would cost with off-chip
        // weight fetches (the paper's EIE-style motivation).
        let cost = mk(64, 64, 8).mvm_cost();
        let digital_with_dram = 4096.0 * 2e-12;
        assert!(cost.energy_j < digital_with_dram, "{}", cost.energy_j);
    }

    #[test]
    fn program_cost_scales_with_cells() {
        let a = mk(64, 64, 8);
        let b = mk(128, 128, 8);
        assert!(b.program_energy() > 3.9 * a.program_energy());
        assert!(b.program_time() > a.program_time());
    }

    #[test]
    #[should_panic(expected = "adc_share")]
    fn zero_share_panics() {
        mk(64, 64, 0);
    }

    #[test]
    fn try_new_reports_configuration_defects() {
        let tech = TechNode::n40();
        let cfg = CrossbarConfig::default();
        assert_eq!(
            CrossbarMacro::try_new(&cfg, &tech, 0).err(),
            Some(CrossbarError::ZeroAdcShare)
        );
        let no_adc = CrossbarConfig {
            adc_bits: 0,
            ..cfg.clone()
        };
        assert_eq!(
            CrossbarMacro::try_new(&no_adc, &tech, 8).err(),
            Some(CrossbarError::NoOutputAdc)
        );
        let empty = CrossbarConfig { rows: 0, ..cfg };
        assert_eq!(
            CrossbarMacro::try_new(&empty, &tech, 8).err(),
            Some(CrossbarError::EmptyArray)
        );
    }
}
