//! NVSim/DESTINY-style analytical RAM array model (paper Sec. VI).
//!
//! Estimates performance, energy, and area of random-access memories
//! built from the technologies in [`xlda_device`], across a hierarchical
//! organization (subarrays → mats → banks) with H-tree routing, for both
//! planar (2-D) and stacked (3-D) arrays. This covers the "memory lane"
//! of the Fig. 1 design space: evaluating a new (possibly multi-level)
//! cell inside a conventional memory hierarchy.
//!
//! # Examples
//!
//! ```
//! use xlda_nvram::{RamCell, RamConfig, RamArray, OptTarget};
//!
//! let config = RamConfig {
//!     capacity_bits: 16 << 20, // 2 MiB
//!     word_bits: 64,
//!     cell: RamCell::Rram1T1R,
//!     ..RamConfig::default()
//! };
//! let ram = RamArray::auto_organize(&config, OptTarget::ReadLatency)?;
//! assert!(ram.report().read_latency_s > 0.0);
//! # Ok::<(), xlda_nvram::RamError>(())
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod lifetime;

use std::sync::Arc;

use xlda_circuit::decoder::Decoder;
use xlda_circuit::senseamp::SenseAmp;
use xlda_circuit::tech::TechNode;
use xlda_circuit::wire::{RepeatedWire, Wire};
use xlda_device::fefet::Fefet;
use xlda_device::flash::Flash;
use xlda_device::mram::Mram;
use xlda_device::pcm::Pcm;
use xlda_device::rram::Rram;
use xlda_device::sram::Sram;
use xlda_device::MemoryDevice;
use xlda_num::memo_cache;

memo_cache!(
    static GEOMETRY_TABLE: (RamCell, u64) => Arc<GeometryTable>,
    "nvram.geometry_table"
);

/// Storage-cell style for a RAM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RamCell {
    /// 6T SRAM.
    Sram6T,
    /// 1T1R RRAM.
    Rram1T1R,
    /// 1T1R PCM.
    Pcm1T1R,
    /// 1T1R STT-MRAM.
    Mram1T1R,
    /// 1T FeFET (three-terminal, logic-compatible).
    Fefet1T,
    /// 3D NAND flash with the given number of stacked layers.
    Nand3D {
        /// Stack layer count.
        layers: u8,
    },
    /// Monolithic 3-D stacked RRAM (vertical crosspoint, selector-less) —
    /// the HfO_x vertical structure the paper cites for cost-effective 3-D
    /// crosspoint architectures enabling monolithic 3-D ICs.
    Rram3D {
        /// Stack layer count.
        layers: u8,
    },
}

impl RamCell {
    /// The device model behind the cell.
    pub fn device(&self) -> Box<dyn MemoryDevice + Send + Sync> {
        match self {
            RamCell::Sram6T => Box::new(Sram::cell_6t()),
            RamCell::Rram1T1R => Box::new(Rram::taox()),
            RamCell::Pcm1T1R => Box::new(Pcm::gst()),
            RamCell::Mram1T1R => Box::new(Mram::stt()),
            RamCell::Fefet1T => Box::new(Fefet::beol()),
            RamCell::Nand3D { .. } => Box::new(Flash::nand3d()),
            RamCell::Rram3D { .. } => Box::new(Rram::hfox()),
        }
    }

    /// Effective planar footprint per bit in F², after 3-D amortization
    /// and multi-level-cell packing.
    pub fn area_f2_per_bit(&self) -> f64 {
        match self {
            RamCell::Sram6T => 146.0,
            RamCell::Rram1T1R => 12.0,
            RamCell::Pcm1T1R => 16.0,
            RamCell::Mram1T1R => 30.0,
            RamCell::Fefet1T => 10.0,
            RamCell::Nand3D { layers } => 16.0 / (*layers as f64).max(1.0),
            // Selector-less vertical crosspoint: 4F² footprint amortized
            // over the stack.
            RamCell::Rram3D { layers } => 4.0 / (*layers as f64).max(1.0),
        }
    }

    /// Stack layer count (1 for planar cells).
    pub fn layers(&self) -> u8 {
        match self {
            RamCell::Nand3D { layers } | RamCell::Rram3D { layers } => (*layers).max(1),
            _ => 1,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            RamCell::Sram6T => "SRAM-6T".to_string(),
            RamCell::Rram1T1R => "RRAM-1T1R".to_string(),
            RamCell::Pcm1T1R => "PCM-1T1R".to_string(),
            RamCell::Mram1T1R => "MRAM-1T1R".to_string(),
            RamCell::Fefet1T => "FeFET-1T".to_string(),
            RamCell::Nand3D { layers } => format!("3D-NAND-{layers}L"),
            RamCell::Rram3D { layers } => format!("3D-RRAM-{layers}L"),
        }
    }
}

/// What the organization search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptTarget {
    /// Minimize read latency.
    ReadLatency,
    /// Minimize read energy.
    ReadEnergy,
    /// Minimize total area.
    Area,
    /// Minimize read energy-delay product.
    ReadEdp,
}

/// RAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RamConfig {
    /// Total capacity in bits.
    pub capacity_bits: u64,
    /// Access word width in bits.
    pub word_bits: usize,
    /// Storage cell.
    pub cell: RamCell,
    /// Process node.
    pub tech: TechNode,
}

impl Default for RamConfig {
    /// 1 MiB of RRAM accessed 64 bits at a time, at 40 nm.
    fn default() -> Self {
        Self {
            capacity_bits: 8 << 20,
            word_bits: 64,
            cell: RamCell::Rram1T1R,
            tech: TechNode::n40(),
        }
    }
}

/// Errors from the RAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RamError {
    /// Capacity or word width is zero.
    EmptyConfig,
    /// Capacity is too small to hold even one word.
    CapacityBelowWord,
}

impl std::fmt::Display for RamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RamError::EmptyConfig => write!(f, "capacity and word width must be positive"),
            RamError::CapacityBelowWord => write!(f, "capacity smaller than one word"),
        }
    }
}

impl std::error::Error for RamError {}

/// A fully organized RAM: subarray geometry plus mat/bank tiling.
#[derive(Debug, Clone)]
pub struct RamArray {
    config: RamConfig,
    /// Rows per subarray.
    pub sub_rows: usize,
    /// Columns per subarray.
    pub sub_cols: usize,
    /// Number of subarrays (mats) tiling the capacity.
    pub mats: usize,
}

/// RAM figures of merit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RamReport {
    /// Random read latency (s).
    pub read_latency_s: f64,
    /// Word write latency (s).
    pub write_latency_s: f64,
    /// Read energy per word (J).
    pub read_energy_j: f64,
    /// Write energy per word (J).
    pub write_energy_j: f64,
    /// Total area (mm²).
    pub area_mm2: f64,
    /// Leakage power (W).
    pub leakage_w: f64,
}

impl RamConfig {
    /// Rejects configurations no organization can model.
    fn validate(&self) -> Result<(), RamError> {
        if self.capacity_bits == 0 || self.word_bits == 0 {
            return Err(RamError::EmptyConfig);
        }
        if self.capacity_bits < self.word_bits as u64 {
            return Err(RamError::CapacityBelowWord);
        }
        Ok(())
    }

    /// Subarrays (mats) of `sub_rows × sub_cols` cells tiling the capacity.
    fn mats(&self, sub_rows: usize, sub_cols: usize) -> usize {
        let bits_per_sub = (sub_rows * sub_cols) as u64;
        self.capacity_bits.div_ceil(bits_per_sub).max(1) as usize
    }
}

impl RamArray {
    /// Builds a RAM with a fixed subarray geometry.
    ///
    /// # Errors
    ///
    /// Returns [`RamError`] for degenerate configurations.
    pub fn with_subarray(
        config: &RamConfig,
        sub_rows: usize,
        sub_cols: usize,
    ) -> Result<Self, RamError> {
        if sub_rows == 0 || sub_cols == 0 {
            return Err(RamError::EmptyConfig);
        }
        config.validate()?;
        Ok(Self {
            config: config.clone(),
            sub_rows,
            sub_cols,
            mats: config.mats(sub_rows, sub_cols),
        })
    }

    /// Searches subarray geometries (powers of two, 128..=4096 per side)
    /// and returns the organization minimizing `target`.
    ///
    /// The search walks the `(cell, tech)` geometry table in loop order
    /// (rows outer, cols inner) and keeps the first strictly smallest
    /// score. A geometry whose route-free lower bound is already `>=` the
    /// best score cannot win, so it is skipped before its H-tree route is
    /// built; the result is the one the exhaustive search over every
    /// geometry returns.
    ///
    /// # Errors
    ///
    /// Returns [`RamError`] for degenerate configurations.
    pub fn auto_organize(config: &RamConfig, target: OptTarget) -> Result<Self, RamError> {
        let _span = xlda_obs::span!("nvram.auto_organize");
        config.validate()?;
        let table = geometry_table(config.cell, &config.tech);
        let bits = config.word_bits as f64;
        let prune = routes_are_nonnegative(&config.tech);
        let mut best: Option<(f64, usize)> = None;
        for (i, g) in table.iter().enumerate() {
            let (rows, cols) = geometry(i);
            // Subarrays holding more than four times the capacity are
            // never tried.
            if (rows * cols) as u64 > config.capacity_bits.max(1) * 4 {
                continue;
            }
            let mats = config.mats(rows, cols);
            let bound = target.bound(g, bits, mats);
            if prune && best.is_some_and(|(s, _)| bound >= s) {
                continue;
            }
            let score = match target {
                OptTarget::Area => bound,
                _ => {
                    let route = route(g, mats, &config.tech);
                    target.score(g, bits, mats, route.delay(), route.energy())
                }
            };
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, i));
            }
        }
        let (rows, cols) = best.map_or((128, 128), |(_, i)| geometry(i));
        Self::with_subarray(config, rows, cols)
    }

    /// The configuration being modeled.
    pub fn config(&self) -> &RamConfig {
        &self.config
    }

    /// Composes the full report from the geometry solve plus the
    /// per-point route.
    fn report_from(&self, g: &GeomSolve, route: &RepeatedWire) -> RamReport {
        let write_latency = route.delay() + g.dec_delay_s + g.write_verify * g.dev_write_latency_s;

        let bits = self.config.word_bits as f64;
        let write_energy = route.energy() * bits + g.dec_energy_j + bits * g.dev_write_energy_j;

        let cells_leak = self.config.capacity_bits as f64 * g.cell_leak_per_bit_w;
        // Idle mats are power-gated to ~5 % of their active leakage.
        let periph_leak =
            (1.0 + 0.05 * (self.mats as f64 - 1.0)) * (g.dec_leakage_w + 8.0 * g.sa_leakage_w);

        RamReport {
            read_latency_s: g.read_latency_s(route.delay()),
            write_latency_s: write_latency,
            read_energy_j: g.read_energy_j(bits, route.energy()),
            write_energy_j: write_energy,
            area_mm2: g.area_mm2(self.mats),
            leakage_w: cells_leak + periph_leak,
        }
    }

    /// Full figure-of-merit report.
    ///
    /// A searched geometry reads its geometry solve from the `(cell, tech)`
    /// geometry table, which holds the bits a fresh solve returns; any
    /// other geometry, and every geometry while memoization is off, is
    /// solved directly.
    pub fn report(&self) -> RamReport {
        let (cell, tech) = (self.config.cell, &self.config.tech);
        let g = match table_index(self.sub_rows, self.sub_cols) {
            Some(i) if xlda_num::memo::enabled() => geometry_table(cell, tech)[i],
            _ => geom_solve(self.sub_rows, self.sub_cols, cell, tech),
        };
        self.report_from(&g, &route(&g, self.mats, tech))
    }
}

/// Subarray sides the organization search tries: `128 << k` for `k` in
/// `0..SIDES`, i.e. powers of two from 128 to 4096.
const SIDES: usize = 6;

/// `(rows, cols)` of geometry `i` in search order: rows outer, cols inner.
fn geometry(i: usize) -> (usize, usize) {
    (128 << (i / SIDES), 128 << (i % SIDES))
}

/// Position of a `rows × cols` subarray in search order, if it is one of
/// the searched geometries.
fn table_index(rows: usize, cols: usize) -> Option<usize> {
    let side = |n: usize| {
        (n.is_power_of_two() && (128..=128 << (SIDES - 1)).contains(&n))
            .then(|| n.trailing_zeros() as usize - 7)
    };
    Some(side(rows)? * SIDES + side(cols)?)
}

/// The [`GeomSolve`] of every searched geometry, in search order.
type GeometryTable = [GeomSolve; SIDES * SIDES];

/// The geometry table of `(cell, tech)`, built once per process.
///
/// Every entry is a pure function of the key (see [`GeomSolve`]), so a
/// hit returns the bits of a fresh solve. While memoization is off the
/// table is rebuilt on every call.
fn geometry_table(cell: RamCell, tech: &TechNode) -> Arc<GeometryTable> {
    GEOMETRY_TABLE.get_or_insert_with((cell, tech.memo_key()), || {
        Arc::new(std::array::from_fn(|i| {
            let (rows, cols) = geometry(i);
            geom_solve(rows, cols, cell, tech)
        }))
    })
}

/// Whether every route over `tech` has non-negative delay and energy,
/// the premise of [`OptTarget::bound`]. True for every physical node (no
/// negative electrical parameter); any other node is searched without
/// pruning.
fn routes_are_nonnegative(tech: &TechNode) -> bool {
    [
        tech.vdd,
        tech.ion_n_per_um,
        tech.ion_p_per_um,
        tech.cgate_per_um,
        tech.cdrain_per_um,
        tech.wire_r_per_um,
        tech.wire_c_per_um,
        tech.min_width_um,
    ]
    .iter()
    .all(|&x| x >= 0.0)
}

/// H-tree route from the bank edge to a mat: half the bank edge, for a
/// bank of `mats` subarrays of the solved footprint.
fn route(g: &GeomSolve, mats: usize, tech: &TechNode) -> RepeatedWire {
    let bank_edge_m = (g.sub_area_m2 * mats as f64).sqrt();
    RepeatedWire::new((0.5 * bank_edge_m).max(1e-6), 250e-6, tech)
}

/// Solves every sub-model that depends only on the subarray geometry —
/// not on capacity or word width. The 36 searched geometries of a
/// `(cell, tech)` pair are solved once into its [geometry
/// table](geometry_table); each report recomposes only the per-point
/// remainder (mat tiling, routing, word energies).
fn geom_solve(sub_rows: usize, sub_cols: usize, cell: RamCell, tech: &TechNode) -> GeomSolve {
    let dev = cell.device();
    let sa = SenseAmp::current_mode(tech);
    let cell_edge_m = (cell.area_f2_per_bit() * cell.layers() as f64).sqrt() * tech.feature_m();
    let wl = Wire::new(sub_cols as f64 * cell_edge_m, tech);
    let wl_cap = wl.capacitance() + sub_cols as f64 * 0.15e-15;
    let dec = Decoder::new(sub_rows, wl_cap, tech);

    let f2 = tech.f2_area_m2();
    let cells = (sub_rows * sub_cols) as f64 * cell.area_f2_per_bit() * f2;
    let sa_count = (sub_cols / 8).max(1) as f64; // 8:1 column mux
    let sub_area_m2 = (cells + sa_count * sa.area() + dec.area()) * 1.15;

    // Bitline development: cell current charges/discharges the line.
    let bl = Wire::new(sub_rows as f64 * cell_edge_m, tech);
    let c_bl = bl.capacitance() + sub_rows as f64 * 0.1e-15;
    let i_cell = dev.g_on() * dev.read_voltage();
    let t_bl = c_bl * 0.1 * tech.vdd / i_cell.max(1e-9); // 100 mV swing
    let sub_read_latency_s = dec.delay() + t_bl + sa.latency(i_cell.max(sa.min_resolvable));

    GeomSolve {
        sub_area_m2,
        sub_read_latency_s,
        wl_switch_energy_j: tech.switch_energy(wl_cap),
        dec_delay_s: dec.delay(),
        dec_energy_j: dec.energy(),
        dec_leakage_w: dec.leakage_power(),
        sa_energy_j: sa.energy(),
        sa_leakage_w: sa.leakage_power(),
        write_verify: if dev.max_bits_per_cell() > 1 {
            2.0
        } else {
            1.0
        },
        dev_write_latency_s: dev.write_latency(),
        dev_write_energy_j: dev.write_energy(),
        cell_leak_per_bit_w: match cell {
            RamCell::Sram6T => Sram::cell_6t().leakage_per_cell,
            _ => 1e-13,
        },
    }
}

/// Capacity-independent sub-solves of one subarray geometry.
///
/// Everything in here is a pure function of `(sub_rows, sub_cols, cell,
/// tech)` — the mat count, word width, and total capacity do not enter —
/// which is what makes it safe to tabulate under exactly that key (the
/// cell fixes the device preset behind [`RamCell::device`]).
#[derive(Debug, Clone, Copy)]
struct GeomSolve {
    sub_area_m2: f64,
    sub_read_latency_s: f64,
    wl_switch_energy_j: f64,
    dec_delay_s: f64,
    dec_energy_j: f64,
    dec_leakage_w: f64,
    sa_energy_j: f64,
    sa_leakage_w: f64,
    write_verify: f64,
    dev_write_latency_s: f64,
    dev_write_energy_j: f64,
    cell_leak_per_bit_w: f64,
}

impl GeomSolve {
    /// Read latency with a route of the given delay each way.
    fn read_latency_s(&self, route_delay_s: f64) -> f64 {
        route_delay_s + self.sub_read_latency_s + route_delay_s
    }

    /// Read energy of a `bits`-wide word with a route of the given
    /// switching energy.
    fn read_energy_j(&self, bits: f64, route_energy_j: f64) -> f64 {
        2.0 * bits / 64.0 * route_energy_j * 64.0 // word routed on 64-bit bus
            + self.dec_energy_j
            + bits * (self.sa_energy_j + self.wl_switch_energy_j / 8.0)
    }

    /// Area of `mats` subarrays (mm²); no route term.
    fn area_mm2(&self, mats: usize) -> f64 {
        self.sub_area_m2 * mats as f64 * 1e6
    }
}

impl OptTarget {
    /// The search score of one geometry with the given route delay and
    /// energy.
    fn score(self, g: &GeomSolve, bits: f64, mats: usize, delay_s: f64, energy_j: f64) -> f64 {
        match self {
            OptTarget::ReadLatency => g.read_latency_s(delay_s),
            OptTarget::ReadEnergy => g.read_energy_j(bits, energy_j),
            OptTarget::Area => g.area_mm2(mats),
            OptTarget::ReadEdp => g.read_latency_s(delay_s) * g.read_energy_j(bits, energy_j),
        }
    }

    /// A lower bound on [`score`](OptTarget::score) over every route: the
    /// score with a zero-length route. Exact for `Area`, which has no
    /// route term.
    ///
    /// Route delay and energy are `>= 0`, each enters its score through
    /// additions and multiplications by non-negative factors, and IEEE
    /// rounding is monotone, so no routed score falls below this. A NaN
    /// bound never compares `>=`, so it prunes nothing; for EDP the
    /// product is only monotone when both factors are `>= 0`, so any
    /// other sign returns NaN.
    fn bound(self, g: &GeomSolve, bits: f64, mats: usize) -> f64 {
        match self {
            OptTarget::ReadEdp => {
                let (latency, energy) = (g.read_latency_s(0.0), g.read_energy_j(bits, 0.0));
                if latency >= 0.0 && energy >= 0.0 {
                    latency * energy
                } else {
                    f64::NAN
                }
            }
            _ => self.score(g, bits, mats, 0.0, 0.0),
        }
    }
}

impl PartialEq for RamArray {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.sub_rows == other.sub_rows
            && self.sub_cols == other.sub_cols
            && self.mats == other.mats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn cfg(cell: RamCell, capacity: u64) -> RamConfig {
        RamConfig {
            capacity_bits: capacity,
            word_bits: 64,
            cell,
            tech: TechNode::n40(),
        }
    }

    #[test]
    fn auto_organize_produces_valid_ram() {
        let ram = RamArray::auto_organize(&RamConfig::default(), OptTarget::ReadLatency)
            .expect("default organizes");
        let rep = ram.report();
        assert!(rep.read_latency_s > 0.0 && rep.read_latency_s < 1e-6);
        assert!(rep.area_mm2 > 0.0);
        assert!((ram.sub_rows * ram.sub_cols * ram.mats) as u64 >= 8 << 20);
    }

    #[test]
    fn sram_fastest_flash_slowest_write() {
        let sram = RamArray::auto_organize(&cfg(RamCell::Sram6T, 1 << 20), OptTarget::ReadLatency)
            .unwrap()
            .report();
        let nand = RamArray::auto_organize(
            &cfg(RamCell::Nand3D { layers: 64 }, 1 << 20),
            OptTarget::ReadLatency,
        )
        .unwrap()
        .report();
        assert!(sram.write_latency_s < nand.write_latency_s / 100.0);
    }

    #[test]
    fn flash_is_poor_main_memory_but_dense() {
        // The paper's example: flash is dense but write latency rules it
        // out as CPU/GPU main memory.
        let rram = RamArray::auto_organize(&cfg(RamCell::Rram1T1R, 8 << 20), OptTarget::Area)
            .unwrap()
            .report();
        let nand = RamArray::auto_organize(
            &cfg(RamCell::Nand3D { layers: 64 }, 8 << 20),
            OptTarget::Area,
        )
        .unwrap()
        .report();
        assert!(nand.area_mm2 < rram.area_mm2);
        assert!(nand.write_latency_s > 100.0 * rram.write_latency_s);
    }

    #[test]
    fn capacity_scales_area_roughly_linearly() {
        let small = RamArray::auto_organize(&cfg(RamCell::Rram1T1R, 1 << 20), OptTarget::Area)
            .unwrap()
            .report();
        let big = RamArray::auto_organize(&cfg(RamCell::Rram1T1R, 16 << 20), OptTarget::Area)
            .unwrap()
            .report();
        let ratio = big.area_mm2 / small.area_mm2;
        assert!(ratio > 10.0 && ratio < 24.0, "ratio {ratio}");
    }

    #[test]
    fn latency_target_beats_area_target_on_latency() {
        let c = cfg(RamCell::Pcm1T1R, 32 << 20);
        let lat = RamArray::auto_organize(&c, OptTarget::ReadLatency).unwrap();
        let area = RamArray::auto_organize(&c, OptTarget::Area).unwrap();
        assert!(lat.report().read_latency_s <= area.report().read_latency_s);
        assert!(area.report().area_mm2 <= lat.report().area_mm2);
    }

    #[test]
    fn sram_leaks_most() {
        let sram = RamArray::auto_organize(&cfg(RamCell::Sram6T, 1 << 20), OptTarget::ReadLatency)
            .unwrap()
            .report();
        let fefet =
            RamArray::auto_organize(&cfg(RamCell::Fefet1T, 1 << 20), OptTarget::ReadLatency)
                .unwrap()
                .report();
        assert!(sram.leakage_w > 10.0 * fefet.leakage_w);
    }

    #[test]
    fn stacking_layers_shrinks_footprint() {
        let l16 = RamArray::auto_organize(
            &cfg(RamCell::Nand3D { layers: 16 }, 64 << 20),
            OptTarget::Area,
        )
        .unwrap()
        .report();
        let l128 = RamArray::auto_organize(
            &cfg(RamCell::Nand3D { layers: 128 }, 64 << 20),
            OptTarget::Area,
        )
        .unwrap()
        .report();
        assert!(l128.area_mm2 < l16.area_mm2);
    }

    fn assert_reports_bit_identical(a: &RamReport, b: &RamReport) {
        assert_eq!(a.read_latency_s.to_bits(), b.read_latency_s.to_bits());
        assert_eq!(a.write_latency_s.to_bits(), b.write_latency_s.to_bits());
        assert_eq!(a.read_energy_j.to_bits(), b.read_energy_j.to_bits());
        assert_eq!(a.write_energy_j.to_bits(), b.write_energy_j.to_bits());
        assert_eq!(a.area_mm2.to_bits(), b.area_mm2.to_bits());
        assert_eq!(a.leakage_w.to_bits(), b.leakage_w.to_bits());
    }

    const CELLS: [RamCell; 7] = [
        RamCell::Sram6T,
        RamCell::Rram1T1R,
        RamCell::Pcm1T1R,
        RamCell::Mram1T1R,
        RamCell::Fefet1T,
        RamCell::Nand3D { layers: 64 },
        RamCell::Rram3D { layers: 8 },
    ];

    fn geom_bits(g: &GeomSolve) -> [u64; 12] {
        let GeomSolve {
            sub_area_m2,
            sub_read_latency_s,
            wl_switch_energy_j,
            dec_delay_s,
            dec_energy_j,
            dec_leakage_w,
            sa_energy_j,
            sa_leakage_w,
            write_verify,
            dev_write_latency_s,
            dev_write_energy_j,
            cell_leak_per_bit_w,
        } = *g;
        [
            sub_area_m2,
            sub_read_latency_s,
            wl_switch_energy_j,
            dec_delay_s,
            dec_energy_j,
            dec_leakage_w,
            sa_energy_j,
            sa_leakage_w,
            write_verify,
            dev_write_latency_s,
            dev_write_energy_j,
            cell_leak_per_bit_w,
        ]
        .map(f64::to_bits)
    }

    /// The report composed from a fresh geometry solve, bypassing the table.
    fn fresh_report(ram: &RamArray) -> RamReport {
        let (cell, tech) = (ram.config.cell, &ram.config.tech);
        let g = geom_solve(ram.sub_rows, ram.sub_cols, cell, tech);
        ram.report_from(&g, &route(&g, ram.mats, tech))
    }

    /// The exhaustive organization search the pruned one must reproduce:
    /// a full fresh report for every geometry that fits, keeping the first
    /// strictly smallest score.
    fn exhaustive(config: &RamConfig, target: OptTarget) -> Result<RamArray, RamError> {
        let mut best: Option<(f64, RamArray)> = None;
        for shift_r in 7..=12 {
            for shift_c in 7..=12 {
                let rows = 1usize << shift_r;
                let cols = 1usize << shift_c;
                if (rows * cols) as u64 > config.capacity_bits.max(1) * 4 {
                    continue;
                }
                let ram = RamArray::with_subarray(config, rows, cols)?;
                let rep = fresh_report(&ram);
                let score = match target {
                    OptTarget::ReadLatency => rep.read_latency_s,
                    OptTarget::ReadEnergy => rep.read_energy_j,
                    OptTarget::Area => rep.area_mm2,
                    OptTarget::ReadEdp => rep.read_latency_s * rep.read_energy_j,
                };
                if best.as_ref().is_none_or(|(s, _)| score < *s) {
                    best = Some((score, ram));
                }
            }
        }
        match best {
            Some((_, ram)) => Ok(ram),
            None => RamArray::with_subarray(config, 128, 128),
        }
    }

    #[test]
    fn geometry_table_matches_fresh_solves_bit_for_bit() {
        for tech in [TechNode::n40(), TechNode::n22()] {
            for cell in CELLS {
                let table = geometry_table(cell, &tech);
                for (i, entry) in table.iter().enumerate() {
                    let (rows, cols) = geometry(i);
                    assert_eq!(table_index(rows, cols), Some(i));
                    assert_eq!(
                        geom_bits(entry),
                        geom_bits(&geom_solve(rows, cols, cell, &tech)),
                        "{cell:?} {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_covers_exactly_the_searched_shapes() {
        let searched: Vec<(usize, usize)> = (7..=12)
            .flat_map(|r| (7..=12).map(move |c| (1usize << r, 1usize << c)))
            .collect();
        assert_eq!(
            searched,
            (0..SIDES * SIDES).map(geometry).collect::<Vec<_>>()
        );
        for (rows, cols) in [
            (64, 128),
            (128, 8192),
            (96, 256),
            (0, 128),
            (usize::MAX, 128),
        ] {
            assert_eq!(table_index(rows, cols), None, "{rows}x{cols}");
        }
    }

    #[test]
    fn off_table_geometries_report_a_fresh_solve() {
        let config = cfg(RamCell::Pcm1T1R, 8 << 20);
        for (rows, cols) in [(96, 256), (512, 8192), (64, 64)] {
            let ram = RamArray::with_subarray(&config, rows, cols).expect("organizes");
            assert_reports_bit_identical(&ram.report(), &fresh_report(&ram));
        }
    }

    #[test]
    fn non_physical_nodes_are_searched_without_pruning() {
        let tech = TechNode {
            wire_c_per_um: -0.2e-15,
            ..TechNode::n40()
        };
        assert!(!routes_are_nonnegative(&tech));
        assert!(TechNode::all().iter().all(routes_are_nonnegative));
        for capacity in [1 << 16, 8 << 20, 1 << 30] {
            let config = RamConfig {
                tech: tech.clone(),
                ..cfg(RamCell::Rram1T1R, capacity)
            };
            for target in TARGETS {
                assert_eq!(
                    RamArray::auto_organize(&config, target),
                    exhaustive(&config, target),
                    "{capacity} {target:?}"
                );
            }
        }
    }

    const TARGETS: [OptTarget; 4] = [
        OptTarget::ReadLatency,
        OptTarget::ReadEnergy,
        OptTarget::Area,
        OptTarget::ReadEdp,
    ];

    /// Memo enablement is process-global; the two oracle runs pin it.
    static MEMO_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn any_cell() -> impl Strategy<Value = RamCell> {
        (0..CELLS.len(), any::<u8>()).prop_map(|(i, layers)| match CELLS[i] {
            RamCell::Nand3D { .. } => RamCell::Nand3D { layers },
            RamCell::Rram3D { .. } => RamCell::Rram3D { layers },
            cell => cell,
        })
    }

    /// A preset node, or a preset with every parameter scaled by its own
    /// factor in `[0.5, 2]`.
    fn any_tech() -> impl Strategy<Value = TechNode> {
        (
            0..7usize,
            any::<bool>(),
            prop::collection::vec(0.5f64..=2.0, 10),
        )
            .prop_map(|(i, scale, f)| {
                let t = TechNode::all().swap_remove(i);
                if !scale {
                    return t;
                }
                TechNode {
                    feature_nm: t.feature_nm * f[0],
                    vdd: t.vdd * f[1],
                    ion_n_per_um: t.ion_n_per_um * f[2],
                    ion_p_per_um: t.ion_p_per_um * f[3],
                    ioff_per_um: t.ioff_per_um * f[4],
                    cgate_per_um: t.cgate_per_um * f[5],
                    cdrain_per_um: t.cdrain_per_um * f[6],
                    wire_r_per_um: t.wire_r_per_um * f[7],
                    wire_c_per_um: t.wire_c_per_um * f[8],
                    min_width_um: t.min_width_um * f[9],
                }
            })
    }

    /// Capacities of 0, 1, below one word, or anywhere up to 2^36 bits.
    fn any_config() -> impl Strategy<Value = RamConfig> {
        (
            0..8u8,
            0..=36u32,
            any::<u64>(),
            0..=1024usize,
            any_cell(),
            any_tech(),
        )
            .prop_map(|(kind, log2, r, word_bits, cell, tech)| RamConfig {
                capacity_bits: match kind {
                    0 => 0,
                    1 => 1,
                    2 => r % (word_bits as u64).max(1),
                    _ => 1 + r % (1u64 << log2),
                },
                word_bits,
                cell,
                tech,
            })
    }

    fn agrees_with_oracle(config: &RamConfig, target: OptTarget) -> Result<(), TestCaseError> {
        let pruned = RamArray::auto_organize(config, target);
        let oracle = exhaustive(config, target);
        let shape = |r: &Result<RamArray, RamError>| {
            r.as_ref()
                .map(|ram| (ram.sub_rows, ram.sub_cols, ram.mats))
                .map_err(Clone::clone)
        };
        prop_assert_eq!(shape(&pruned), shape(&oracle), "{:?} {:?}", config, target);
        if let (Ok(pruned), Ok(oracle)) = (&pruned, &oracle) {
            let (a, b) = (pruned.report(), fresh_report(oracle));
            prop_assert_eq!(
                [
                    a.read_latency_s,
                    a.write_latency_s,
                    a.read_energy_j,
                    a.write_energy_j,
                    a.area_mm2,
                    a.leakage_w
                ]
                .map(f64::to_bits),
                [
                    b.read_latency_s,
                    b.write_latency_s,
                    b.read_energy_j,
                    b.write_energy_j,
                    b.area_mm2,
                    b.leakage_w
                ]
                .map(f64::to_bits)
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pruned_search_matches_the_oracle_with_memo_on(config in any_config(), t in 0..4usize) {
            let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            xlda_num::memo::set_enabled(true);
            agrees_with_oracle(&config, TARGETS[t])?;
        }

        #[test]
        fn pruned_search_matches_the_oracle_with_memo_off(config in any_config(), t in 0..4usize) {
            let _guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            xlda_num::memo::set_enabled(false);
            let outcome = agrees_with_oracle(&config, TARGETS[t]);
            xlda_num::memo::set_enabled(true);
            outcome?;
        }
    }

    #[test]
    fn degenerate_configs_error() {
        let c = RamConfig {
            capacity_bits: 0,
            ..RamConfig::default()
        };
        assert_eq!(
            RamArray::with_subarray(&c, 128, 128),
            Err(RamError::EmptyConfig)
        );
        let c2 = RamConfig {
            capacity_bits: 8,
            word_bits: 64,
            ..RamConfig::default()
        };
        assert_eq!(
            RamArray::with_subarray(&c2, 128, 128),
            Err(RamError::CapacityBelowWord)
        );
    }
}

#[cfg(test)]
mod monolithic_3d_tests {
    use super::*;

    #[test]
    fn monolithic_3d_rram_is_densest_nv_ram() {
        // Sec. II-A / DESTINY lane: vertical RRAM enables monolithic 3-D
        // ICs; stacking amortizes the 4F² crosspoint below every planar
        // cell — without flash's write penalty.
        let mk = |cell: RamCell| {
            RamArray::auto_organize(
                &RamConfig {
                    capacity_bits: (64 * 8) << 20,
                    cell,
                    ..RamConfig::default()
                },
                OptTarget::Area,
            )
            .expect("organizes")
            .report()
        };
        let planar = mk(RamCell::Rram1T1R);
        let stacked = mk(RamCell::Rram3D { layers: 8 });
        // Cells shrink 24x but decoders/sense-amps do not stack, so the
        // footprint gain saturates below the layer count — the
        // peripheral-dominated density ceiling DESTINY-style models
        // expose.
        assert!(stacked.area_mm2 < planar.area_mm2 / 2.0);
        // Unlike 3D NAND, writes stay RRAM-fast.
        let nand = mk(RamCell::Nand3D { layers: 64 });
        assert!(stacked.write_latency_s < nand.write_latency_s / 100.0);
    }

    #[test]
    fn more_layers_more_density() {
        let mk = |layers: u8| {
            RamArray::auto_organize(
                &RamConfig {
                    capacity_bits: (16 * 8) << 20,
                    cell: RamCell::Rram3D { layers },
                    ..RamConfig::default()
                },
                OptTarget::Area,
            )
            .expect("organizes")
            .report()
            .area_mm2
        };
        assert!(mk(16) < mk(4));
    }
}
