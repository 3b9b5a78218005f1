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

pub mod lifetime;

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
    static RAM_ORG: (u64, usize, RamCell, OptTarget, u64) => Result<(usize, usize), RamError>,
    "nvram.auto_organize"
);

memo_cache!(
    static RAM_GEOM: (usize, usize, RamCell, u64) => GeomSolve,
    "nvram.geometry"
);

/// Storage-cell style for a RAM array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
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
        if config.capacity_bits == 0 || config.word_bits == 0 || sub_rows == 0 || sub_cols == 0 {
            return Err(RamError::EmptyConfig);
        }
        if config.capacity_bits < config.word_bits as u64 {
            return Err(RamError::CapacityBelowWord);
        }
        let bits_per_sub = (sub_rows * sub_cols) as u64;
        let mats = config.capacity_bits.div_ceil(bits_per_sub).max(1) as usize;
        Ok(Self {
            config: config.clone(),
            sub_rows,
            sub_cols,
            mats,
        })
    }

    /// Searches subarray geometries (powers of two, 128..=4096 per side)
    /// and returns the organization minimizing `target`.
    ///
    /// The 36-geometry search re-runs identically for every sweep point
    /// sharing a (capacity, word, cell, target, node) tuple, so the
    /// winning subarray geometry is memoized process-wide; the returned
    /// array is rebuilt from the caller's config, which the key fully
    /// determines.
    ///
    /// # Errors
    ///
    /// Returns [`RamError`] for degenerate configurations.
    pub fn auto_organize(config: &RamConfig, target: OptTarget) -> Result<Self, RamError> {
        let _span = xlda_obs::span!("nvram.auto_organize");
        let (rows, cols) = RAM_ORG.get_or_insert_with(
            (
                config.capacity_bits,
                config.word_bits,
                config.cell,
                target,
                config.tech.memo_key(),
            ),
            || Self::auto_organize_uncached(config, target).map(|ram| (ram.sub_rows, ram.sub_cols)),
        )?;
        Self::with_subarray(config, rows, cols)
    }

    fn auto_organize_uncached(config: &RamConfig, target: OptTarget) -> Result<Self, RamError> {
        let mut best: Option<(f64, RamArray)> = None;
        for shift_r in 7..=12 {
            for shift_c in 7..=12 {
                let rows = 1usize << shift_r;
                let cols = 1usize << shift_c;
                if (rows * cols) as u64 > config.capacity_bits.max(1) * 4 {
                    continue;
                }
                let ram = Self::with_subarray(config, rows, cols)?;
                let rep = ram.report();
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
            None => Self::with_subarray(config, 128, 128),
        }
    }

    /// The configuration being modeled.
    pub fn config(&self) -> &RamConfig {
        &self.config
    }

    fn cell_edge_m(&self) -> f64 {
        (self.config.cell.area_f2_per_bit() * self.config.cell.layers() as f64).sqrt()
            * self.config.tech.feature_m()
    }

    fn wordline_cap(&self) -> f64 {
        let tech = &self.config.tech;
        let wl = Wire::new(self.sub_cols as f64 * self.cell_edge_m(), tech);
        wl.capacitance() + self.sub_cols as f64 * 0.15e-15
    }

    /// H-tree route length from the bank edge to a mat (half the bank
    /// edge), given the subarray footprint.
    fn route_len_m(&self, sub_area_m2: f64) -> f64 {
        let bank_edge_m = (sub_area_m2 * self.mats as f64).sqrt();
        (0.5 * bank_edge_m).max(1e-6)
    }

    /// Solves every sub-model that depends only on the subarray geometry
    /// — not on capacity or word width. This is the memoized part of
    /// [`report`](RamArray::report): the 36-geometry search of
    /// [`auto_organize`](RamArray::auto_organize) revisits the same
    /// handful of `(rows, cols, cell, tech)` tuples for every sweep
    /// point, so `report` solves each geometry once per process and
    /// recomposes only the per-point remainder (mat tiling, routing,
    /// word energies).
    fn geom_solve(&self) -> GeomSolve {
        let tech = &self.config.tech;
        let dev = self.config.cell.device();
        let sa = SenseAmp::current_mode(tech);
        let wl_cap = self.wordline_cap();
        let dec = Decoder::new(self.sub_rows, wl_cap, tech);

        let f2 = tech.f2_area_m2();
        let cells =
            (self.sub_rows * self.sub_cols) as f64 * self.config.cell.area_f2_per_bit() * f2;
        let sa_count = (self.sub_cols / 8).max(1) as f64; // 8:1 column mux
        let sub_area_m2 = (cells + sa_count * sa.area() + dec.area()) * 1.15;

        // Bitline development: cell current charges/discharges the line.
        let bl = Wire::new(self.sub_rows as f64 * self.cell_edge_m(), tech);
        let c_bl = bl.capacitance() + self.sub_rows as f64 * 0.1e-15;
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
            cell_leak_per_bit_w: match self.config.cell {
                RamCell::Sram6T => Sram::cell_6t().leakage_per_cell,
                _ => 1e-13,
            },
        }
    }

    /// Composes the full report from the geometry solve plus the
    /// per-point route.
    fn report_from(&self, g: &GeomSolve, route: &RepeatedWire) -> RamReport {
        let read_latency = route.delay() + g.sub_read_latency_s + route.delay();
        let write_latency = route.delay() + g.dec_delay_s + g.write_verify * g.dev_write_latency_s;

        let bits = self.config.word_bits as f64;
        let read_energy = 2.0 * bits / 64.0 * route.energy() * 64.0 // word routed on 64-bit bus
            + g.dec_energy_j
            + bits * (g.sa_energy_j + g.wl_switch_energy_j / 8.0);
        let write_energy = route.energy() * bits + g.dec_energy_j + bits * g.dev_write_energy_j;

        let cells_leak = self.config.capacity_bits as f64 * g.cell_leak_per_bit_w;
        // Idle mats are power-gated to ~5 % of their active leakage.
        let periph_leak =
            (1.0 + 0.05 * (self.mats as f64 - 1.0)) * (g.dec_leakage_w + 8.0 * g.sa_leakage_w);

        RamReport {
            read_latency_s: read_latency,
            write_latency_s: write_latency,
            read_energy_j: read_energy,
            write_energy_j: write_energy,
            area_mm2: g.sub_area_m2 * self.mats as f64 * 1e6,
            leakage_w: cells_leak + periph_leak,
        }
    }

    /// Full figure-of-merit report.
    ///
    /// The geometry solve is memoized process-wide under the exact key
    /// `(sub_rows, sub_cols, cell, tech.memo_key())` — every input of
    /// [`GeomSolve`] — so a hit returns the bits a fresh solve would.
    pub fn report(&self) -> RamReport {
        let g = RAM_GEOM.get_or_insert_with(
            (
                self.sub_rows,
                self.sub_cols,
                self.config.cell,
                self.config.tech.memo_key(),
            ),
            || self.geom_solve(),
        );
        let route = RepeatedWire::new(self.route_len_m(g.sub_area_m2), 250e-6, &self.config.tech);
        self.report_from(&g, &route)
    }
}

/// Capacity-independent sub-solves of one subarray geometry.
///
/// Everything in here is a pure function of `(sub_rows, sub_cols, cell,
/// tech)` — the mat count, word width, and total capacity do not enter —
/// which is what makes it safe to memoize under exactly that key (the
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

    #[test]
    fn geometry_memo_hit_matches_a_fresh_solve_bit_for_bit() {
        let cells = [
            RamCell::Sram6T,
            RamCell::Rram1T1R,
            RamCell::Pcm1T1R,
            RamCell::Mram1T1R,
            RamCell::Fefet1T,
            RamCell::Nand3D { layers: 64 },
            RamCell::Rram3D { layers: 8 },
        ];
        for tech in [TechNode::n40(), TechNode::n22()] {
            for cell in cells {
                let config = RamConfig {
                    tech: tech.clone(),
                    ..cfg(cell, 8 << 20)
                };
                let ram = RamArray::with_subarray(&config, 512, 256).expect("organizes");
                let _ = ram.report();
                let hits = RAM_GEOM.stats().hits();
                let memoized = ram.report();
                assert!(RAM_GEOM.stats().hits() > hits, "{cell:?}: no memo hit");
                let g = ram.geom_solve();
                let route = RepeatedWire::new(ram.route_len_m(g.sub_area_m2), 250e-6, &tech);
                assert_reports_bit_identical(&memoized, &ram.report_from(&g, &route));
            }
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
