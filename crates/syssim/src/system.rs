//! System model: core, cache hierarchy, DRAM, and crossbar accelerator.

use crate::event::EventQueue;
use crate::workload::{KernelOp, Workload};

/// In-order core parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency (Hz).
    pub freq_hz: f64,
    /// Sustained operations per cycle.
    pub ipc: f64,
    /// Kernel dispatch overhead (s).
    pub dispatch_s: f64,
    /// Active power (W).
    pub power_w: f64,
}

impl Default for CoreConfig {
    /// A 2 GHz core sustaining 32 ops/cycle with SIMD (≈64 GOP/s).
    fn default() -> Self {
        Self {
            freq_hz: 2e9,
            ipc: 32.0,
            dispatch_s: 0.5e-6,
            power_w: 10.0,
        }
    }
}

/// Two-level cache parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// L1 hit rate for streaming kernels.
    pub l1_hit: f64,
    /// L2 hit rate on L1 misses.
    pub l2_hit: f64,
    /// L2 access latency (s) charged per miss burst.
    pub l2_latency_s: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            l1_hit: 0.80,
            l2_hit: 0.50,
            l2_latency_s: 8e-9,
        }
    }
}

/// DRAM channel parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Sustained bandwidth (B/s).
    pub bandwidth: f64,
    /// First-access latency (s).
    pub latency_s: f64,
    /// Energy per byte (J/B).
    pub energy_per_byte: f64,
}

impl Default for DramConfig {
    /// LPDDR4-class channel.
    fn default() -> Self {
        Self {
            bandwidth: 25e9,
            latency_s: 60e-9,
            energy_per_byte: 20e-12,
        }
    }
}

/// Analog crossbar accelerator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Crossbar tile rows.
    pub rows: usize,
    /// Crossbar tile columns.
    pub cols: usize,
    /// Latency of one tile MVM, converters included (s).
    pub mvm_latency_s: f64,
    /// Energy of one tile MVM (J).
    pub mvm_energy_j: f64,
    /// Parallel crossbar tiles.
    pub units: usize,
    /// DMA bandwidth between memory and the accelerator (B/s).
    pub dma_bandwidth: f64,
    /// Per-kernel accelerator setup cost (s).
    pub setup_s: f64,
    /// Whether tile DMA overlaps tile compute (double buffering).
    pub double_buffer: bool,
}

impl Default for AccelConfig {
    /// A 2-tile 256×256 analog macro, ~200 ns per tile MVM
    /// (≈1.3 TOP/s peak — ~20× the default core).
    fn default() -> Self {
        Self {
            rows: 256,
            cols: 256,
            mvm_latency_s: 200e-9,
            mvm_energy_j: 3e-9,
            units: 2,
            dma_bandwidth: 20e9,
            setup_s: 1e-6,
            double_buffer: true,
        }
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core model.
    pub core: CoreConfig,
    /// Cache model.
    pub cache: CacheConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Optional tightly coupled crossbar accelerator.
    pub accel: Option<AccelConfig>,
}

impl SystemConfig {
    /// A CPU-only baseline system.
    pub fn cpu_only() -> Self {
        Self {
            core: CoreConfig::default(),
            cache: CacheConfig::default(),
            dram: DramConfig::default(),
            accel: None,
        }
    }

    /// The same system with the default crossbar accelerator attached.
    pub fn with_crossbar() -> Self {
        Self {
            accel: Some(AccelConfig::default()),
            ..Self::cpu_only()
        }
    }
}

/// Per-kernel simulation record.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name.
    pub name: String,
    /// Time spent (s).
    pub time_s: f64,
    /// Whether it ran on the accelerator.
    pub on_accel: bool,
}

/// Simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end time (s).
    pub total_time_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
    /// Per-kernel breakdown.
    pub kernels: Vec<KernelRecord>,
    /// Number of discrete events processed.
    pub events: usize,
}

/// Accelerator tile event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileEvent {
    DmaDone(usize),
    ComputeDone(usize),
}

/// An instantiated system ready to run workloads.
#[derive(Debug, Clone)]
pub struct System {
    config: SystemConfig,
}

impl System {
    /// Builds a system from its configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            config: config.clone(),
        }
    }

    /// CPU execution time of one kernel (s): dispatch plus the larger of
    /// the compute and memory streams (hardware prefetch overlaps them).
    fn cpu_kernel_time(&self, k: &KernelOp) -> f64 {
        let c = &self.config.core;
        let t_compute = k.compute_ops as f64 / (c.freq_hz * c.ipc);
        let cache = &self.config.cache;
        let l1_miss = 1.0 - cache.l1_hit;
        let l2_traffic = k.cpu_bytes() as f64 * l1_miss;
        let dram_traffic = l2_traffic * (1.0 - cache.l2_hit);
        let t_mem = l2_traffic / 100e9 // L2 bandwidth
            + dram_traffic / self.config.dram.bandwidth
            + self.config.dram.latency_s
            + cache.l2_latency_s;
        c.dispatch_s + t_compute.max(t_mem)
    }

    /// Accelerator execution: tile-level event simulation with optional
    /// double buffering. Returns (time, events processed).
    fn accel_kernel_time(&self, k: &KernelOp, accel: &AccelConfig) -> (f64, usize) {
        let ops_per_tile = (2 * accel.rows * accel.cols) as u64;
        let tiles = k.compute_ops.div_ceil(ops_per_tile).max(1) as usize;
        // Weights are resident in the crossbars; only activations move.
        let dma_per_tile = (k.activation_bytes as f64 / tiles as f64) / accel.dma_bandwidth;
        let mut q: EventQueue<TileEvent> = EventQueue::new();
        let mut events = 0usize;

        // DMA engine is serial; compute units are parallel.
        let mut dma_free_at = accel.setup_s;
        let mut unit_free_at = vec![accel.setup_s; accel.units];
        let mut next_tile_to_fetch = 0usize;
        let mut completed = 0usize;
        let mut finish_time: f64 = accel.setup_s;

        // Prime the pipeline: fetch the first tile (or all tiles when not
        // double buffered, still serially through the DMA engine).
        let inflight_limit = if accel.double_buffer {
            accel.units + 1
        } else {
            1
        };
        let mut inflight = 0usize;
        while next_tile_to_fetch < tiles && inflight < inflight_limit {
            dma_free_at += dma_per_tile;
            q.schedule_at(
                crate::event::SimTime::from_secs(dma_free_at),
                TileEvent::DmaDone(next_tile_to_fetch),
            );
            next_tile_to_fetch += 1;
            inflight += 1;
        }

        while let Some((t, ev)) = q.pop() {
            events += 1;
            let now = t.as_secs();
            match ev {
                TileEvent::DmaDone(tile) => {
                    // Assign to the earliest-free unit.
                    let (u, &free_at) = unit_free_at
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(b.1))
                        .expect("units exist");
                    let start = now.max(free_at);
                    let done = start + accel.mvm_latency_s;
                    unit_free_at[u] = done;
                    q.schedule_at(crate::event::SimTime::from_secs(done), {
                        TileEvent::ComputeDone(tile)
                    });
                }
                TileEvent::ComputeDone(_) => {
                    completed += 1;
                    finish_time = finish_time.max(now);
                    if next_tile_to_fetch < tiles {
                        let start = dma_free_at.max(now);
                        dma_free_at = start + dma_per_tile;
                        q.schedule_at(
                            crate::event::SimTime::from_secs(dma_free_at),
                            TileEvent::DmaDone(next_tile_to_fetch),
                        );
                        next_tile_to_fetch += 1;
                    }
                }
            }
        }
        debug_assert_eq!(completed, tiles);
        (finish_time, events)
    }

    /// Runs a workload to completion.
    pub fn run(&self, workload: &Workload) -> SimReport {
        let mut total = 0.0;
        let mut energy = 0.0;
        let mut events = 0usize;
        let mut kernels = Vec::with_capacity(workload.kernels.len());
        for k in &workload.kernels {
            let (t, on_accel) = match (&self.config.accel, k.offloadable) {
                (Some(a), true) => {
                    let (t, ev) = self.accel_kernel_time(k, a);
                    events += ev;
                    let ops_per_tile = (2 * a.rows * a.cols) as u64;
                    let tiles = k.compute_ops.div_ceil(ops_per_tile).max(1) as f64;
                    energy += tiles * a.mvm_energy_j
                        + k.activation_bytes as f64 * self.config.dram.energy_per_byte;
                    (t, true)
                }
                _ => {
                    let t = self.cpu_kernel_time(k);
                    events += 1;
                    energy += t * self.config.core.power_w
                        + k.cpu_bytes() as f64
                            * (1.0 - self.config.cache.l1_hit)
                            * (1.0 - self.config.cache.l2_hit)
                            * self.config.dram.energy_per_byte;
                    (t, false)
                }
            };
            total += t;
            kernels.push(KernelRecord {
                name: k.name.clone(),
                time_s: t,
                on_accel,
            });
        }
        SimReport {
            total_time_s: total,
            energy_j: energy,
            kernels,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{cnn_trace, lstm_trace};

    #[test]
    fn accelerated_system_is_faster_on_cnn() {
        let w = cnn_trace(8);
        let cpu = System::new(&SystemConfig::cpu_only()).run(&w);
        let acc = System::new(&SystemConfig::with_crossbar()).run(&w);
        let speedup = cpu.total_time_s / acc.total_time_s;
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn energy_also_improves_with_offload() {
        let w = cnn_trace(8);
        let cpu = System::new(&SystemConfig::cpu_only()).run(&w);
        let acc = System::new(&SystemConfig::with_crossbar()).run(&w);
        assert!(acc.energy_j < cpu.energy_j);
    }

    #[test]
    fn double_buffering_helps() {
        let w = cnn_trace(6);
        let mut cfg = SystemConfig::with_crossbar();
        let db = System::new(&cfg).run(&w);
        cfg.accel.as_mut().expect("accel").double_buffer = false;
        let nodb = System::new(&cfg).run(&w);
        assert!(db.total_time_s < nodb.total_time_s);
    }

    #[test]
    fn more_units_help_compute_bound_kernels() {
        let w = cnn_trace(6);
        let mut cfg = SystemConfig::with_crossbar();
        cfg.accel.as_mut().expect("accel").units = 1;
        let one = System::new(&cfg).run(&w);
        cfg.accel.as_mut().expect("accel").units = 8;
        let eight = System::new(&cfg).run(&w);
        assert!(eight.total_time_s < one.total_time_s);
    }

    #[test]
    fn non_offloadable_kernels_stay_on_cpu() {
        let w = lstm_trace(4, 256);
        let rep = System::new(&SystemConfig::with_crossbar()).run(&w);
        let cpu_kernels: Vec<&KernelRecord> = rep.kernels.iter().filter(|k| !k.on_accel).collect();
        assert!(!cpu_kernels.is_empty());
        assert!(cpu_kernels.iter().all(|k| k.name.contains("elementwise")));
    }

    #[test]
    fn event_counts_are_plausible() {
        let w = cnn_trace(4);
        let rep = System::new(&SystemConfig::with_crossbar()).run(&w);
        // Tile-level events: 2 per tile, many tiles for big convs.
        assert!(rep.events > 1000, "{} events", rep.events);
    }
}
