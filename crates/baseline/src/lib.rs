//! Roofline-style analytical baseline platforms (CPU, GPU, TPU, hybrids).
//!
//! The paper's platform comparisons (Fig. 3E runtime breakdown, Fig. 3H
//! latency bars, the MANN latency advantage in Fig. 4E) need software
//! baselines. We model each platform with the classic roofline plus a
//! kernel-launch overhead:
//!
//! `t(kernel, batch) = launch + max(compute_time, memory_time)`
//!
//! which captures the two effects those figures hinge on: batch-1
//! inference is launch/transfer dominated (GPUs amortize poorly at the
//! edge), and search-style kernels are memory-bound (all stored data must
//! stream per query).
//!
//! Constants are calibrated to public datacenter-class specs; what
//! matters for the reproduction is *ranking and orders of magnitude*,
//! per DESIGN.md §2.
//!
//! # Examples
//!
//! ```
//! use xlda_baseline::{Kernel, Platform};
//!
//! let gpu = Platform::gpu();
//! let k = Kernel { flops_per_item: 2_000_000, bytes_per_item: 4_096, shared_bytes: 1_000_000 };
//! // Batched inference amortizes launch overhead and shared streaming.
//! let t1 = gpu.time(&k, 1);
//! let t1000 = gpu.time(&k, 1000) / 1000.0;
//! assert!(t1000 < t1);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

/// One compute kernel's resource demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kernel {
    /// Floating-point (or MAC) operations per batch item.
    pub flops_per_item: u64,
    /// Bytes streamed per batch item (activations, per-query data).
    pub bytes_per_item: u64,
    /// Bytes streamed once per batch regardless of size (weights, stored
    /// class HVs, learned memories).
    pub shared_bytes: u64,
}

impl Kernel {
    /// A dense `m x n` matrix-vector product.
    pub fn mvm(m: usize, n: usize) -> Self {
        Self {
            flops_per_item: 2 * (m as u64) * (n as u64),
            bytes_per_item: 4 * (m + n) as u64,
            shared_bytes: 4 * (m as u64) * (n as u64),
        }
    }

    /// An associative search of one query against `entries` stored
    /// vectors of `dim` elements (`bytes_per_elem` each).
    pub fn search(entries: usize, dim: usize, bytes_per_elem: usize) -> Self {
        let ops = 2 * (entries as u64) * (dim as u64);
        Self {
            flops_per_item: ops,
            bytes_per_item: (entries * dim * bytes_per_elem) as u64,
            shared_bytes: 0,
        }
    }
}

/// An analytical compute platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Display name.
    pub name: &'static str,
    /// Peak compute throughput (FLOP/s or MAC·2/s).
    pub peak_flops: f64,
    /// Sustained memory bandwidth (B/s).
    pub mem_bw: f64,
    /// Per-kernel launch/dispatch overhead (s).
    pub launch_overhead: f64,
    /// Active power while running (W).
    pub active_power: f64,
    /// Achievable fraction of peak on irregular kernels.
    pub efficiency: f64,
}

impl Platform {
    /// Datacenter GPU (V100-class: ~14 TFLOP/s fp32, 900 GB/s HBM).
    pub fn gpu() -> Self {
        Self {
            name: "GPU",
            peak_flops: 14e12,
            mem_bw: 900e9,
            launch_overhead: 10e-6,
            active_power: 300.0,
            efficiency: 0.6,
        }
    }

    /// TPU-style systolic accelerator (dense MVM only: high peak, lower
    /// flexibility).
    pub fn tpu() -> Self {
        Self {
            name: "TPU",
            peak_flops: 45e12,
            mem_bw: 600e9,
            launch_overhead: 5e-6,
            active_power: 200.0,
            efficiency: 0.8,
        }
    }

    /// Server CPU (few hundred GFLOP/s, DDR-class bandwidth).
    pub fn cpu() -> Self {
        Self {
            name: "CPU",
            peak_flops: 200e9,
            mem_bw: 50e9,
            launch_overhead: 0.2e-6,
            active_power: 120.0,
            efficiency: 0.5,
        }
    }

    /// Edge GPU (Jetson-class).
    pub fn edge_gpu() -> Self {
        Self {
            name: "edge-GPU",
            peak_flops: 1e12,
            mem_bw: 60e9,
            launch_overhead: 15e-6,
            active_power: 15.0,
            efficiency: 0.5,
        }
    }

    /// Wall-clock time (s) to run `kernel` over a batch of `batch` items.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn time(&self, kernel: &Kernel, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let flops = (kernel.flops_per_item * batch as u64) as f64;
        let bytes = (kernel.shared_bytes + kernel.bytes_per_item * batch as u64) as f64;
        let t_compute = flops / (self.peak_flops * self.efficiency);
        let t_mem = bytes / self.mem_bw;
        self.launch_overhead + t_compute.max(t_mem)
    }

    /// Energy (J) for the same batched kernel.
    pub fn energy(&self, kernel: &Kernel, batch: usize) -> f64 {
        self.active_power * self.time(kernel, batch)
    }

    /// Time per item for a batched run.
    pub fn time_per_item(&self, kernel: &Kernel, batch: usize) -> f64 {
        self.time(kernel, batch) / batch as f64
    }
}

/// A two-stage heterogeneous pipeline: stage A on one platform, stage B
/// on another, with a fixed hand-off cost (the TPU-GPU hybrid of
/// Fig. 3H).
#[derive(Debug, Clone, PartialEq)]
pub struct HybridPipeline {
    /// Platform executing the first kernel.
    pub first: Platform,
    /// Platform executing the second kernel.
    pub second: Platform,
    /// Data hand-off latency between the stages (s).
    pub handoff: f64,
}

impl HybridPipeline {
    /// The TPU(encode) + GPU(search) hybrid used in Fig. 3H.
    pub fn tpu_gpu() -> Self {
        Self {
            first: Platform::tpu(),
            second: Platform::gpu(),
            handoff: 2e-6,
        }
    }

    /// Batched end-to-end time for the two-kernel pipeline (s).
    pub fn time(&self, first: &Kernel, second: &Kernel, batch: usize) -> f64 {
        self.first.time(first, batch) + self.handoff + self.second.time(second, batch)
    }

    /// Energy (J) for the two-kernel pipeline.
    pub fn energy(&self, first: &Kernel, second: &Kernel, batch: usize) -> f64 {
        self.first.energy(first, batch) + self.second.energy(second, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_amortizes_launch() {
        let gpu = Platform::gpu();
        let k = Kernel::mvm(4096, 617);
        let t1 = gpu.time_per_item(&k, 1);
        let t1000 = gpu.time_per_item(&k, 1000);
        assert!(t1 > 20.0 * t1000, "t1 {t1} t1000 {t1000}");
    }

    #[test]
    fn search_is_memory_bound_on_gpu() {
        let gpu = Platform::gpu();
        let k = Kernel::search(1_000_000, 512, 4);
        let bytes = (k.bytes_per_item) as f64;
        let t = gpu.time(&k, 1) - gpu.launch_overhead;
        // Time tracks the memory roofline, not the compute roofline.
        assert!((t - bytes / gpu.mem_bw).abs() / t < 0.05);
    }

    #[test]
    fn tpu_beats_gpu_on_dense_mvm() {
        let k = Kernel::mvm(8192, 8192);
        let tpu = Platform::tpu().time(&k, 64);
        let gpu = Platform::gpu().time(&k, 64);
        assert!(tpu < gpu);
    }

    #[test]
    fn cpu_slowest_for_heavy_compute() {
        let k = Kernel::mvm(4096, 4096);
        let cpu = Platform::cpu().time(&k, 16);
        let gpu = Platform::gpu().time(&k, 16);
        assert!(cpu > 10.0 * gpu);
    }

    #[test]
    fn cpu_wins_tiny_kernels_via_low_launch_cost() {
        let k = Kernel {
            flops_per_item: 1000,
            bytes_per_item: 100,
            shared_bytes: 0,
        };
        let cpu = Platform::cpu().time(&k, 1);
        let gpu = Platform::gpu().time(&k, 1);
        assert!(cpu < gpu, "cpu {cpu} gpu {gpu}");
    }

    #[test]
    fn hybrid_improves_encode_bound_pipelines() {
        // Encode-heavy pipeline: big MVM then small search.
        let encode = Kernel::mvm(8192, 4096);
        let search = Kernel::search(26, 8192, 4);
        let gpu = Platform::gpu();
        let pure = gpu.time(&encode, 64) + gpu.time(&search, 64);
        let hybrid = HybridPipeline::tpu_gpu().time(&encode, &search, 64);
        assert!(hybrid < pure, "hybrid {hybrid} pure {pure}");
    }

    #[test]
    fn energy_positive_and_proportional() {
        let gpu = Platform::gpu();
        let k = Kernel::mvm(1024, 1024);
        let e1 = gpu.energy(&k, 1);
        let e10 = gpu.energy(&k, 10);
        assert!(e1 > 0.0);
        assert!(e10 > e1);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        Platform::gpu().time(&Kernel::mvm(8, 8), 0);
    }
}
