//! Workload kernel traces.
//!
//! A workload is a dependency-ordered list of kernels, each with compute
//! and memory demands and an "offloadable" flag (dense MVM-shaped work an
//! analog crossbar can absorb). Trace builders approximate the benchmark
//! families the gem5-X studies evaluate: CNNs, LSTMs, and transformers,
//! plus the HDC and MANN pipelines of the case studies.

/// One kernel invocation in a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOp {
    /// Kernel label (reports).
    pub name: String,
    /// Arithmetic operations (MAC = 2 ops).
    pub compute_ops: u64,
    /// Stationary parameter bytes (weights). Crossbar accelerators hold
    /// these resident in the array; CPUs must stream them.
    pub weight_bytes: u64,
    /// Per-invocation activation/data bytes (always move).
    pub activation_bytes: u64,
    /// Whether an analog crossbar can execute it (dense MVM-like).
    pub offloadable: bool,
}

impl KernelOp {
    /// Total bytes a cache-based core streams.
    pub fn cpu_bytes(&self) -> u64 {
        self.weight_bytes + self.activation_bytes
    }
}

/// A named sequence of kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload label.
    pub name: String,
    /// Kernels in dependency order.
    pub kernels: Vec<KernelOp>,
}

impl Workload {
    /// Total arithmetic operations.
    pub fn total_ops(&self) -> u64 {
        self.kernels.iter().map(|k| k.compute_ops).sum()
    }

    /// Fraction of operations in offloadable kernels (the Amdahl knob).
    pub fn offloadable_fraction(&self) -> f64 {
        let off: u64 = self
            .kernels
            .iter()
            .filter(|k| k.offloadable)
            .map(|k| k.compute_ops)
            .sum();
        off as f64 / self.total_ops().max(1) as f64
    }
}

/// A VGG-ish CNN inference trace with `conv_layers` convolution layers.
///
/// Convolutions (offloadable MVMs) dominate; interleaved with
/// non-offloadable activation/pooling/normalization kernels.
///
/// # Panics
///
/// Panics if `conv_layers == 0`.
pub fn cnn_trace(conv_layers: usize) -> Workload {
    assert!(conv_layers > 0, "need at least one layer");
    let mut kernels = Vec::new();
    let mut hw = 224usize;
    let mut channels = 32usize;
    for l in 0..conv_layers {
        let macs = (hw * hw * channels * channels * 9) as u64;
        let act_bytes = (hw * hw * channels * 4) as u64;
        let w_bytes = (channels * channels * 9 * 4) as u64;
        kernels.push(KernelOp {
            name: format!("conv{l}"),
            compute_ops: 2 * macs,
            weight_bytes: w_bytes,
            activation_bytes: act_bytes,
            offloadable: true,
        });
        kernels.push(KernelOp {
            name: format!("relu_pool{l}"),
            compute_ops: (hw * hw * channels * 4) as u64,
            weight_bytes: 0,
            activation_bytes: 2 * act_bytes,
            offloadable: false,
        });
        if l % 2 == 1 && hw > 14 {
            hw /= 2;
            channels = (channels * 2).min(512);
        }
    }
    kernels.push(KernelOp {
        name: "fc".into(),
        compute_ops: 2 * 4096 * 1000,
        weight_bytes: 4096 * 1000 * 4,
        activation_bytes: (4096 + 1000) * 4,
        offloadable: true,
    });
    kernels.push(KernelOp {
        name: "softmax".into(),
        compute_ops: 10_000,
        weight_bytes: 0,
        activation_bytes: 8_000,
        offloadable: false,
    });
    Workload {
        name: format!("cnn-{conv_layers}L"),
        kernels,
    }
}

/// An LSTM inference trace (`steps` timesteps of a `hidden`-wide cell).
///
/// Gate MVMs offload; elementwise gate math does not, and it is a larger
/// share than in CNNs — LSTMs benefit less from crossbars.
pub fn lstm_trace(steps: usize, hidden: usize) -> Workload {
    let mut kernels = Vec::new();
    for t in 0..steps {
        let macs = (8 * hidden * hidden) as u64;
        kernels.push(KernelOp {
            name: format!("gates_mvm{t}"),
            compute_ops: 2 * macs,
            weight_bytes: (8 * hidden * hidden * 4) as u64,
            activation_bytes: (10 * hidden * 4) as u64,
            offloadable: true,
        });
        kernels.push(KernelOp {
            name: format!("gate_elementwise{t}"),
            compute_ops: (24 * hidden) as u64 * 40,
            weight_bytes: 0,
            activation_bytes: (16 * hidden * 4) as u64,
            offloadable: false,
        });
    }
    Workload {
        name: format!("lstm-{steps}x{hidden}"),
        kernels,
    }
}

/// A transformer-encoder trace (`layers` blocks, `dim` model width,
/// `tokens` sequence length).
pub fn transformer_trace(layers: usize, dim: usize, tokens: usize) -> Workload {
    let mut kernels = Vec::new();
    for l in 0..layers {
        let proj_macs = (4 * tokens * dim * dim) as u64;
        kernels.push(KernelOp {
            name: format!("qkv_proj{l}"),
            compute_ops: 2 * proj_macs,
            weight_bytes: (4 * dim * dim * 4) as u64,
            activation_bytes: (5 * tokens * dim * 4) as u64,
            offloadable: true,
        });
        // Attention scores are activation-activation products: not
        // weight-stationary, so not crossbar-offloadable.
        let attn = (2 * tokens * tokens * dim) as u64;
        kernels.push(KernelOp {
            name: format!("attention{l}"),
            compute_ops: 2 * attn,
            weight_bytes: 0,
            activation_bytes: ((tokens * tokens + 2 * tokens * dim) * 4) as u64,
            offloadable: false,
        });
        let ffn_macs = (8 * tokens * dim * dim) as u64;
        kernels.push(KernelOp {
            name: format!("ffn{l}"),
            compute_ops: 2 * ffn_macs,
            weight_bytes: (8 * dim * dim * 4) as u64,
            activation_bytes: (5 * tokens * dim * 4) as u64,
            offloadable: true,
        });
        kernels.push(KernelOp {
            name: format!("norm_residual{l}"),
            compute_ops: (tokens * dim * 10) as u64,
            weight_bytes: 0,
            activation_bytes: (tokens * dim * 8) as u64,
            offloadable: false,
        });
    }
    Workload {
        name: format!("transformer-{layers}L"),
        kernels,
    }
}

/// The HDC inference pipeline (encode MVM + associative search).
pub fn hdc_trace(dim_in: usize, hv_dim: usize, classes: usize) -> Workload {
    Workload {
        name: "hdc".into(),
        kernels: vec![
            KernelOp {
                name: "encode".into(),
                compute_ops: 2 * (dim_in * hv_dim) as u64,
                weight_bytes: (dim_in * hv_dim / 8) as u64,
                activation_bytes: ((dim_in + hv_dim) * 4) as u64,
                offloadable: true,
            },
            KernelOp {
                name: "search".into(),
                compute_ops: 2 * (classes * hv_dim) as u64,
                weight_bytes: (classes * hv_dim) as u64,
                activation_bytes: (hv_dim * 4) as u64,
                offloadable: true,
            },
        ],
    }
}

/// The MANN inference pipeline (CNN embed + hash + AM search).
pub fn mann_trace(weights: usize, emb_dim: usize, hash_bits: usize, entries: usize) -> Workload {
    Workload {
        name: "mann".into(),
        kernels: vec![
            KernelOp {
                name: "cnn_embed".into(),
                compute_ops: 2 * (weights as u64) * 50,
                weight_bytes: (weights * 4) as u64,
                activation_bytes: 28 * 28 * 4,
                offloadable: true,
            },
            KernelOp {
                name: "lsh_hash".into(),
                compute_ops: 2 * (emb_dim * hash_bits) as u64,
                weight_bytes: (emb_dim * hash_bits * 4) as u64,
                activation_bytes: (emb_dim * 4) as u64,
                offloadable: true,
            },
            KernelOp {
                name: "am_search".into(),
                compute_ops: 2 * (entries * hash_bits) as u64,
                weight_bytes: (entries * hash_bits / 8) as u64,
                activation_bytes: (hash_bits / 8).max(1) as u64,
                offloadable: true,
            },
            KernelOp {
                name: "argmin".into(),
                compute_ops: entries as u64 * 4,
                weight_bytes: 0,
                activation_bytes: entries as u64 * 4,
                offloadable: false,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnn_is_overwhelmingly_offloadable() {
        let w = cnn_trace(8);
        assert!(
            w.offloadable_fraction() > 0.95,
            "{}",
            w.offloadable_fraction()
        );
        assert!(w.total_ops() > 1_000_000_000);
    }

    #[test]
    fn lstm_less_offloadable_than_cnn() {
        let cnn = cnn_trace(8);
        let lstm = lstm_trace(16, 512);
        assert!(lstm.offloadable_fraction() < cnn.offloadable_fraction());
        assert!(lstm.offloadable_fraction() > 0.5);
    }

    #[test]
    fn transformer_attention_is_not_offloadable() {
        let w = transformer_trace(4, 512, 256);
        let attn_ops: u64 = w
            .kernels
            .iter()
            .filter(|k| k.name.starts_with("attention"))
            .map(|k| k.compute_ops)
            .sum();
        assert!(attn_ops > 0);
        assert!(w.offloadable_fraction() < 1.0);
        assert!(w.offloadable_fraction() > 0.7);
    }

    #[test]
    fn trace_kernel_counts() {
        assert_eq!(cnn_trace(4).kernels.len(), 4 * 2 + 2);
        assert_eq!(lstm_trace(3, 128).kernels.len(), 6);
        assert_eq!(hdc_trace(617, 4096, 26).kernels.len(), 2);
        assert_eq!(mann_trace(65_000, 64, 128, 25).kernels.len(), 4);
    }
}
