//! Cross-layer candidate evaluators behind the unified [`Scenario`] API.
//!
//! Every evaluable workload is a type implementing [`Scenario`]: one
//! fallible [`Scenario::candidates`] call assembles end-to-end FOMs for
//! its concrete design points by composing the substrate crates —
//! baseline platform models for software mappings, the crossbar macro
//! model for in-memory encoding, and the Eva-CAM array model for
//! associative search. The built-in scenarios generate the candidate
//! sets behind the paper's platform comparisons ([`HdcScenario`] for
//! Fig. 3H, [`MannScenario`] for the latency side of Fig. 4E) plus the
//! two Sec. III open-question studies ([`EdgeScenario`],
//! [`TpuNvmScenario`]).
//!
//! Because dispatch is through one trait, every consumer — the sweep
//! engine, the triage loop, `xlda-serve`, and `xlda-bench` — picks up a
//! new workload as soon as it implements `Scenario`. (The pre-trait
//! per-workload free functions, deprecated in 0.2.0, were removed in
//! 0.3.0.)
//!
//! # Grid sweeps
//!
//! [`sweep_scenarios`] evaluates a slice of scenarios through
//! [`Scenario::candidates`] on the work-stealing engine and packs the
//! results into one [`CandidateBatch`] (structure-of-arrays columns with
//! a per-point status), so one failing point never takes down its grid.

use crate::error::{validate_fom, XldaError};
use crate::fom::{Candidate, Fom};
use crate::mc::McDistribution;
use crate::store::{Digest, DigestWriter};
use crate::sweep::{par_try_map, PointFailure, SweepOptions};
use xlda_baseline::{HybridPipeline, Kernel, Platform};
use xlda_circuit::tech::TechNode;
use xlda_crossbar::macro_model::{CrossbarMacro, MvmCost};
use xlda_crossbar::CrossbarConfig;
use xlda_evacam::{CamArray, CamCellDesign, CamConfig, DataKind, MatchKind};
use xlda_num::batch::{CandidateBatch, PointStatus};
use xlda_nvram::{OptTarget, RamArray, RamCell, RamConfig};

/// One evaluable workload mapping: a bundle of scenario parameters that
/// can assemble its full candidate set.
///
/// This is the single dispatch surface shared by the sweep engine, the
/// triage loop, the `xlda-serve` daemon, and `xlda-bench`: adding a
/// workload means implementing this trait once, and every consumer picks
/// it up without a new per-workload entry point.
///
/// Implementations must be pure (same parameters, same candidates) and
/// thread-safe — sweeps and the serving layer evaluate scenarios from
/// many workers concurrently.
///
/// # Examples
///
/// ```
/// use xlda_core::evaluate::{HdcScenario, Scenario};
///
/// let s = HdcScenario::default();
/// let candidates = s.candidates().expect("default scenario models");
/// assert_eq!(s.kind(), "hdc");
/// assert!(!candidates.is_empty());
/// ```
pub trait Scenario: Send + Sync {
    /// Stable workload-kind tag (`"hdc"`, `"mann"`, `"edge"`,
    /// `"tpu_nvm"`, …) used for request routing, batching labels, and
    /// reports.
    fn kind(&self) -> &'static str;

    /// Evaluates the scenario into its candidate set.
    ///
    /// # Errors
    ///
    /// The first layer rejection ([`XldaError::Cam`], [`XldaError::Ram`],
    /// [`XldaError::Crossbar`], [`XldaError::Circuit`]) or FOM
    /// validation failure ([`XldaError::InvalidFom`],
    /// [`XldaError::NonFinite`]).
    fn candidates(&self) -> Result<Vec<Candidate>, XldaError>;

    /// Full evaluation: the candidate set plus any Monte-Carlo
    /// distribution summaries.
    ///
    /// Deterministic scenarios keep this default (candidates only).
    /// Monte-Carlo scenarios override it to run their trial population
    /// once and derive both the distributions and the quantile-based
    /// candidates from the same draws — consumers that want everything
    /// (like `xlda-serve`) call this and never pay for the trials twice.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scenario::candidates`].
    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        Ok(Evaluation {
            candidates: self.candidates()?,
            distributions: Vec::new(),
        })
    }

    /// Content address of this scenario's complete parameter set for
    /// the persistent result store ([`crate::store`]).
    ///
    /// Must cover *everything* that can change the evaluation — kind
    /// tag, every numeric parameter (exact bits), tech/config
    /// fingerprints — and *nothing* that cannot (MC `batch`/`threads`
    /// are schedule-only by the trial-stream contract and are
    /// excluded). Two scenarios with equal keys must evaluate
    /// bit-identically.
    ///
    /// The default returns `None`, which makes the store transparently
    /// bypass itself for scenario types that have not opted in.
    fn store_key(&self) -> Option<Digest> {
        None
    }
}

/// Boxed scenarios (the serving layer's batching currency) delegate the
/// whole trait, so `ResultStore::sweep` and `successive_halving` accept
/// `&[Box<dyn Scenario>]` directly.
impl<T: Scenario + ?Sized> Scenario for Box<T> {
    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        (**self).candidates()
    }

    fn evaluate(&self) -> Result<Evaluation, XldaError> {
        (**self).evaluate()
    }

    fn store_key(&self) -> Option<Digest> {
        (**self).store_key()
    }
}

/// Folds the [`HdcScenario`] parameter block into an open digest —
/// shared by the HDC key and the wrapper scenarios (edge, TPU+NVM)
/// whose results are functions of the same block.
fn fold_hdc(w: &mut DigestWriter, s: &HdcScenario) {
    w.usize(s.dim_in)
        .usize(s.classes)
        .usize(s.hv_dim_sw)
        .usize(s.hv_dim_3b)
        .usize(s.hv_dim_2b)
        .usize(s.hv_dim_1b)
        .f64(s.acc_sw)
        .f64(s.acc_3b)
        .f64(s.acc_2b)
        .f64(s.acc_1b)
        .f64(s.acc_mlp)
        .word(s.tech.memo_key());
}

/// Everything one [`Scenario`] evaluation produces: the candidate set
/// every consumer understands, plus distribution summaries for
/// Monte-Carlo scenario kinds (empty for deterministic ones).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Assembled, validated candidates.
    pub candidates: Vec<Candidate>,
    /// Monte-Carlo outcome distributions, when the scenario has any.
    pub distributions: Vec<McDistribution>,
}

/// Scenario parameters for the HDC platform comparison (Fig. 3H).
///
/// HV dimensions are the *iso-accuracy sized* lengths: lower-precision
/// cells need longer hypervectors to reach the same accuracy (and 1-bit
/// cannot reach it at all), per Sec. III. The accuracy numbers are
/// produced by the `xlda-hdc` simulation and passed in.
#[derive(Debug, Clone, PartialEq)]
pub struct HdcScenario {
    /// Input feature dimensionality.
    pub dim_in: usize,
    /// Number of classes.
    pub classes: usize,
    /// HV length for the software / hybrid / MLP baselines.
    pub hv_dim_sw: usize,
    /// HV length giving iso-accuracy with 3-bit cells.
    pub hv_dim_3b: usize,
    /// HV length giving (near-)iso-accuracy with 2-bit cells.
    pub hv_dim_2b: usize,
    /// HV length used for the 1-bit SRAM CAM design point.
    pub hv_dim_1b: usize,
    /// Simulated accuracies for each design point.
    pub acc_sw: f64,
    /// 3-bit CAM accuracy.
    pub acc_3b: f64,
    /// 2-bit CAM accuracy.
    pub acc_2b: f64,
    /// 1-bit CAM accuracy.
    pub acc_1b: f64,
    /// MLP baseline accuracy.
    pub acc_mlp: f64,
    /// Process node for the dedicated hardware.
    pub tech: TechNode,
}

impl Default for HdcScenario {
    /// ISOLET-like shape with representative simulated accuracies.
    fn default() -> Self {
        Self {
            dim_in: 617,
            classes: 26,
            hv_dim_sw: 4096,
            hv_dim_3b: 2048,
            hv_dim_2b: 4096,
            hv_dim_1b: 4096,
            acc_sw: 0.93,
            acc_3b: 0.93,
            acc_2b: 0.92,
            acc_1b: 0.87,
            acc_mlp: 0.93,
            tech: TechNode::n40(),
        }
    }
}

/// Latency/energy of HDC inference on a software platform.
fn hdc_on_platform(s: &HdcScenario, platform: &Platform, batch: usize, hv: usize) -> (f64, f64) {
    let encode = Kernel::mvm(hv, s.dim_in);
    let search = Kernel::search(s.classes, hv, 4);
    let t = platform.time_per_item(&encode, batch) + platform.time_per_item(&search, batch);
    let e = (platform.energy(&encode, batch) + platform.energy(&search, batch)) / batch as f64;
    (t, e)
}

/// The HDC encoder's 256×256 crossbar macro: the cost of one MVM on one
/// tile and one tile's area (m²). Every CAM design point of a scenario
/// shares it.
///
/// # Errors
///
/// Propagates the crossbar model's rejection of the node.
fn hdc_encoder(s: &HdcScenario) -> Result<(MvmCost, f64), XldaError> {
    let _span = xlda_obs::span!("crossbar");
    let xbar_cfg = CrossbarConfig {
        rows: 256,
        cols: 256,
        ..CrossbarConfig::default()
    };
    let xmacro = CrossbarMacro::try_new(&xbar_cfg, &s.tech, 8)?;
    Ok((xmacro.mvm_cost(), xmacro.area_m2()))
}

/// Latency/energy/area of HDC inference on a crossbar encoder (see
/// [`hdc_encoder`]) plus a CAM associative memory.
///
/// # Errors
///
/// Propagates the CAM model's rejection of the design point (e.g. an
/// unachievable sense margin for long best-match words).
fn hdc_on_cam(
    s: &HdcScenario,
    (mvm, tile_area_m2): (MvmCost, f64),
    design: CamCellDesign,
    data: DataKind,
    hv: usize,
) -> Result<(f64, f64, f64), XldaError> {
    // Encoding: random-projection MVM on analog crossbar tiles. Column
    // tiles run in parallel macros; row tiles accumulate serially.
    let tiles_rows = s.dim_in.div_ceil(256);
    let tiles_cols = hv.div_ceil(256);
    let t_encode = tiles_rows as f64 * mvm.latency_s;
    let e_encode = (tiles_rows * tiles_cols) as f64 * mvm.energy_j;
    let a_encode = (tiles_rows * tiles_cols) as f64 * tile_area_m2 * 1e6; // mm²

    // Search: one CAM holding `classes` words of `hv` cells.
    let bits = data.bits_per_cell() as usize;
    let rep = {
        let _span = xlda_obs::span!("evacam");
        let cam = CamArray::new(CamConfig {
            words: s.classes,
            bits_per_word: hv * bits,
            design,
            data,
            match_kind: MatchKind::Best { max_distance: 8 },
            row_banks: 1,
            tech: s.tech.clone(),
        })?;
        cam.report()
    };
    let out = (
        t_encode + rep.search_latency_s,
        e_encode + rep.search_energy_j,
        a_encode + rep.area_um2 * 1e-6,
    );
    if !(out.0.is_finite() && out.1.is_finite() && out.2.is_finite()) {
        return Err(XldaError::NonFinite {
            stage: "hdc_on_cam",
            quantity: "latency/energy/area composition",
        });
    }
    Ok(out)
}

impl Scenario for HdcScenario {
    fn kind(&self) -> &'static str {
        "hdc"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        fold_hdc(&mut w, self);
        Some(w.finish())
    }

    /// Builds the full Fig. 3H candidate set: layer models reject
    /// infeasible design points with a typed [`XldaError`] instead of
    /// panicking, and every assembled FOM bundle is validated for
    /// finiteness before it enters the candidate set.
    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let s = self;
        let gpu = Platform::gpu();
        let mut out = Vec::new();

        let (t, e) = hdc_on_platform(s, &gpu, 1, s.hv_dim_sw);
        let name = "GPU HDC (batch 1)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?,
        ));

        let (t, e) = hdc_on_platform(s, &gpu, 1000, s.hv_dim_sw);
        let name = "GPU HDC (batch 1000)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?,
        ));

        // TPU encodes (dense MVM), GPU searches.
        let hybrid = HybridPipeline::tpu_gpu();
        let encode = Kernel::mvm(s.hv_dim_sw, s.dim_in);
        let search = Kernel::search(s.classes, s.hv_dim_sw, 4);
        let batch = 1000;
        let name = "TPU-GPU hybrid (batch 1000)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: hybrid.time(&encode, &search, batch) / batch as f64,
                    energy_j: hybrid.energy(&encode, &search, batch) / batch as f64,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?,
        ));

        let encoder = hdc_encoder(s)?;
        for (name, design, data, hv, acc) in [
            (
                "3b FeFET CAM",
                CamCellDesign::Fefet2T,
                DataKind::MultiBit(3),
                s.hv_dim_3b,
                s.acc_3b,
            ),
            (
                "2b FeFET CAM",
                CamCellDesign::Fefet2T,
                DataKind::MultiBit(2),
                s.hv_dim_2b,
                s.acc_2b,
            ),
            (
                "1b SRAM CAM",
                CamCellDesign::Sram16T,
                DataKind::Binary,
                s.hv_dim_1b,
                s.acc_1b,
            ),
        ] {
            let (t, e, a) = hdc_on_cam(s, encoder, design, data, hv)?;
            out.push(Candidate::new(
                name,
                validate_fom(
                    name,
                    Fom {
                        latency_s: t,
                        energy_j: e,
                        area_mm2: a,
                        accuracy: acc,
                    },
                )?,
            ));
        }

        out.push(tpu_nvm_fom(s, 1)?);

        // MLP baseline: dim_in -> 512 -> classes on a GPU, batched.
        let l1 = Kernel::mvm(512, s.dim_in);
        let l2 = Kernel::mvm(s.classes, 512);
        let t = gpu.time_per_item(&l1, 1000) + gpu.time_per_item(&l2, 1000);
        let e = (gpu.energy(&l1, 1000) + gpu.energy(&l2, 1000)) / 1000.0;
        let name = "GPU MLP (batch 1000)";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_mlp,
                },
            )?,
        ));

        Ok(out)
    }
}

/// The paper's open question (Sec. III): "What if an existing
/// architecture (e.g., a TPU) is backed by a dense or distributed
/// non-volatile memory? Is this a better way to leverage an emerging
/// technology?" — answered by evaluation.
///
/// Models a TPU-class systolic core whose weights (projection matrix and
/// class HVs) reside in on-chip FeFET NVM instead of streaming from HBM:
/// weight traffic moves at the aggregated on-chip array bandwidth and at
/// NVM read energy, and the host-dispatch overhead shrinks (no off-chip
/// weight staging). The framework's verdict (see the
/// `nvm_backed_tpu_answers_the_open_question` test): it beats the GPU
/// baselines — especially at batch 1 and in energy — but the technology-
/// *enabled* CAM design point still wins, i.e. using the new device as
/// plain dense memory captures only part of its value.
#[derive(Debug, Clone, PartialEq)]
pub struct TpuNvmScenario {
    /// The HDC workload whose weights the on-chip NVM holds.
    pub base: HdcScenario,
    /// Inference batch size the weight streaming amortizes over.
    pub batch: usize,
}

impl TpuNvmScenario {
    /// Wraps an HDC scenario at the given batch size.
    pub fn new(base: HdcScenario, batch: usize) -> Self {
        Self { base, batch }
    }
}

impl Default for TpuNvmScenario {
    fn default() -> Self {
        Self::new(HdcScenario::default(), 1)
    }
}

impl Scenario for TpuNvmScenario {
    fn kind(&self) -> &'static str {
        "tpu_nvm"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        fold_hdc(&mut w, &self.base);
        w.usize(self.batch);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        Ok(vec![tpu_nvm_fom(&self.base, self.batch)?])
    }
}

/// Assembles the NVM-backed-TPU candidate shared by [`HdcScenario`]
/// (batch 1, inside the Fig. 3H set) and [`TpuNvmScenario`].
///
/// # Errors
///
/// [`XldaError::Ram`] if the NVM weight store cannot be organized
/// (degenerate capacity), [`XldaError::InvalidFom`] if the assembled
/// FOMs are non-finite.
fn tpu_nvm_fom(s: &HdcScenario, batch: usize) -> Result<Candidate, XldaError> {
    let tpu = Platform::tpu();
    // Weight footprint: bipolar projection (1 bit/element) + 4-bit class
    // HVs, held in on-chip FeFET NVM.
    let weight_bytes = (s.dim_in * s.hv_dim_sw) as u64 / 8 + (s.classes * s.hv_dim_sw) as u64 / 2;
    let rep = {
        let _span = xlda_obs::span!("nvram");
        let ram = RamArray::auto_organize(
            &RamConfig {
                capacity_bits: weight_bytes * 8,
                word_bits: 256,
                cell: RamCell::Fefet1T,
                tech: s.tech.clone(),
            },
            OptTarget::ReadLatency,
        )?;
        ram.report()
    };
    // 16 mats stream in parallel: aggregated on-chip weight bandwidth.
    let nvm_bw = 16.0 * (256.0 / 8.0) / rep.read_latency_s;
    let flops = 2.0 * (s.dim_in * s.hv_dim_sw + s.classes * s.hv_dim_sw) as f64;
    let t_compute = batch as f64 * flops / (tpu.peak_flops * tpu.efficiency);
    let t_weights = weight_bytes as f64 / nvm_bw; // streamed once per batch
                                                  // On-chip dispatch only: no host weight staging.
    let launch = 1e-6;
    let latency = (launch + t_compute.max(t_weights)) / batch as f64;
    let e_compute = tpu.active_power * (launch + t_compute.max(t_weights));
    let e_weights = weight_bytes as f64 / 32.0 * rep.read_energy_j;
    let name = format!("TPU + on-chip NVM (batch {batch})");
    let fom = validate_fom(
        &name,
        Fom {
            latency_s: latency,
            energy_j: (e_compute + e_weights) / batch as f64,
            area_mm2: rep.area_mm2,
            accuracy: s.acc_sw,
        },
    )?;
    Ok(Candidate::new(name, fom))
}

/// The paper's open question (Sec. III, (1)): "What is the best baseline
/// architecture to compare to? (i.e., is an HDC model more likely to be
/// deployed 'on the edge', making small batches more likely and a GPU
/// less likely to be employed?)" — answered by building the edge
/// candidate set: an edge-class GPU and a CPU at batch 1 against the
/// same CAM design point.
///
/// The framework's verdict (see `edge_deployment_answers_open_question`):
/// at the edge the software baselines get *worse* (no batching to
/// amortize launch overhead, weaker silicon), so the CAM's advantage
/// widens — the fair baseline question sharpens, rather than weakens,
/// the technology case.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeScenario {
    /// The HDC workload deployed at the edge (batch 1).
    pub base: HdcScenario,
}

impl EdgeScenario {
    /// Wraps an HDC scenario for edge deployment.
    pub fn new(base: HdcScenario) -> Self {
        Self { base }
    }
}

impl Scenario for EdgeScenario {
    fn kind(&self) -> &'static str {
        "edge"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        fold_hdc(&mut w, &self.base);
        Some(w.finish())
    }

    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let s = &self.base;
        let mut out = Vec::new();
        for platform in [Platform::edge_gpu(), Platform::cpu()] {
            let (t, e) = hdc_on_platform(s, &platform, 1, s.hv_dim_sw);
            let name = format!("{} HDC (batch 1)", platform.name);
            let fom = validate_fom(
                &name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: 0.0,
                    accuracy: s.acc_sw,
                },
            )?;
            out.push(Candidate::new(name, fom));
        }
        let (t, e, a) = hdc_on_cam(
            s,
            hdc_encoder(s)?,
            CamCellDesign::Fefet2T,
            DataKind::MultiBit(3),
            s.hv_dim_3b,
        )?;
        let name = "3b FeFET CAM";
        out.push(Candidate::new(
            name,
            validate_fom(
                name,
                Fom {
                    latency_s: t,
                    energy_j: e,
                    area_mm2: a,
                    accuracy: s.acc_3b,
                },
            )?,
        ));
        Ok(out)
    }
}

/// Scenario for the MANN latency comparison (Fig. 4E right axis).
#[derive(Debug, Clone, PartialEq)]
pub struct MannScenario {
    /// CNN weight count.
    pub weights: usize,
    /// Embedding dimensionality.
    pub emb_dim: usize,
    /// Hash signature bits.
    pub hash_bits: usize,
    /// Stored memories (support entries).
    pub entries: usize,
    /// Accuracy of the software-cosine skyline.
    pub acc_software: f64,
    /// Accuracy of the RRAM hashing pipeline.
    pub acc_rram: f64,
    /// Process node.
    pub tech: TechNode,
}

impl Default for MannScenario {
    fn default() -> Self {
        Self {
            weights: 65_000,
            emb_dim: 64,
            hash_bits: 256,
            entries: 125,
            acc_software: 0.95,
            acc_rram: 0.94,
            tech: TechNode::n40(),
        }
    }
}

impl Scenario for MannScenario {
    fn kind(&self) -> &'static str {
        "mann"
    }

    fn store_key(&self) -> Option<Digest> {
        let mut w = DigestWriter::new(self.kind());
        w.usize(self.weights)
            .usize(self.emb_dim)
            .usize(self.hash_bits)
            .usize(self.entries)
            .f64(self.acc_software)
            .f64(self.acc_rram)
            .word(self.tech.memo_key());
        Some(w.finish())
    }

    /// Builds the MANN platform candidates: GPU software stack vs. the
    /// all-RRAM in-memory pipeline.
    fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
        let s = self;
        let gpu = Platform::gpu();
        // GPU path: CNN + exact cosine search over raw embeddings.
        let cnn = Kernel {
            flops_per_item: (s.weights as u64) * 100,
            bytes_per_item: 28 * 28 * 4,
            shared_bytes: (s.weights * 4) as u64,
        };
        let search = Kernel::search(s.entries, s.emb_dim, 4);
        let t_gpu = gpu.time_per_item(&cnn, 1) + gpu.time_per_item(&search, 1);
        let e_gpu = gpu.energy(&cnn, 1) + gpu.energy(&search, 1);

        // RRAM path: CNN on crossbars, hashing on a stochastic crossbar, AM
        // search in an RRAM TCAM.
        let xbar_cfg = CrossbarConfig {
            rows: 64,
            cols: 64,
            ..CrossbarConfig::default()
        };
        let (xmacro, mvm) = {
            let _span = xlda_obs::span!("crossbar");
            let xmacro = CrossbarMacro::try_new(&xbar_cfg, &s.tech, 8)?;
            let mvm = xmacro.mvm_cost();
            (xmacro, mvm)
        };
        // Paper: >65k weights across 36 64x64 crossbars; layers pipeline but
        // inference visits each layer once.
        let cnn_tiles = s.weights.div_ceil(64 * 64).max(1);
        let layer_depth = 4.0;
        let t_cnn = layer_depth * mvm.latency_s;
        let e_cnn = cnn_tiles as f64 * mvm.energy_j;
        let hash_tiles = (s.emb_dim.div_ceil(64) * (2 * s.hash_bits).div_ceil(64)).max(1);
        let t_hash = mvm.latency_s;
        let e_hash = hash_tiles as f64 * mvm.energy_j;
        let rep = {
            let _span = xlda_obs::span!("evacam");
            let cam = CamArray::new(CamConfig {
                words: s.entries,
                bits_per_word: s.hash_bits,
                design: CamCellDesign::Rram2T2R,
                data: DataKind::Ternary,
                match_kind: MatchKind::Best { max_distance: 4 },
                row_banks: 1,
                tech: s.tech.clone(),
            })?;
            cam.report()
        };
        let area = (cnn_tiles + hash_tiles) as f64 * xmacro.area_m2() * 1e6 + rep.area_um2 * 1e-6;

        Ok(vec![
            Candidate::new(
                "GPU MANN (batch 1)",
                validate_fom(
                    "GPU MANN (batch 1)",
                    Fom {
                        latency_s: t_gpu,
                        energy_j: e_gpu,
                        area_mm2: 0.0,
                        accuracy: s.acc_software,
                    },
                )?,
            ),
            Candidate::new(
                "RRAM in-memory MANN",
                validate_fom(
                    "RRAM in-memory MANN",
                    Fom {
                        latency_s: t_cnn + t_hash + rep.search_latency_s,
                        energy_j: e_cnn + e_hash + rep.search_energy_j,
                        area_mm2: area,
                        accuracy: s.acc_rram,
                    },
                )?,
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Grid sweeps.
// ---------------------------------------------------------------------------

/// Evaluates a grid of same-type scenarios into one [`CandidateBatch`],
/// preserving input order, with per-point error/panic containment.
///
/// Each point evaluates through [`Scenario::candidates`] on the
/// work-stealing engine ([`par_try_map`]); a point that errors,
/// panics, or is skipped by an expired [`SweepOptions::deadline`] is
/// recorded with its [`PointStatus`] and message instead of lanes, so
/// the rest of the grid still completes.
pub fn sweep_scenarios<S: Scenario>(scenarios: &[S], opts: &SweepOptions) -> CandidateBatch {
    let results = par_try_map(scenarios, |s| s.candidates(), opts);
    let mut out = CandidateBatch::new();
    for r in results {
        match r {
            Ok(cands) => {
                for c in &cands {
                    let id = out.intern(&c.name);
                    out.push_lane(
                        id,
                        c.fom.latency_s,
                        c.fom.energy_j,
                        c.fom.area_mm2,
                        c.fom.accuracy,
                    );
                }
                out.close_point();
            }
            Err(PointFailure::Error(e)) => out.fail_point(PointStatus::Error, e.to_string()),
            Err(PointFailure::Panicked(msg)) => out.fail_point(PointStatus::Panicked, msg),
            Err(e @ PointFailure::DeadlineExceeded) => {
                out.fail_point(PointStatus::DeadlineExceeded, e.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdc_candidate_set_is_complete_and_valid() {
        let cands = HdcScenario::default().candidates().unwrap();
        assert_eq!(cands.len(), 8);
        for c in &cands {
            assert!(c.fom.is_valid(), "{}: {:?}", c.name, c.fom);
            assert!(c.fom.latency_s > 0.0);
        }
    }

    #[test]
    fn fig3h_shape_batching_helps_gpu() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| {
            cands
                .iter()
                .find(|c| c.name.contains(n))
                .unwrap_or_else(|| panic!("{n} missing"))
                .fom
        };
        let b1 = find("batch 1)");
        let b1000 = find("batch 1000)");
        assert!(b1000.latency_s < b1.latency_s / 10.0);
    }

    #[test]
    fn fig3h_shape_3b_cam_beats_gpu_latency() {
        // The headline Fig. 3H result: the 3-bit FeFET CAM design point
        // beats even batched GPU inference at iso-accuracy.
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let cam3 = find("3b FeFET");
        let gpu_b1 = find("GPU HDC (batch 1)");
        let gpu_b1000 = find("GPU HDC (batch 1000)");
        assert!(cam3.fom.latency_s < gpu_b1.fom.latency_s / 100.0);
        assert!(cam3.fom.latency_s < gpu_b1000.fom.latency_s);
        assert!(cam3.fom.accuracy >= gpu_b1.fom.accuracy - 1e-9);
    }

    #[test]
    fn fig3h_shape_2b_needs_longer_hvs_and_is_slower_than_3b() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let cam3 = find("3b FeFET");
        let cam2 = find("2b FeFET");
        assert!(cam2.fom.latency_s > cam3.fom.latency_s);
        assert!(cam2.fom.energy_j > cam3.fom.energy_j);
    }

    #[test]
    fn fig3h_shape_1b_sram_fast_but_inaccurate() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let sram = find("1b SRAM");
        let cam3 = find("3b FeFET");
        assert!(sram.fom.accuracy < cam3.fom.accuracy);
        assert!(sram.fom.area_mm2 > cam3.fom.area_mm2); // 16T cells
    }

    #[test]
    fn fig3h_shape_hybrid_nominal_improvement() {
        let cands = HdcScenario::default().candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let gpu = find("GPU HDC (batch 1000)");
        let hybrid = find("TPU-GPU");
        assert!(hybrid.fom.latency_s < gpu.fom.latency_s);
        assert!(hybrid.fom.latency_s > gpu.fom.latency_s / 10.0); // nominal, not drastic
    }

    #[test]
    fn edge_deployment_answers_open_question() {
        // Sec. III open question (1): at the edge (batch 1, weaker
        // silicon) the software baselines slow down, so the CAM's
        // advantage is even larger than against the datacenter GPU.
        let s = HdcScenario::default();
        let edge = EdgeScenario::new(s.clone()).candidates().unwrap();
        assert_eq!(edge.len(), 3);
        let cam = edge.iter().find(|c| c.name.contains("CAM")).expect("cam");
        let edge_gpu = edge
            .iter()
            .find(|c| c.name.contains("edge-GPU"))
            .expect("edge gpu");
        let datacenter = s.candidates().unwrap();
        let dc_gpu_b1000 = datacenter
            .iter()
            .find(|c| c.name.contains("batch 1000)") && c.name.contains("GPU HDC"))
            .expect("dc gpu");
        let edge_advantage = edge_gpu.fom.latency_s / cam.fom.latency_s;
        let dc_advantage = dc_gpu_b1000.fom.latency_s / cam.fom.latency_s;
        assert!(
            edge_advantage > dc_advantage,
            "edge {edge_advantage:.0}x vs dc {dc_advantage:.0}x"
        );
        assert!(edge_advantage > 100.0);
    }

    #[test]
    fn nvm_backed_tpu_answers_the_open_question() {
        // Sec. III open question (2): an NVM-backed TPU is a *better
        // baseline* (beats GPU batch-1 latency and batched GPU energy)
        // but not a better *design point* than the FeFET CAM.
        let s = HdcScenario::default();
        let cands = s.candidates().unwrap();
        let find = |n: &str| cands.iter().find(|c| c.name.contains(n)).expect("exists");
        let nvm_tpu = find("TPU + on-chip NVM");
        let gpu_b1 = find("GPU HDC (batch 1)");
        let gpu_b1000 = find("GPU HDC (batch 1000)");
        let cam = find("3b FeFET CAM");
        assert!(nvm_tpu.fom.latency_s < gpu_b1.fom.latency_s / 5.0);
        assert!(nvm_tpu.fom.energy_j < gpu_b1000.fom.energy_j);
        assert!(cam.fom.latency_s < nvm_tpu.fom.latency_s / 10.0);
        assert!(cam.fom.energy_j < nvm_tpu.fom.energy_j);
    }

    /// A scenario whose evaluator panics on selected points, to exercise
    /// per-point containment in [`sweep_scenarios`].
    struct PanickyScenario {
        id: usize,
        panic_on: bool,
    }

    impl Scenario for PanickyScenario {
        fn kind(&self) -> &'static str {
            "panicky"
        }

        fn candidates(&self) -> Result<Vec<Candidate>, XldaError> {
            assert!(!self.panic_on, "poisoned point {}", self.id);
            Ok(vec![Candidate::new(
                "ok",
                Fom {
                    latency_s: 1.0 + self.id as f64,
                    energy_j: 1.0,
                    area_mm2: 0.0,
                    accuracy: 0.5,
                },
            )])
        }
    }

    #[test]
    fn sweep_scenarios_contains_poisoned_points() {
        let grid: Vec<PanickyScenario> = (0..9)
            .map(|id| PanickyScenario {
                id,
                panic_on: id == 4,
            })
            .collect();
        let out = sweep_scenarios(&grid, &SweepOptions::builder().threads(2).chunk(3).build());
        assert_eq!(out.points(), 9);
        for p in 0..9 {
            if p == 4 {
                assert_eq!(out.point_status(p), PointStatus::Panicked);
                assert!(out.point_message(p).unwrap().contains("poisoned point 4"));
            } else {
                assert_eq!(out.point_status(p), PointStatus::Ok, "point {p}");
                assert_eq!(out.latency_s()[out.lane_range(p).start], 1.0 + p as f64);
            }
        }
    }

    #[test]
    fn expired_deadline_skips_every_point() {
        let grid: Vec<HdcScenario> = (0..4).map(|_| HdcScenario::default()).collect();
        let out = sweep_scenarios(
            &grid,
            &SweepOptions::builder()
                .threads(1)
                .deadline(std::time::Duration::ZERO)
                .build(),
        );
        assert_eq!(out.points(), 4);
        for p in 0..4 {
            assert_eq!(out.point_status(p), PointStatus::DeadlineExceeded);
            assert_eq!(
                out.point_message(p),
                Some("sweep deadline expired before evaluation")
            );
        }
    }

    #[test]
    fn scenario_kinds_are_stable() {
        assert_eq!(HdcScenario::default().kind(), "hdc");
        assert_eq!(MannScenario::default().kind(), "mann");
        assert_eq!(EdgeScenario::default().kind(), "edge");
        assert_eq!(TpuNvmScenario::default().kind(), "tpu_nvm");
    }

    #[test]
    fn scenarios_dispatch_through_trait_objects() {
        // The serving layer batches heterogeneous requests as one slice
        // of trait objects; every built-in scenario must evaluate
        // through that indirection.
        let batch: Vec<Box<dyn Scenario>> = vec![
            Box::new(HdcScenario::default()),
            Box::new(MannScenario::default()),
            Box::new(EdgeScenario::default()),
            Box::new(TpuNvmScenario::default()),
        ];
        for s in &batch {
            let cands = s
                .candidates()
                .unwrap_or_else(|e| panic!("{}: {e}", s.kind()));
            assert!(!cands.is_empty(), "{}", s.kind());
            for c in &cands {
                assert!(c.fom.is_valid(), "{}: {:?}", c.name, c.fom);
            }
        }
    }

    #[test]
    fn nan_accuracy_is_a_typed_error_not_a_panic() {
        let s = HdcScenario {
            acc_sw: f64::NAN,
            ..HdcScenario::default()
        };
        match s.candidates() {
            Err(XldaError::InvalidFom { name, fom }) => {
                assert!(name.contains("GPU HDC"), "{name}");
                assert!(fom.accuracy.is_nan());
            }
            other => panic!("expected InvalidFom, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_accuracy_is_rejected() {
        let s = MannScenario {
            acc_rram: 1.5,
            ..MannScenario::default()
        };
        assert!(matches!(s.candidates(), Err(XldaError::InvalidFom { .. })));
    }

    #[test]
    fn mann_rram_pipeline_beats_gpu_latency() {
        let cands = MannScenario::default().candidates().unwrap();
        assert_eq!(cands.len(), 2);
        let gpu = &cands[0].fom;
        let rram = &cands[1].fom;
        assert!(rram.latency_s < gpu.latency_s / 10.0);
        assert!(rram.energy_j < gpu.energy_j);
        assert!(rram.accuracy >= gpu.accuracy - 0.02);
    }
}
