//! Eva-CAM-style circuit/architecture model for content addressable
//! memories (paper Sec. VI, Fig. 1F, Fig. 5).
//!
//! Given a CAM configuration — cell design, data representation, match
//! type, array geometry, process node — the model produces array-level
//! figures of merit (area, search latency, search energy, write cost) and
//! the *mismatch limit*: how many cells one matchline can carry before
//! best/threshold matches become unsensable. Like the tool it reproduces,
//! it supports:
//!
//! - exact (EX), best (BE), and threshold (TH) match types;
//! - binary/ternary (TCAM), multi-bit (MCAM), and analog (ACAM) data;
//! - two-terminal (RRAM/PCM/MRAM) and three-terminal (FeFET/flash/SRAM)
//!   devices.
//!
//! [`validate`] reproduces the Fig. 5 validation table against published
//! chips; [`variation`] implements the paper's proposed enhancement —
//! device-variation-aware array-size prediction; [`acam`] is a
//! functional analog-CAM model with the decision-tree mapping.
//!
//! # Examples
//!
//! ```
//! use xlda_evacam::{CamArray, CamConfig, CamCellDesign, DataKind, MatchKind};
//!
//! let config = CamConfig {
//!     words: 1024,
//!     bits_per_word: 128,
//!     design: CamCellDesign::Fefet2T,
//!     data: DataKind::MultiBit(3),
//!     match_kind: MatchKind::Best { max_distance: 8 },
//!     ..CamConfig::default()
//! };
//! let cam = CamArray::new(config)?;
//! let report = cam.report();
//! assert!(report.search_latency_s > 0.0);
//! # Ok::<(), xlda_evacam::CamError>(())
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod acam;
mod array;
mod design;
pub mod validate;
pub mod variation;

pub use array::{CamArray, CamReport};
pub use design::{CamCellDesign, CamConfig, CamError, DataKind, MatchKind};
