//! Hyperdimensional computing case study (paper Sec. III, Fig. 3).
//!
//! HDC encodes inputs into high-dimensional hypervectors (HVs), learns a
//! class HV per label by bundling, and classifies queries by associative
//! search over the learned HVs. This crate implements the full software
//! model plus its FeFET-CAM hardware mapping:
//!
//! - [`encode`] — random-projection and ID-level encoders, plus HV
//!   element quantization (the Fig. 3C precision axis);
//! - [`model`] — training (bundle + retraining passes) and software
//!   classification under cosine/Hamming/squared-Euclidean distances;
//! - [`cam`] — the multi-bit FeFET CAM associative memory: words
//!   partitioned across subarrays with per-subarray winner voting
//!   (the Fig. 3F aggregation-error mechanism) and V_th programming
//!   variation injection (Fig. 3G);
//! - [`profile`] — operation counts for the encode and search stages,
//!   feeding the runtime-breakdown and platform-comparison experiments
//!   (Figs. 3E, 3H);
//! - [`codesign`] — iso-accuracy hypervector sizing, automating the
//!   Fig. 3H software/hardware co-design step.
//!
//! # Examples
//!
//! ```
//! use xlda_datagen::ClassificationSpec;
//! use xlda_hdc::encode::{Encoder, EncoderConfig};
//! use xlda_hdc::model::HdcModel;
//!
//! let data = ClassificationSpec::emg_like().generate();
//! let encoder = Encoder::new(&EncoderConfig {
//!     dim_in: data.dim(),
//!     hv_dim: 1024,
//!     ..EncoderConfig::default()
//! });
//! let model = HdcModel::train(&encoder, &data, 3, 2);
//! assert!(model.accuracy(&data) > 0.7);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod cam;
pub mod codesign;
pub mod encode;
pub mod model;
pub mod profile;
