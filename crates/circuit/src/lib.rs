//! Circuit-level substrate for the `xlda` modeling stack.
//!
//! Array-level analytical models (Eva-CAM-like CAM models, NVSim-like RAM
//! models, crossbar macro models) all decompose into the same circuit
//! primitives, which this crate provides:
//!
//! - [`tech::TechNode`] — per-process-node electrical parameters (supply,
//!   on-currents, capacitances, wire RC), with presets from 130 nm to 22 nm;
//! - [`gate`] — logical-effort gate delay and energy, buffer chains;
//! - [`wire`] — Elmore RC delay for plain and repeated wires;
//! - [`decoder`] — row/address decoder trees;
//! - [`senseamp`] — voltage/current sense amplifiers with input offset
//!   (the origin of the sense-margin limits in Sec. VI of the paper);
//! - [`matchline`] — the CAM matchline discharge model: discharge time and
//!   energy as a function of the number of mismatching cells, and the
//!   sense margin between adjacent mismatch counts;
//! - [`adc`] — SAR ADC / DAC figure-of-merit models for crossbar
//!   peripheries.
//!
//! # Examples
//!
//! ```
//! use xlda_circuit::tech::TechNode;
//! use xlda_circuit::matchline::{Matchline, MatchlineConfig};
//!
//! let tech = TechNode::n40();
//! let ml = Matchline::new(MatchlineConfig::default(), &tech, 64);
//! // More mismatching cells discharge the line faster.
//! assert!(ml.discharge_time(8) < ml.discharge_time(1));
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod adc;
pub mod decoder;
pub mod error;
pub mod gate;
pub mod matchline;
pub mod senseamp;
pub mod tech;
pub mod wire;

pub use error::CircuitError;
pub use tech::TechNode;
