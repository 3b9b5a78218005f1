//! Cross-layer design-space exploration framework — the paper's primary
//! contribution (Secs. I, VII, Figs. 1 and 6).
//!
//! Everything below this crate models one *layer* (devices, circuits,
//! arrays, algorithms, systems). This crate ties the layers together so a
//! designer can ask the paper's question: *for a given application
//! workload, which technology-enabled architecture is worth a deep
//! dive?* It provides:
//!
//! - [`fom::Fom`] — the common figure-of-merit bundle (latency, energy,
//!   area, accuracy) with dominance and derived metrics;
//! - [`pareto`] — Pareto-front extraction over candidate evaluations;
//! - [`evaluate`] — the unified [`Scenario`](evaluate::Scenario) trait
//!   and its cross-layer evaluators that assemble end-to-end FOMs for
//!   concrete mappings (HDC on GPU / TPU-GPU hybrid / multi-bit
//!   FeFET CAM / SRAM CAM; MLP on GPU; MANN variants; edge and
//!   NVM-backed-TPU studies) by composing the substrate crates — these
//!   generate the Fig. 3H-style comparisons;
//! - [`triage`] — weighted ranking with iso-accuracy floors, the "rapidly
//!   and accurately triage technology-enabled architectures" step;
//! - [`sensitivity`] — bottom-up linkage (Fig. 6): perturb device-level
//!   metrics and report the application-level swing, identifying which
//!   materials/device lever matters most;
//! - [`profile`] — top-down linkage: workload composition → architecture
//!   recommendation and device-metric priorities (Sec. VII);
//! - [`sweep`] — parallel fan-out and memoization for large sweeps;
//! - [`store`] — persistent content-addressed result store plus
//!   successive-halving incremental DSE on top of it;
//! - [`mc`] — variation-aware Monte-Carlo scenario kinds (CAM yield,
//!   MANN accuracy under relaxation/read noise, NVM lifetime/V_th)
//!   returning distribution summaries instead of single FOMs;
//! - [`cim`] — Eva-CiM-style IMC-favorability analysis of programs.
//!
//! # Examples
//!
//! ```
//! use xlda_core::evaluate::{HdcScenario, Scenario};
//! use xlda_core::triage::{rank, Objective};
//!
//! let scenario = HdcScenario::default();
//! let candidates = scenario.candidates().expect("default scenario models");
//! let ranking = rank(&candidates, &Objective::latency_first(Some(0.9)));
//! assert!(!ranking.is_empty());
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod cim;
pub mod error;
pub mod evaluate;
pub mod fom;
pub mod mc;
pub mod order;
pub mod pareto;
pub mod profile;
pub mod report;
pub mod sensitivity;
pub mod store;
pub mod sweep;
pub mod triage;

pub use error::XldaError;
pub use fom::Fom;
