//! # xlda — cross-layer design assessment of technology-enabled architectures
//!
//! A from-scratch Rust reproduction of *"Cross Layer Design for the
//! Predictive Assessment of Technology-Enabled Architectures"*
//! (Niemier et al., DATE 2023): the complete modeling stack needed to ask
//! — quantitatively, in seconds — whether a new memory device, wired into
//! a new in-memory-compute architecture, is worth pursuing for a given
//! application workload.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | Module | Layer | Contents |
//! |--------|-------|----------|
//! | [`num`] | math | deterministic PRNG, statistics, matrices, solvers |
//! | [`circuit`] | circuits | tech nodes, gates, wires, sense amps, matchlines, ADCs |
//! | [`device`] | devices | FeFET, RRAM, PCM, MRAM, SRAM, flash models |
//! | [`evacam`] | arrays | Eva-CAM-style CAM area/latency/energy model |
//! | [`nvram`] | arrays | NVSim/DESTINY-style RAM model |
//! | [`crossbar`] | arrays | analog MVM crossbar simulator + macro model |
//! | [`datagen`] | data | synthetic HDC and few-shot datasets |
//! | [`hdc`] | algorithms | hyperdimensional computing + FeFET CAM mapping |
//! | [`mann`] | algorithms | few-shot MANN + RRAM crossbar mapping |
//! | [`baseline`] | systems | CPU/GPU/TPU roofline baselines |
//! | [`syssim`] | systems | event-driven system simulator with crossbar offload |
//! | [`core`] | framework | FOMs, Pareto, triage, sensitivity, profiling |
//!
//! # Quickstart
//!
//! ```
//! use xlda::core::evaluate::{HdcScenario, Scenario};
//! use xlda::core::triage::{rank, Objective};
//!
//! // Evaluate every platform mapping of an HDC workload and triage.
//! let candidates = HdcScenario::default().candidates().expect("default models");
//! let ranking = rank(&candidates, &Objective::latency_first(Some(0.9)));
//! println!("best design point: {}", ranking[0].name);
//! ```
//!
//! See `examples/` for end-to-end walkthroughs of both paper case
//! studies and `crates/bench/src/bin/` for the figure-by-figure
//! reproduction harness.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use xlda_baseline as baseline;
pub use xlda_circuit as circuit;
pub use xlda_core as core;
pub use xlda_crossbar as crossbar;
pub use xlda_datagen as datagen;
pub use xlda_device as device;
pub use xlda_evacam as evacam;
pub use xlda_hdc as hdc;
pub use xlda_mann as mann;
pub use xlda_num as num;
pub use xlda_nvram as nvram;
pub use xlda_syssim as syssim;
