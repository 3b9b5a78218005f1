//! Event-driven system-level simulator (paper Sec. V).
//!
//! Plays the role gem5-X plays in the paper: estimate the *end-to-end*
//! benefit of a technology-enabled accelerator inside a full system —
//! core, cache hierarchy, DRAM, and a tightly coupled analog-crossbar
//! accelerator — before committing to detailed hardware design. The
//! ALPINE-style study ("analog crossbars can speed up benchmark
//! convolutional networks by up to 20×") is reproduced by
//! [`study::offload_speedup`].
//!
//! The simulator is event-driven at the granularity the analysis needs:
//! CPU kernels are single timed events against a core+cache+DRAM model,
//! while accelerator kernels are decomposed into tile DMA and tile
//! compute events that overlap under double buffering.
//!
//! # Examples
//!
//! ```
//! use xlda_syssim::system::{System, SystemConfig};
//! use xlda_syssim::workload::cnn_trace;
//!
//! let workload = cnn_trace(8);
//! let plain = System::new(&SystemConfig::cpu_only()).run(&workload);
//! let accel = System::new(&SystemConfig::with_crossbar()).run(&workload);
//! assert!(accel.total_time_s < plain.total_time_s);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod alp;
pub mod event;
pub mod study;
pub mod system;
pub mod workload;
