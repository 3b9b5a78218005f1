//! Numerical substrate for the `xlda` cross-layer modeling stack.
//!
//! Every other crate in the workspace builds on this one. It provides:
//!
//! - [`rng::Rng64`] — a small, fast, fully deterministic PRNG
//!   (xoshiro256\*\*) with uniform, Gaussian, and Bernoulli sampling, so
//!   that every Monte-Carlo experiment in the stack is reproducible from a
//!   single `u64` seed;
//! - [`stats`] — summary statistics, Pearson correlation, and histograms
//!   used when analyzing accuracy/variation sweeps;
//! - [`matrix::Matrix`] — a dense row-major `f64` matrix with the small set
//!   of operations the crossbar and neural-network models need;
//! - [`solve`] — iterative and direct linear solvers used by the crossbar
//!   IR-drop model (Gauss–Seidel on resistive grids, Thomas algorithm for
//!   tridiagonal systems);
//! - [`memo`] — the sharded, instrumented memoization caches the layer
//!   crates use to share sub-evaluations across design-space sweep points;
//! - [`trial`] — structure-of-arrays Monte-Carlo trial batches with
//!   per-trial `(seed, index)`-derived streams that draw normals by
//!   ziggurat, distribution summaries, and determinism checksums for the
//!   variation-aware scenarios;
//! - [`batch`] — structure-of-arrays candidate batches, the result shape
//!   of `xlda_core::evaluate::sweep_scenarios`.
//!
//! # Examples
//!
//! ```
//! use xlda_num::rng::Rng64;
//! use xlda_num::stats::mean;
//!
//! let mut rng = Rng64::new(42);
//! let samples: Vec<f64> = (0..1000).map(|_| rng.normal(0.0, 1.0)).collect();
//! assert!(mean(&samples).abs() < 0.2);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod batch;
pub mod matrix;
pub mod memo;
pub mod rng;
pub mod solve;
pub mod stats;
pub mod trial;

pub use matrix::Matrix;
pub use rng::Rng64;
