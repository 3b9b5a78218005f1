//! Seeded synthetic datasets standing in for the paper's benchmarks.
//!
//! The paper's case studies evaluate on ISOLET, UCI-HAR, language
//! identification (HDC, Sec. III) and Omniglot / miniImageNet (few-shot
//! MANN, Sec. IV). Those datasets are external artifacts; what the
//! accuracy *trends* in Figs. 3 and 4 depend on is class-cluster geometry
//! — intra-class spread versus inter-class separation — which these
//! generators control explicitly (see DESIGN.md §2 for the substitution
//! argument).
//!
//! - [`classification`] — feature-vector datasets with tunable
//!   separability, with presets shaped like the paper's HDC benchmarks;
//! - [`fewshot`] — a stroke-based image generator with episode sampling
//!   for N-way K-shot evaluation.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod classification;
pub mod fewshot;

pub use classification::{ClassificationSpec, Dataset};
pub use fewshot::{Episode, FewShotSpec, ImageSet};
