//! Memory-augmented neural network few-shot learning case study
//! (paper Sec. IV, Fig. 4).
//!
//! A MANN pairs a learned feature extractor (a CNN) with an explicit
//! associative memory: new classes are learned by *writing* support
//! examples into the memory and classified by nearest-neighbor search.
//! The paper's study maps every kernel — CNN, hashing, associative
//! search — onto RRAM crossbars. This crate implements:
//!
//! - [`nn`] — a from-scratch CNN (conv/pool/fc, softmax SGD training)
//!   used as the MANN controller;
//! - [`controller`] — background-split training and L2-normalized
//!   feature extraction;
//! - [`lsh`] — software locality-sensitive hashing plus the RRAM
//!   stochastic-crossbar LSH/TLSH, and the cosine-vs-Hamming correlation
//!   analysis of Fig. 4D;
//! - [`am`] — Hamming associative memories: exact software, and an RRAM
//!   TCAM model with variation-aware conductance mapping (bit-flip
//!   channel derived from the device model);
//! - [`episode`] — end-to-end N-way K-shot evaluation across the
//!   software/hardware variants, regenerating the accuracy-vs-hash-length
//!   trade of Fig. 4E;
//! - [`xbar_cnn`] — the CNN controller itself executed on tiled 64×64
//!   differential crossbars (the paper's ">65,000 weights via 130,000
//!   RRAM devices in 36 arrays" mapping).

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod am;
pub mod controller;
pub mod episode;
pub mod lsh;
pub mod nn;
pub mod xbar_cnn;
