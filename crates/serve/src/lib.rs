//! `xlda-serve` — a batched evaluation service over the unified
//! [`Scenario`](xlda_core::evaluate::Scenario) API.
//!
//! The ROADMAP's north star is a system that serves sustained
//! evaluation traffic rather than one-shot library calls. This crate
//! puts a long-lived daemon in front of the sweep engine: requests
//! arrive as newline-delimited JSON (TCP, or stdio for tests), pass a
//! bounded admission queue with explicit backpressure, coalesce in a
//! micro-batch window, and evaluate as one sweep submission on a
//! shared worker pool with process-wide warm memo caches.
//!
//! Layout:
//!
//! - [`json`] — hand-rolled JSON with bit-exact `f64` round-tripping;
//! - [`protocol`] — request parsing and response formatting;
//! - [`server`] — queue → adaptive batcher → pool → drain pipeline and
//!   the transports;
//! - [`access_log`] — the wide-event NDJSON access log: one line per
//!   request through a bounded writer that drops-and-counts instead of
//!   ever blocking the event loop;
//! - [`poll`] / [`conn`] / `event_loop` (unix) — the readiness-driven
//!   TCP transport: hand-rolled epoll/poll, zero-copy framing, direct
//!   worker-to-socket writes.
//!
//! Per-request observability (the `xlda_obs::flight` recorder, the
//! `debug` request kind, latency exemplars) is described in DESIGN.md
//! §15. See DESIGN.md §9 (pipeline, wire schema) and §11 (event loop),
//! and `xlda-bench --loadgen` for the serving benchmark that produces
//! `BENCH_serve.json`.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod access_log;
pub mod json;
pub mod protocol;
pub mod server;

#[cfg(unix)]
pub mod conn;
#[cfg(unix)]
pub(crate) mod event_loop;
#[cfg(unix)]
pub mod poll;

pub use access_log::AccessLog;
pub use server::{ResponseSink, Server, ServerConfig, SharedWriter};
