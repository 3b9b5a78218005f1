//! Structured observability for the xlda stack.
//!
//! Three cooperating pieces, all zero-dependency and allocation-light:
//!
//! * [`span`] — hierarchical spans with monotonic timing. A global
//!   [`span::set_enabled`] switch (mirroring `xlda_num::memo`) gates the whole
//!   subsystem: the disabled path is a single relaxed atomic load, so
//!   instrumented hot paths cost ~a nanosecond when profiling is off.
//!   Per-span aggregates (total time, *self* time excluding children, call
//!   count) accumulate in leaked `&'static` atomics and can be snapshotted or
//!   diffed at any point.
//! * [`metrics`] — lock-free [`metrics::Counter`]s and log-bucketed
//!   [`metrics::Histogram`]s (8 sub-buckets per power of two, so reported
//!   quantiles are exact within a 12.5% bucket width). Recording is a couple
//!   of atomic adds and therefore mergeable across threads by construction:
//!   the same multiset of samples yields bit-identical snapshots regardless of
//!   which thread recorded which sample. A [`metrics::Registry`] groups named
//!   instruments per subsystem (e.g. one per server instance).
//! * [`trace`] — an opt-in event recorder that captures every finished span
//!   as a `(name, thread, start_ns, dur_ns, depth)` tuple in per-thread
//!   buffers, for NDJSON dumps.
//! * [`flight`] — a per-request flight recorder: stage-timestamped
//!   [`flight::RequestTrace`] handles whose completed records land in a
//!   tail-sampling [`flight::FlightRecorder`] ring (errors, deadline misses,
//!   and EWMA-slow requests are retained; the boring majority is dropped
//!   and counted).
//!
//! [`export`] renders all of the above as NDJSON lines or Prometheus text,
//! and owns the shortest-round-trip f64 formatter shared with
//! `xlda-serve`'s JSON layer.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod clock;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod span;
pub mod trace;

pub use flight::{CompletedTrace, FlightRecorder, FlightStats, RequestTrace, Stage};
pub use metrics::{Counter, Exemplars, Histogram, HistogramSnapshot, Registry};
pub use span::{aggregate_snapshot, enabled, reset_aggregates, set_enabled, SpanAgg, SpanGuard};
pub use trace::SpanEvent;

/// Serializes the tests that toggle the process-global span switch. The
/// span and trace tests share one lock: a sibling's `set_enabled(false)`
/// in the middle of a test would drop that test's spans.
#[cfg(test)]
pub(crate) static SPAN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
