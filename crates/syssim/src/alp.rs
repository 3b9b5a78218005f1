//! Accelerator-level parallelism (ALP) study.
//!
//! The paper cites Hill & Reddi's "accelerator-level parallelism" as the
//! nascent modeling need for integrated heterogeneous architectures
//! (Sec. I: "modeling infrastructure that facilitates the evaluation of
//! integrated, heterogeneous architectures is nascent \[9\]"). This module
//! provides that evaluation for our system model: multiple workload
//! *streams* share one core and one accelerator, and the event-driven
//! engine overlaps stream A's CPU kernels with stream B's accelerator
//! kernels — quantifying how much of the heterogeneous silicon a
//! multi-programmed deployment actually keeps busy.

use crate::event::{EventQueue, SimTime};
use crate::system::{System, SystemConfig};
use crate::workload::Workload;

/// Which shared resource a kernel occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    Cpu,
    Accel,
}

/// Outcome of a multi-stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct AlpReport {
    /// End-to-end time running the streams back-to-back (s).
    pub serial_time_s: f64,
    /// End-to-end makespan with resource-level overlap (s).
    pub concurrent_time_s: f64,
    /// Throughput gain from accelerator-level parallelism.
    pub alp_speedup: f64,
    /// Fraction of the makespan the CPU is busy.
    pub cpu_utilization: f64,
    /// Fraction of the makespan the accelerator is busy.
    pub accel_utilization: f64,
    /// Events processed by the scheduler.
    pub events: usize,
}

/// Per-stream cursor during simulation.
struct StreamState {
    /// Pre-computed (resource, duration) per kernel.
    kernels: Vec<(Resource, f64)>,
    next: usize,
}

/// Runs `streams` concurrently on a system, overlapping CPU and
/// accelerator occupancy across streams (within a stream, kernels remain
/// strictly ordered).
///
/// # Panics
///
/// Panics if `streams` is empty.
pub fn run_streams(config: &SystemConfig, streams: &[Workload]) -> AlpReport {
    assert!(!streams.is_empty(), "need at least one stream");
    let system = System::new(config);

    // Pre-time every kernel with the single-stream model; the scheduler
    // then arbitrates resource occupancy.
    let mut states: Vec<StreamState> = streams
        .iter()
        .map(|w| {
            let rep = system.run(w);
            StreamState {
                kernels: rep
                    .kernels
                    .iter()
                    .map(|k| {
                        (
                            if k.on_accel {
                                Resource::Accel
                            } else {
                                Resource::Cpu
                            },
                            k.time_s,
                        )
                    })
                    .collect(),
                next: 0,
            }
        })
        .collect();
    let serial_time_s: f64 = states
        .iter()
        .flat_map(|s| s.kernels.iter().map(|(_, t)| *t))
        .sum();

    // Event-driven arbitration: a stream posts its next kernel when the
    // previous one completes and the resource frees up.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        KernelDone { stream: usize },
    }
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut resource_free_at = [0.0f64; 2]; // [Cpu, Accel]
    let mut stream_free_at = vec![0.0f64; streams.len()];
    let mut busy = [0.0f64; 2];
    let mut events = 0usize;

    let idx = |r: Resource| match r {
        Resource::Cpu => 0,
        Resource::Accel => 1,
    };

    // Seed: try to launch the first kernel of every stream.
    fn launch(
        s: usize,
        states: &mut [StreamState],
        stream_free_at: &mut [f64],
        resource_free_at: &mut [f64; 2],
        busy: &mut [f64; 2],
        q: &mut EventQueue<Ev>,
        idx: &dyn Fn(Resource) -> usize,
    ) {
        let st = &mut states[s];
        if st.next >= st.kernels.len() {
            return;
        }
        let (res, dur) = st.kernels[st.next];
        let start = stream_free_at[s].max(resource_free_at[idx(res)]);
        let done = start + dur;
        resource_free_at[idx(res)] = done;
        stream_free_at[s] = done;
        busy[idx(res)] += dur;
        st.next += 1;
        q.schedule_at(SimTime::from_secs(done), Ev::KernelDone { stream: s });
    }

    for s in 0..streams.len() {
        launch(
            s,
            &mut states,
            &mut stream_free_at,
            &mut resource_free_at,
            &mut busy,
            &mut q,
            &idx,
        );
    }
    let mut makespan = 0.0f64;
    while let Some((t, Ev::KernelDone { stream, .. })) = q.pop() {
        events += 1;
        makespan = makespan.max(t.as_secs());
        launch(
            stream,
            &mut states,
            &mut stream_free_at,
            &mut resource_free_at,
            &mut busy,
            &mut q,
            &idx,
        );
    }

    AlpReport {
        serial_time_s,
        concurrent_time_s: makespan,
        alp_speedup: serial_time_s / makespan.max(1e-15),
        cpu_utilization: busy[0] / makespan.max(1e-15),
        accel_utilization: busy[1] / makespan.max(1e-15),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{cnn_trace, lstm_trace};

    #[test]
    fn single_stream_has_no_alp_gain() {
        let r = run_streams(&SystemConfig::with_crossbar(), &[cnn_trace(4)]);
        assert!((r.alp_speedup - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.serial_time_s - r.concurrent_time_s).abs() < 1e-12);
    }

    #[test]
    fn mixed_streams_overlap() {
        // A CPU-bound stream and an accelerator-bound stream of similar
        // durations: ALP should approach 2x by running them on disjoint
        // resources.
        use crate::workload::{KernelOp, Workload};
        let cpu_stream = Workload {
            name: "scalar-analytics".into(),
            kernels: (0..8)
                .map(|i| KernelOp {
                    name: format!("scalar{i}"),
                    compute_ops: 40_000_000,
                    weight_bytes: 0,
                    activation_bytes: 1_000_000,
                    offloadable: false,
                })
                .collect(),
        };
        let accel_stream = cnn_trace(6); // overwhelmingly offloadable
        let r = run_streams(&SystemConfig::with_crossbar(), &[accel_stream, cpu_stream]);
        assert!(r.alp_speedup > 1.3, "speedup {:.3}", r.alp_speedup);
        assert!(r.concurrent_time_s < r.serial_time_s);
        assert!(r.cpu_utilization > 0.0 && r.cpu_utilization <= 1.0 + 1e-9);
        assert!(r.accel_utilization > 0.0 && r.accel_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn more_streams_raise_utilization() {
        let two = run_streams(
            &SystemConfig::with_crossbar(),
            &[cnn_trace(4), lstm_trace(8, 512)],
        );
        let four = run_streams(
            &SystemConfig::with_crossbar(),
            &[
                cnn_trace(4),
                lstm_trace(8, 512),
                cnn_trace(4),
                lstm_trace(8, 512),
            ],
        );
        let u2 = two.cpu_utilization + two.accel_utilization;
        let u4 = four.cpu_utilization + four.accel_utilization;
        assert!(u4 >= u2 * 0.99, "u2 {u2} u4 {u4}");
    }

    #[test]
    fn makespan_bounded_by_resource_totals() {
        let streams = [cnn_trace(4), lstm_trace(8, 256)];
        let r = run_streams(&SystemConfig::with_crossbar(), &streams);
        // Makespan is at least the busiest single resource, at most the
        // fully serial time.
        let busiest = (r.cpu_utilization.max(r.accel_utilization)) * r.concurrent_time_s;
        assert!(r.concurrent_time_s >= busiest - 1e-12);
        assert!(r.concurrent_time_s <= r.serial_time_s + 1e-12);
    }

    #[test]
    fn cpu_only_system_serializes_everything() {
        let streams = [cnn_trace(3), cnn_trace(3)];
        let r = run_streams(&SystemConfig::cpu_only(), &streams);
        // One shared resource: no overlap possible.
        assert!((r.alp_speedup - 1.0).abs() < 1e-9, "{r:?}");
    }
}
