//! Opt-in span event capture for NDJSON traces.
//!
//! When tracing is started (on top of span collection being enabled), every
//! finished span appends a [`SpanEvent`] to a per-thread buffer; buffers are
//! registered in a process-global list so [`stop`] can drain them all. Each
//! buffer is capped so a runaway trace degrades to dropped events (counted)
//! rather than unbounded memory.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock;

/// One finished span occurrence, timestamped relative to the process trace
/// epoch (the first instant the trace subsystem was touched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    /// Small sequential id of the recording thread.
    pub thread: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth at the time the span was entered (0 = root).
    pub depth: u32,
}

/// Per-thread cap on buffered events; beyond it events are dropped and
/// counted in [`dropped`].
const PER_THREAD_CAP: usize = 1 << 20;

struct ThreadBuf {
    id: u32,
    events: Mutex<Vec<SpanEvent>>,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH_TICKS: OnceLock<u64> = OnceLock::new();

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        buffers()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&buf));
        buf
    };
}

fn epoch_ticks() -> u64 {
    *EPOCH_TICKS.get_or_init(clock::now)
}

/// Whether trace capture is currently on.
#[inline]
pub fn active() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Begin capturing span events: clears all buffers and the drop counter.
pub fn start() {
    clock::warmup();
    let _ = epoch_ticks();
    {
        let bufs = buffers().lock().unwrap_or_else(|e| e.into_inner());
        for b in bufs.iter() {
            b.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
    DROPPED.store(0, Ordering::Relaxed);
    TRACING.store(true, Ordering::SeqCst);
}

/// Stop capturing and drain every thread's events, sorted by
/// `(thread, start_ns, depth)`. Buffers owned by exited threads are pruned.
pub fn stop() -> Vec<SpanEvent> {
    TRACING.store(false, Ordering::SeqCst);
    let mut bufs = buffers().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for b in bufs.iter() {
        out.append(&mut b.events.lock().unwrap_or_else(|e| e.into_inner()));
    }
    // A strong count of 1 means the owning thread's TLS is gone.
    bufs.retain(|b| Arc::strong_count(b) > 1);
    out.sort_by_key(|e| (e.thread, e.start_ns, e.depth));
    out
}

/// Events dropped since the last [`start`] because a thread buffer hit its cap.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Called by the span layer for every finished span while tracing is active.
pub(crate) fn record(name: &'static str, start_ticks: u64, dur_ns: u64, depth: u32) {
    let start_ns = clock::to_nanos(start_ticks.saturating_sub(epoch_ticks()));
    LOCAL.with(|buf| {
        let mut events = buf.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() >= PER_THREAD_CAP {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(SpanEvent {
            name,
            thread: buf.id,
            start_ns,
            dur_ns,
            depth,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::set_enabled;

    #[test]
    fn start_stop_captures_events_across_threads() {
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start();
        set_enabled(true);
        {
            let _s = crate::span!("trace.main");
        }
        let handle = std::thread::spawn(|| {
            let _s = crate::span!("trace.worker");
        });
        handle.join().unwrap();
        set_enabled(false);
        let events = stop();
        assert!(events.iter().any(|e| e.name == "trace.main"));
        assert!(events.iter().any(|e| e.name == "trace.worker"));
        let main_thread = events
            .iter()
            .find(|e| e.name == "trace.main")
            .unwrap()
            .thread;
        let worker = events
            .iter()
            .find(|e| e.name == "trace.worker")
            .unwrap()
            .thread;
        assert_ne!(main_thread, worker);
        // Sorted by (thread, start_ns, depth).
        let keys: Vec<_> = events
            .iter()
            .map(|e| (e.thread, e.start_ns, e.depth))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn inactive_trace_records_nothing() {
        let _g = crate::SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Not started: spans aggregate but do not produce events.
        assert!(!active());
        set_enabled(true);
        {
            let _s = crate::span!("trace.untraced");
        }
        set_enabled(false);
        assert!(stop().iter().all(|e| e.name != "trace.untraced"));
    }
}
