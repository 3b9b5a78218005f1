//! Per-connection state for the event loop: read-side newline framing
//! and a write sink shared with the evaluation workers.
//!
//! **Read side.** [`Conn`] owns the nonblocking stream and a growable
//! read buffer. [`Conn::fill`] appends whatever the socket has;
//! [`Conn::next_line`] yields complete frames as `&str` slices borrowed
//! straight from the buffer — framing allocates nothing per request,
//! the JSON parser is handed a view into the connection's bytes. The
//! consumed prefix is compacted once per readiness event, not per line.
//!
//! **Write side.** [`ConnSink`] is the response path. A worker that
//! finishes a job writes *directly* to the socket under the sink's
//! mutex — on an idle socket that is one nonblocking `write(2)` and the
//! response is on the wire without another event-loop hop (which on the
//! 1-core CI box would mean another context switch on the latency
//! path). Only when the kernel buffer is full (partial write or
//! `WouldBlock`) does the remainder spill into the sink's backlog and
//! the loop get woken to register write interest and drain it.
//!
//! A sink outlives its connection slot on purpose: an abrupt disconnect
//! frees the slot immediately, while in-flight jobs keep the `Arc` and
//! their late writes fail silently against the dead fd.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::server::ResponseSink;

pub use crate::server::MAX_FRAME_DEFAULT;

/// Read chunk size per `fill` iteration.
const READ_CHUNK: usize = 16 * 1024;

/// What a readiness-driven read pass produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// Bytes appended (socket drained or chunk budget reached).
    Progress,
    /// Clean EOF: the peer half-closed; pending responses may still be
    /// written back.
    Eof,
    /// The socket errored (reset, aborted); tear the connection down.
    Broken,
}

/// Read half of one client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    consumed: usize,
    /// Largest frame accepted before the connection is poisoned.
    max_frame: usize,
    /// Write half, shared with workers evaluating this connection's jobs.
    pub sink: Arc<ConnSink>,
    /// Peer half-closed; close once the sink is idle and flushed.
    pub half_closed: bool,
}

impl Conn {
    /// Wraps an accepted stream (already nonblocking) for token `token`.
    pub fn new(
        stream: TcpStream,
        token: usize,
        max_frame: usize,
        waker: Waker,
    ) -> io::Result<Self> {
        let write_half = stream.try_clone()?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
            consumed: 0,
            max_frame,
            sink: Arc::new(ConnSink {
                stream: Mutex::new(write_half),
                backlog: Mutex::new(Vec::new()),
                wants_write: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
                dead: AtomicBool::new(false),
                token,
                waker,
                loop_thread: std::thread::current().id(),
            }),
            half_closed: false,
        })
    }

    /// Reads until the socket would block (or a chunk budget is spent,
    /// so one firehose client cannot starve the rest of the loop).
    pub fn fill(&mut self) -> FillOutcome {
        let mut chunk = [0u8; READ_CHUNK];
        // 4 chunks ≈ 64 KiB per readiness event; level-triggered polling
        // re-arms anything left unread.
        for _ in 0..4 {
            match self.stream.read(&mut chunk) {
                Ok(0) => return FillOutcome::Eof,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return FillOutcome::Progress;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FillOutcome::Progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FillOutcome::Broken,
            }
        }
        FillOutcome::Progress
    }

    /// Whether the unframed tail exceeds the frame cap.
    pub fn frame_overflow(&self) -> bool {
        self.buf.len() - self.consumed > self.max_frame
    }

    /// The frame cap this connection enforces.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Yields the next complete frame as a borrowed slice, advancing the
    /// consumed cursor past it. Invalid UTF-8 frames yield `Err(())`.
    pub fn next_line(&mut self) -> Option<Result<&str, ()>> {
        let start = self.consumed;
        let nl = self.buf[start..].iter().position(|&b| b == b'\n')?;
        self.consumed = start + nl + 1;
        let mut frame = &self.buf[start..start + nl];
        if frame.last() == Some(&b'\r') {
            frame = &frame[..frame.len() - 1];
        }
        Some(std::str::from_utf8(frame).map_err(|_| ()))
    }

    /// Drops consumed bytes; call once per readiness event after the
    /// frame loop, so compaction is O(remaining) not O(lines).
    pub fn compact(&mut self) {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// The connection can be dropped: peer gone, no jobs in flight, and
    /// nothing left to flush.
    pub fn drained(&self) -> bool {
        self.half_closed && self.sink.idle()
    }

    /// The read-side fd, for poller registration.
    pub fn fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }
}

/// Wake handle into the event loop: one end of a nonblocking
/// `UnixStream` pair the loop polls like any other fd.
#[derive(Clone)]
pub struct Waker(Arc<std::os::unix::net::UnixStream>);

impl Waker {
    /// Wraps the write end (nonblocking).
    pub fn new(stream: std::os::unix::net::UnixStream) -> Self {
        Self(Arc::new(stream))
    }

    /// Wakes the loop. A full pipe means a wake is already pending —
    /// dropping the byte is exactly the coalescing we want.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// Write half of one connection, shared between the event loop and any
/// workers holding this connection's jobs.
pub struct ConnSink {
    stream: Mutex<TcpStream>,
    /// Bytes the socket would not take; drained by the loop on
    /// writability.
    backlog: Mutex<Vec<u8>>,
    /// Backlog is non-empty → the loop must register write interest.
    wants_write: AtomicBool,
    /// Jobs admitted for this connection and not yet responded to.
    inflight: AtomicUsize,
    /// Poisoned: the peer is gone, writes are discarded.
    dead: AtomicBool,
    /// The loop token, so drain completions can be routed.
    pub token: usize,
    waker: Waker,
    /// The event loop's thread (sinks are built during accept). Sends
    /// from this thread — the inline fast path — skip the waker: the
    /// loop's own post-event sweep syncs interest and closes drained
    /// connections, so a self-wake would only add a syscall round.
    loop_thread: std::thread::ThreadId,
}

impl ConnSink {
    /// No jobs in flight and nothing buffered.
    pub fn idle(&self) -> bool {
        self.inflight.load(Ordering::SeqCst) == 0 && !self.wants_write.load(Ordering::SeqCst)
    }

    /// Whether the loop should register write interest.
    pub fn wants_write(&self) -> bool {
        self.wants_write.load(Ordering::SeqCst)
    }

    /// Discards buffered output and poisons future writes.
    pub fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        self.backlog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.wants_write.store(false, Ordering::SeqCst);
    }

    /// Appends `bytes` after the backlog, writing through to the socket
    /// as far as it will go. Returns whether a backlog remains.
    fn write_through(&self, bytes: &[u8]) -> bool {
        if self.dead.load(Ordering::SeqCst) {
            return false;
        }
        // One lock order everywhere: stream, then backlog.
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let mut backlog = self.backlog.lock().unwrap_or_else(|e| e.into_inner());
        backlog.extend_from_slice(bytes);
        let mut written = 0;
        while written < backlog.len() {
            match stream.write(&backlog[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Dead peer: not a server error; drop the output.
                    backlog.clear();
                    drop(backlog);
                    drop(stream);
                    self.dead.store(true, Ordering::SeqCst);
                    self.wants_write.store(false, Ordering::SeqCst);
                    return false;
                }
            }
        }
        backlog.drain(..written);
        let pending = !backlog.is_empty();
        self.wants_write.store(pending, Ordering::SeqCst);
        pending
    }

    /// Loop-side: drain the backlog after a writability event. Returns
    /// whether write interest is still needed.
    pub fn flush_backlog(&self) -> bool {
        self.write_through(&[])
    }
}

impl ResponseSink for ConnSink {
    fn send(&self, line: &str) {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        // The loop must hear about spilled bytes to add write interest.
        if self.write_through(&framed) && std::thread::current().id() != self.loop_thread {
            self.waker.wake();
        }
    }

    fn job_started(&self) {
        self.inflight.fetch_add(1, Ordering::SeqCst);
    }

    fn job_finished(&self) {
        // The last in-flight response on a half-closed connection is
        // what lets the loop close it — wake it to re-check.
        if self.inflight.fetch_sub(1, Ordering::SeqCst) == 1
            && std::thread::current().id() != self.loop_thread
        {
            self.waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn test_conn(server: TcpStream, max_frame: usize) -> Conn {
        server.set_nonblocking(true).unwrap();
        let (w, _) = std::os::unix::net::UnixStream::pair().unwrap();
        w.set_nonblocking(true).unwrap();
        Conn::new(server, 2, max_frame, Waker::new(w)).unwrap()
    }

    #[test]
    fn frames_split_across_segments_reassemble() {
        let (mut client, server) = pair();
        let mut conn = test_conn(server, MAX_FRAME_DEFAULT);
        for chunk in [
            &b"{\"id\":\"a\""[..],
            &b",\"kind\":\"hd"[..],
            &b"c\"}\r\n{\"x\":1}\n"[..],
        ] {
            client.write_all(chunk).unwrap();
            client.flush().unwrap();
            // Wait for delivery: loopback is fast but not synchronous.
            while !matches!(conn.fill(), FillOutcome::Progress) {}
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        while conn.buf.len() < 25 {
            conn.fill();
        }
        assert_eq!(
            conn.next_line().unwrap().unwrap(),
            r#"{"id":"a","kind":"hdc"}"#
        );
        assert_eq!(conn.next_line().unwrap().unwrap(), r#"{"x":1}"#);
        assert!(conn.next_line().is_none());
        conn.compact();
        assert_eq!(conn.buf.len(), 0);
    }

    #[test]
    fn oversized_frame_detected_before_newline() {
        let (mut client, server) = pair();
        let mut conn = test_conn(server, 64);
        client.write_all(&[b'x'; 200]).unwrap();
        client.flush().unwrap();
        while conn.buf.len() < 100 {
            conn.fill();
        }
        assert!(conn.frame_overflow());
    }

    #[test]
    fn sink_spills_to_backlog_when_kernel_buffer_fills() {
        let (client, server) = pair();
        let conn = test_conn(server, MAX_FRAME_DEFAULT);
        let sink = Arc::clone(&conn.sink);
        // A line far larger than the unread socket buffer must spill.
        let big = "y".repeat(8 * 1024 * 1024);
        sink.send(&big);
        assert!(sink.wants_write(), "8 MiB into an unread socket must spill");
        drop(client);
        // Peer gone: flushing eventually poisons and clears the backlog.
        for _ in 0..200 {
            if !sink.flush_backlog() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(!sink.wants_write());
    }
}
