//! Adversarial clients against the readiness-driven TCP transport:
//! slow writers, split and pipelined frames, oversized and malformed
//! frames, deadline expiry behind a stalled batch, and abrupt
//! disconnects.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xlda_serve::json::Json;
use xlda_serve::{Server, ServerConfig};

/// Binds a throwaway port and runs the TCP transport on its own
/// thread; the server exits when a client sends `shutdown`.
fn spawn(config: ServerConfig) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = Server::new(config);
    let handle = std::thread::spawn(move || {
        server.run_tcp(listener).expect("transport exits cleanly");
    });
    // The listener is bound before spawn, so clients can connect
    // immediately; the kernel queues them until the loop accepts.
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    assert!(!line.is_empty(), "connection closed before response");
    Json::parse(line.trim_end()).expect("well-formed response")
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let mut c = connect(addr);
    c.write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")
        .unwrap();
    let mut reader = BufReader::new(c.try_clone().unwrap());
    let v = read_response(&mut reader);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    drop((c, reader));
    handle.join().expect("server thread");
}

#[test]
fn byte_at_a_time_client_is_served() {
    let (addr, handle) = spawn(ServerConfig::default());
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    // Trickle the frame in one byte per write: the loop must
    // accumulate partial frames across many readiness events without
    // blocking anyone else (the stats probe below shares the server).
    for b in b"{\"id\":\"slow\",\"kind\":\"hdc\"}\n" {
        c.write_all(&[*b]).unwrap();
        c.flush().unwrap();
    }
    let v = read_response(&mut reader);
    assert_eq!(v.get("id").and_then(Json::as_str), Some("slow"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert!(!v
        .get("candidates")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());
    shutdown(addr, handle);
}

#[test]
fn pipelined_and_split_frames_all_answered() {
    let (addr, handle) = spawn(ServerConfig::default());
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    // Three whole frames in one segment, then one frame split midway
    // through its JSON across two segments.
    c.write_all(
        b"{\"id\":\"p0\",\"kind\":\"hdc\"}\n{\"id\":\"p1\",\"kind\":\"mann\"}\n{\"id\":\"p2\",\"kind\":\"edge\"}\n{\"id\":\"p3\",\"ki",
    )
    .unwrap();
    c.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    c.write_all(b"nd\":\"hdc\"}\n").unwrap();
    c.flush().unwrap();
    let mut ids = std::collections::HashSet::new();
    for _ in 0..4 {
        let v = read_response(&mut reader);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        ids.insert(v.get("id").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(
        ids.len(),
        4,
        "all four pipelined requests answered: {ids:?}"
    );
    shutdown(addr, handle);
}

#[test]
fn oversized_frame_rejected_and_connection_closed() {
    let (addr, handle) = spawn(ServerConfig {
        max_frame: 256,
        ..ServerConfig::default()
    });
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    // 4 KiB with no newline: the framing cursor can never resync, so
    // the server must reject and hang up rather than buffer forever.
    c.write_all(&[b'x'; 4096]).unwrap();
    c.flush().unwrap();
    let v = read_response(&mut reader);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("frame_too_large")
    );
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("EOF after rejection");
    assert!(rest.is_empty(), "no frames after frame_too_large: {rest:?}");
    shutdown(addr, handle);
}

#[test]
fn malformed_frame_fails_alone_connection_stays_usable() {
    let (addr, handle) = spawn(ServerConfig::default());
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    // Invalid UTF-8, then garbage JSON, then a valid request — the
    // first two fail their own frames only.
    c.write_all(b"\xff\xfe\xfd\n").unwrap();
    c.write_all(b"not json\n").unwrap();
    c.write_all(b"{\"id\":\"after\",\"kind\":\"hdc\"}\n")
        .unwrap();
    c.flush().unwrap();
    let utf8 = read_response(&mut reader);
    assert_eq!(utf8.get("code").and_then(Json::as_str), Some("bad_request"));
    let garbage = read_response(&mut reader);
    assert_eq!(
        garbage.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    let ok = read_response(&mut reader);
    assert_eq!(ok.get("id").and_then(Json::as_str), Some("after"));
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    shutdown(addr, handle);
}

#[test]
fn deadline_expires_behind_a_stalled_batch() {
    // One worker with a 150 ms pre-drain stall (the saturation knob):
    // both requests sit queued long enough for the zero-deadline one
    // to expire, while its neighbour completes normally.
    let (addr, handle) = spawn(ServerConfig {
        threads: 1,
        batch_window: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    c.write_all(b"{\"id\":\"patient\",\"kind\":\"hdc\"}\n{\"id\":\"expired\",\"kind\":\"hdc\",\"deadline_ms\":0}\n")
        .unwrap();
    c.flush().unwrap();
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..2 {
        let v = read_response(&mut reader);
        by_id.insert(v.get("id").and_then(Json::as_str).unwrap().to_string(), v);
    }
    assert_eq!(
        by_id["patient"].get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        by_id["expired"].get("code").and_then(Json::as_str),
        Some("deadline")
    );
    shutdown(addr, handle);
}

#[test]
fn abrupt_disconnect_releases_the_connection_slot() {
    let (addr, handle) = spawn(ServerConfig::default());
    // A client that submits work and vanishes without reading: the
    // response must be discarded and the slot reclaimed, not leaked.
    for _ in 0..3 {
        let mut c = connect(addr);
        c.write_all(b"{\"id\":\"gone\",\"kind\":\"hdc\"}\n")
            .unwrap();
        c.flush().unwrap();
        drop(c);
    }
    let mut c = connect(addr);
    let mut reader = BufReader::new(c.try_clone().unwrap());
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut open = f64::NAN;
    let mut probe = 0;
    while Instant::now() < deadline {
        probe += 1;
        c.write_all(format!("{{\"id\":\"s{probe}\",\"kind\":\"stats\"}}\n").as_bytes())
            .unwrap();
        c.flush().unwrap();
        let v = read_response(&mut reader);
        open = v.get("open_connections").and_then(Json::as_f64).unwrap();
        // Only this stats connection may remain open.
        if open == 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(open, 1.0, "vanished clients must not leak slots");
    shutdown(addr, handle);
}
