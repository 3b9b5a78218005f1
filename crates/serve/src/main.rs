//! `xlda-serve` binary: the evaluation daemon.
//!
//! ```text
//! xlda-serve --listen 127.0.0.1:7878    # TCP daemon (default)
//! xlda-serve --stdio                    # line protocol on stdio
//! ```
//!
//! Options: `--queue-cap N`, `--batch-window-ms N` (saturation-test
//! knob, default 0), `--batch-max N`, `--threads N`, `--deadline-ms N`
//! (default per-request deadline), `--max-frame BYTES`, `--store PATH`
//! (persistent result store; results survive restarts and back the
//! `refine` request kind), `--access-log PATH` (wide-event NDJSON log,
//! one line per request), `--no-flight` / `--flight-cap N` (per-request
//! flight recorder behind the `debug` request kind; see DESIGN.md §15).

use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use xlda_core::store::ResultStore;
use xlda_serve::{AccessLog, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: xlda-serve [--stdio | --listen ADDR] [--queue-cap N] \
         [--batch-window-ms N] [--batch-max N] [--threads N] [--deadline-ms N] \
         [--max-frame BYTES] [--store PATH] [--access-log PATH] \
         [--no-flight] [--flight-cap N]"
    );
    exit(2);
}

fn parse_num(args: &mut std::vec::IntoIter<String>, flag: &str) -> u64 {
    match args.next().map(|v| v.parse::<u64>()) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("xlda-serve: {flag} needs a non-negative integer");
            exit(2);
        }
    }
}

fn main() {
    let mut config = ServerConfig::default();
    let mut stdio = false;
    let mut store_path: Option<String> = None;
    let mut access_log_path: Option<String> = None;
    let mut listen = "127.0.0.1:7878".to_string();
    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--listen" => match args.next() {
                Some(a) => listen = a,
                None => usage(),
            },
            "--queue-cap" => config.queue_cap = parse_num(&mut args, "--queue-cap") as usize,
            "--batch-window-ms" => {
                config.batch_window =
                    Duration::from_millis(parse_num(&mut args, "--batch-window-ms"));
            }
            "--batch-max" => {
                config.batch_max = (parse_num(&mut args, "--batch-max") as usize).max(1);
            }
            "--threads" => config.threads = parse_num(&mut args, "--threads") as usize,
            "--deadline-ms" => {
                config.default_deadline =
                    Some(Duration::from_millis(parse_num(&mut args, "--deadline-ms")));
            }
            "--max-frame" => {
                config.max_frame = (parse_num(&mut args, "--max-frame") as usize).max(1);
            }
            "--store" => match args.next() {
                Some(p) => store_path = Some(p),
                None => usage(),
            },
            "--access-log" => match args.next() {
                Some(p) => access_log_path = Some(p),
                None => usage(),
            },
            "--no-flight" => config.flight = false,
            "--flight-cap" => {
                config.flight_cap = (parse_num(&mut args, "--flight-cap") as usize).max(1);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("xlda-serve: unknown argument {other:?}");
                usage();
            }
        }
    }
    if config.queue_cap == 0 {
        eprintln!("xlda-serve: --queue-cap must be at least 1");
        exit(2);
    }

    let store = store_path.map(|p| match ResultStore::open(&p) {
        Ok(s) => {
            let rep = s.load_report();
            eprintln!(
                "xlda-serve: store {p}: {} records recovered{}{}",
                rep.recovered_records,
                if rep.truncated_bytes > 0 {
                    format!(", {} torn bytes truncated", rep.truncated_bytes)
                } else {
                    String::new()
                },
                if rep.reset {
                    ", reset (incompatible file)"
                } else {
                    ""
                },
            );
            Arc::new(s)
        }
        Err(e) => {
            eprintln!("xlda-serve: cannot open store {p}: {e}");
            exit(1);
        }
    });

    let access_log = access_log_path.map(|p| match AccessLog::to_path(&p) {
        Ok(log) => {
            eprintln!("xlda-serve: access log appending to {p}");
            log
        }
        Err(e) => {
            eprintln!("xlda-serve: cannot open access log {p}: {e}");
            exit(1);
        }
    });

    let server = Server::with_parts(config, store, access_log);
    if stdio {
        server.run_stdio();
        return;
    }
    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xlda-serve: cannot bind {listen}: {e}");
            exit(1);
        }
    };
    // The kernel may have picked the port (":0"); report the bound addr.
    if let Ok(addr) = listener.local_addr() {
        eprintln!("xlda-serve: listening on {addr}");
    }
    if let Err(e) = server.run_tcp(listener) {
        eprintln!("xlda-serve: transport failed: {e}");
        exit(1);
    }
}
