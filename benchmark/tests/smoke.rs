//! Short smoke runs of every workload through the real binaries: each must
//! exit 0 and end its output with a correct result line that carries every
//! metric of its mode.

use std::process::Command;

const END_TO_END: [&str; 6] = [
    "points_per_s",
    "requests_per_s",
    "p50_ms",
    "p99_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Runs one smoke invocation and returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_xlda-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .args(["--serve-bin", env!("CARGO_BIN_EXE_xlda-serve")])
        .current_dir(&dir)
        .output()
        .expect("spawn benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The run removes its working directory.
    assert!(!dir.join(".bench_work").exists());
    stdout.into_owned()
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("result line")
}

/// The printed output digest.
fn digest(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("output digest "))
        .unwrap_or_else(|| panic!("no output digest: {stdout}"))
}

fn check(workload: &str) {
    let stdout = run(workload, 0);
    let line = last_line(&stdout);
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    for m in END_TO_END {
        assert!(
            line.contains(&format!("\"{m}\":{{\"value\":")),
            "{m} missing: {line}"
        );
    }
    // Answers that depend on evaluation order are reported on their own;
    // every other answer must match the reference.
    assert!(line.contains(",\"failed\":0,"), "{line}");
    assert!(stdout.contains("order_dependent_frac"), "{stdout}");
    let traced_out = run(workload, 1);
    // Every layer is measured, on the probes where the workload does not
    // exercise it.
    assert!(!traced_out.contains("(not exercised)"), "{traced_out}");
    let traced = last_line(&traced_out);
    assert!(traced.starts_with("{\"correct\":true,"), "{traced}");
    for m in [
        "unspanned.share",
        "trace.overhead_frac",
        "core.sweep.scaling",
        "client.cpu_share",
    ] {
        assert!(
            traced.contains(&format!("\"{m}\":{{\"value\":")),
            "{m} missing: {traced}"
        );
    }
    assert!(!traced.contains("\"p50_ms\""), "{traced}");
    // The two runs used the same seed: the output digest must not depend
    // on thread timing or on which mode ran.
    assert_eq!(digest(&stdout), digest(&traced_out));
}

#[test]
fn dse_grid_smoke() {
    check("dse_grid");
}

#[test]
fn variation_study_smoke() {
    check("variation_study");
}

#[test]
fn serve_mixed_smoke() {
    check("serve_mixed");
}

#[test]
fn missing_seed_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_xlda-benchmark"))
        .args(["--workload", "dse_grid", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("spawn benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
