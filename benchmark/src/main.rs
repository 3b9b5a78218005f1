//! `xlda-benchmark`: end-to-end and per-layer benchmark of xlda.
//!
//! ```text
//! xlda-benchmark --workload dse_grid|variation_study|serve_mixed \
//!     --seed N --seconds S --trace 0|1 [--smoke] [--serve-bin PATH]
//! ```
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics (tracing off); `--trace 1` reports the per-layer
//! metrics from a separate traced run. See `README.md` next to this
//! package for the workloads and the reasons behind them.

mod check;
mod child;
mod grid;
mod json;
mod report;
mod serve;
mod stats;
mod study;
mod sys;

use child::{ChildArgs, Summary};
use report::Report;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Command-line options of a run.
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    serve_bin: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("xlda-benchmark: {msg}");
    eprintln!(
        "usage: xlda-benchmark --workload dse_grid|variation_study|serve_mixed --seed N \
         --seconds S --trace 0|1 [--smoke] [--serve-bin PATH]"
    );
    exit(2);
}

fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        serve_bin: None,
    };
    let mut child: Option<ChildArgs> = None;
    let mut seen_seed = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => opts.workload = value(&mut args, "--workload"),
            "--seed" => {
                opts.seed = value(&mut args, "--seed");
                seen_seed = true;
            }
            "--seconds" => opts.seconds = value(&mut args, "--seconds"),
            "--trace" => opts.trace = value::<u8>(&mut args, "--trace") != 0,
            "--smoke" => opts.smoke = true,
            "--serve-bin" => opts.serve_bin = Some(value(&mut args, "--serve-bin")),
            "--child" => {
                child = Some(ChildArgs {
                    pass: value(&mut args, "--child"),
                    seed: 0,
                    spawned_at: 0,
                    work: PathBuf::new(),
                    tag: String::new(),
                    threads: 0,
                    trace: false,
                    smoke: false,
                })
            }
            "--work" => {
                if let Some(c) = child.as_mut() {
                    c.work = value(&mut args, "--work");
                }
            }
            "--tag" => {
                if let Some(c) = child.as_mut() {
                    c.tag = value(&mut args, "--tag");
                }
            }
            "--threads" => {
                if let Some(c) = child.as_mut() {
                    c.threads = value(&mut args, "--threads");
                }
            }
            "--trace-spans" => {
                if let Some(c) = child.as_mut() {
                    c.trace = true;
                }
            }
            "--spawned-at" => {
                if let Some(c) = child.as_mut() {
                    c.spawned_at = value(&mut args, "--spawned-at");
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(mut c) = child {
        c.seed = opts.seed;
        c.smoke = opts.smoke;
        run_child(&c);
        return;
    }
    if !seen_seed {
        usage("--seed is required");
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload {:?}", opts.workload));
    }
    let work = WorkDir::create().unwrap_or_else(|e| {
        eprintln!("xlda-benchmark: {e}");
        exit(1);
    });
    let result = measure(&opts, &work.0);
    drop(work);
    match result {
        Ok(report) => report.print(opts.trace),
        Err(e) => {
            eprintln!("xlda-benchmark: {e}");
            exit(1);
        }
    }
}

/// Working directory inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let p = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        let p = p
            .canonicalize()
            .map_err(|e| format!("resolve work dir: {e}"))?;
        Ok(WorkDir(p))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_child(c: &ChildArgs) {
    if c.trace {
        xlda_obs::set_enabled(true);
    }
    let grid_shape = if c.smoke { &grid::SMOKE } else { &grid::FULL };
    let study_shape = if c.smoke { &study::SMOKE } else { &study::FULL };
    let reverse = c.pass.ends_with("_reverse");
    let summary = match c.pass.as_str() {
        "dse_grid" => grid::measure(c, grid_shape),
        "dse_grid_forward" | "dse_grid_reverse" => grid::verify(c, grid_shape, reverse),
        "variation_study" => study::measure(c, study_shape),
        "variation_study_forward" | "variation_study_reverse" => {
            study::verify(c, study_shape, reverse)
        }
        "serve_replay" => {
            let shape = if c.smoke { serve::SMOKE } else { serve::FULL };
            if let Err(e) = serve::replay(c, &shape) {
                eprintln!("xlda-benchmark: {e}");
                exit(1);
            }
            return;
        }
        other => {
            eprintln!("xlda-benchmark: unknown pass {other:?}");
            exit(2);
        }
    };
    println!("{}", summary.to_json());
}

/// The workloads, in the order a traced run probes the ones it does not
/// run itself.
const WORKLOADS: [&str; 3] = ["dse_grid", "variation_study", "serve_mixed"];

/// Runs the selected workload. A traced run then runs a short traced probe
/// of each other workload and takes from it the layers its own workload
/// does not exercise, so every per-layer metric is a measurement.
fn measure(o: &Options, work: &Path) -> Result<Report, String> {
    let mut r = run_workload(o, work, &o.workload, false)?;
    if o.trace {
        for other in WORKLOADS.iter().filter(|w| **w != o.workload) {
            r.absorb(run_workload(o, work, other, true)?);
        }
    }
    Ok(r)
}

fn run_workload(o: &Options, work: &Path, workload: &str, probe: bool) -> Result<Report, String> {
    if workload == "serve_mixed" {
        run_serve(o, work, probe)
    } else {
        run_in_process(o, work, workload, probe)
    }
}

/// Runs `dse_grid` or `variation_study`: fresh-process passes named after
/// the workload, then the forward and reverse verification passes (see
/// `check`). A probe makes one traced round and no warm-up pass.
fn run_in_process(o: &Options, work: &Path, pass: &str, probe: bool) -> Result<Report, String> {
    let mut r = Report::new(pass, o.seed);
    let mut passes: Vec<Summary> = Vec::new();
    // One unreported pass first: on a shared two-core box the first
    // process after an idle spell runs its two-thread sweeps up to 1.6x
    // slower. Its outputs are still checked.
    let warm = if probe {
        None
    } else {
        Some(child::run(pass, o.seed, work, "w", 0, false, o.smoke)?)
    };
    let started = Instant::now();
    if !o.trace {
        // Fresh-process passes over the same inputs until the time is up;
        // at least three, so every figure is a median.
        let min = if o.smoke { 1 } else { 3 };
        while passes.len() < min || started.elapsed().as_secs_f64() < o.seconds {
            let tag = format!("m{}", passes.len());
            passes.push(child::run(pass, o.seed, work, &tag, 0, false, o.smoke)?);
        }
    } else {
        // Interleaved rounds of three passes: default threads untraced (a),
        // one thread untraced (b), one thread traced (c). Each layer
        // figure comes from the median pass of its kind.
        let rounds = if o.smoke || probe { 1 } else { 3 };
        for round in 0..rounds {
            for (kind, threads, trace) in [("a", 0, false), ("b", 1, false), ("c", 1, true)] {
                let tag = format!("{kind}{round}");
                passes.push(child::run(
                    pass, o.seed, work, &tag, threads, trace, o.smoke,
                )?);
            }
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    // The two verification passes run side by side: each is one thread.
    let (forward, reverse) = std::thread::scope(|scope| {
        let rev = scope.spawn(|| {
            let pass = format!("{pass}_reverse");
            child::run(&pass, o.seed, work, "vr", 0, false, o.smoke)
        });
        let pass = format!("{pass}_forward");
        let fwd = child::run(&pass, o.seed, work, "vf", 0, false, o.smoke);
        (fwd, rev.join().expect("verification thread panicked"))
    });
    let (forward, reverse) = (forward?, reverse?);
    let (fwd, rev) = (forward.digests(), reverse.digests());
    let (fwd_classes, rev_classes) = (forward.classes(), reverse.classes());
    let n = forward.points as usize;
    if [fwd.len(), rev.len(), fwd_classes.len(), rev_classes.len()] != [n; 4] {
        return Err("verification pass wrote incomplete output".into());
    }
    let classes: Vec<check::Class> = fwd_classes
        .iter()
        .zip(&rev_classes)
        .map(|(&a, &b)| a.max(b))
        .collect();
    let broken = classes
        .iter()
        .filter(|&&c| c == check::Class::Broken)
        .count() as u64;
    let order_dependent = check::order_dependent(&fwd, &rev);
    for p in warm.iter().chain(&passes) {
        let t = check::tally(&p.digests(), &fwd, &rev, &classes);
        r.attempted += p.points;
        r.failed += t.failed;
        r.mismatched += t.mismatched;
        r.history += t.history;
        r.order_dependent += order_dependent;
        r.broken += broken;
        r.note(format!(
            "pass {}: {} ops, {:.3} s in calls, {} failed, {} order-dependent answers \
             differ from the forward reference, digest {:016x}",
            p.tag,
            p.points,
            p.wall_s(),
            t.failed,
            t.history,
            p.digest,
        ));
    }
    r.digest = Some(reverse.digest);
    r.note(format!(
        "measured {measured_s:.1} s; verification digests: forward {:016x}, reverse {:016x}; \
         {order_dependent} of {n} operations answer differently in the two orders",
        forward.digest, reverse.digest
    ));
    if !o.trace {
        report::in_process_end_to_end(&mut r, &passes);
    } else if pass == "dse_grid" {
        report::grid_layers(&mut r, &passes, &forward);
    } else {
        report::study_layers(&mut r, &passes);
    }
    Ok(r)
}

fn serve_bin(o: &Options) -> Result<PathBuf, String> {
    if let Some(p) = &o.serve_bin {
        return Ok(p.clone());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let p = exe.with_file_name("xlda-serve");
    if p.exists() {
        Ok(p)
    } else {
        Err(format!(
            "no xlda-serve next to {}; pass --serve-bin",
            exe.display()
        ))
    }
}

/// Runs `serve_mixed`. Daemon starts are timed before and after the
/// measurement window, so set-up is sampled over the whole run rather than
/// one short spell of the box. A probe starts the daemon twice and
/// measures two windows of at most two seconds each.
fn run_serve(o: &Options, work: &Path, probe: bool) -> Result<Report, String> {
    let bin = serve_bin(o)?;
    let shape = if o.smoke { serve::SMOKE } else { serve::FULL };
    let starts = if probe { 2 } else { shape.starts };
    let mut r = Report::new("serve_mixed", o.seed);
    let hot = serve::hot_set(o.seed, &shape);
    let base = work.join("base.store");
    let t = Instant::now();
    serve::build_store(&base, o.seed, &hot, &shape)?;
    r.note(format!(
        "store set-up {:.2} s (harness, excluded)",
        t.elapsed().as_secs_f64()
    ));
    let first_request = serve::probe_body(&hot);
    let mut setups = Vec::new();
    let mut replays = Vec::new();
    let mut start = |k: usize| -> Result<serve::Daemon, String> {
        let copy = serve::store_copy(&base, work, k)?;
        let (d, setup) = serve::Daemon::start(&bin, &copy, None, &first_request)?;
        setups.push(setup);
        replays.push(d.replay_s);
        Ok(d)
    };
    // The last daemon started before the window serves the load.
    let before = if probe { starts } else { starts / 2 + 1 };
    for k in 0..before - 1 {
        start(k)?.stop();
    }
    let daemon = start(before - 1)?;
    let window = match (o.trace, probe) {
        (false, _) => o.seconds,
        (true, false) => o.seconds / 2.0,
        (true, true) => o.seconds.min(4.0) / 2.0,
    };
    let untraced = serve::measure_window(daemon, &hot, o.seed, &shape, window)?;
    for k in before..starts {
        start(k)?.stop();
    }
    r.note(format!(
        "set-up over {} daemon starts: min {:.1} ms, median {:.1} ms, max {:.1} ms",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        stats::median(&setups) * 1e3,
        setups.iter().copied().fold(0.0, f64::max) * 1e3
    ));
    tally(
        &mut r,
        &untraced.load,
        serve::check_load(&untraced.load, o.seed, &hot, work, o.smoke)?,
    );
    if untraced.load.window_fill < 0.98 {
        r.note(format!(
            "WARNING: closed-loop window not kept full (fill {:.3})",
            untraced.load.window_fill
        ));
    }
    r.digest = untraced.load.digest;
    if !o.trace {
        report::serve_end_to_end(&mut r, &untraced, &setups);
        return Ok(r);
    }
    // Traced half: a fresh daemon on a fresh store copy, with the
    // wide-event access log on.
    let log = work.join("access.ndjson");
    let copy = serve::store_copy(&base, work, starts)?;
    let (d, _) = serve::Daemon::start(&bin, &copy, Some(&log), &first_request)?;
    let traced = serve::measure_window(d, &hot, o.seed, &shape, window)?;
    tally(
        &mut r,
        &traced.load,
        serve::check_load(&traced.load, o.seed, &hot, work, o.smoke)?,
    );
    let access = serve::read_access_log(&log, o.seed)?;
    report::serve_layers(&mut r, &untraced, &traced, &access, &replays);
    Ok(r)
}

/// Adds one window's operations and output-check verdicts to the report.
fn tally(r: &mut Report, load: &serve::LoadResult, c: serve::Checked) {
    r.attempted += load.attempted;
    r.failed += load.failed + c.errored + c.mismatch + c.malformed;
    r.mismatched += c.mismatch;
    r.broken += c.malformed;
    r.history += c.history;
    r.order_dependent += c.order_dependent;
}
