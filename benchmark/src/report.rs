//! Metric names, their derivation from the passes and windows, and the
//! printed report.

use crate::child::Summary;
use crate::json::{self, Value};
use crate::serve::{self, AccessLog, Window, CLASSES, SLICE_S, STAGES};
use crate::stats::{median, percentile};
use crate::sys;

/// End-to-end metrics, reported with tracing off. For the in-process
/// workloads a request is one call of the workload's loop: a 256-point
/// triage chunk of `dse_grid`, or one Monte-Carlo chunk or functional
/// simulation of `variation_study`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("points_per_s", "points/s"),
    ("requests_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. Layers the workload does
/// not exercise are measured on short traced probes of the others.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("core.evaluate.hdc.us_per_point", "us"),
    ("core.evaluate.mann.us_per_point", "us"),
    ("core.sweep.scaling", "ratio"),
    ("core.triage.us_per_point", "us"),
    ("core.pareto.us_per_point", "us"),
    ("core.infeasible_frac", "fraction"),
    ("nvram.auto_organize.share", "fraction"),
    ("nvram.auto_organize.calls", "count"),
    ("nvram.share", "fraction"),
    ("evacam.share", "fraction"),
    ("evacam.report.share", "fraction"),
    ("crossbar.share", "fraction"),
    ("circuit.decoder.share", "fraction"),
    ("circuit.matchline.share", "fraction"),
    ("spans.other.share", "fraction"),
    ("unspanned.share", "fraction"),
    ("core.mc.cam_yield.trials_per_s", "1/s"),
    ("core.mc.mann.trials_per_s", "1/s"),
    ("core.mc.nvm.trials_per_s", "1/s"),
    ("mc.batch.share", "fraction"),
    ("device.mlc.share", "fraction"),
    ("hdc.train_s", "s"),
    ("hdc.classify.queries_per_s", "1/s"),
    ("hdc.cam.queries_per_s", "1/s"),
    ("mann.train_s", "s"),
    ("mann.episodes_per_s", "1/s"),
    ("serve.decode.p50_us", "us"),
    ("serve.queue.p50_us", "us"),
    ("serve.batch.p50_us", "us"),
    ("serve.eval.p50_us", "us"),
    ("serve.write.p50_us", "us"),
    ("serve.decode.share", "fraction"),
    ("serve.queue.share", "fraction"),
    ("serve.batch.share", "fraction"),
    ("serve.eval.share", "fraction"),
    ("serve.write.share", "fraction"),
    ("serve.queue.p99_us", "us"),
    ("serve.cpu_us_per_request", "us"),
    ("serve.rejected_frac", "fraction"),
    ("serve.class.hot.busy_share", "fraction"),
    ("serve.class.fresh.busy_share", "fraction"),
    ("serve.class.mc.busy_share", "fraction"),
    ("serve.class.refine.busy_share", "fraction"),
    ("serve.class.triage.busy_share", "fraction"),
    ("client.hot.p50_ms", "ms"),
    ("client.fresh.p50_ms", "ms"),
    ("client.mc.p50_ms", "ms"),
    ("client.refine.p50_ms", "ms"),
    ("client.hot.p99_ms", "ms"),
    ("client.fresh.p99_ms", "ms"),
    ("client.mc.p99_ms", "ms"),
    ("client.refine.p99_ms", "ms"),
    ("store.hit_ratio", "fraction"),
    ("store.replay_s", "s"),
    ("store.bytes_per_record", "bytes"),
    ("store.appends", "count"),
    ("memo.hit_ratio", "fraction"),
    ("client.cpu_share", "fraction"),
    ("client.window_fill", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans_sum", "fraction"),
    ("check.order_dependent_frac", "fraction"),
];

/// Spans whose self-time shares are reported by name; every other span
/// goes to `spans.other.share`.
const NAMED_SPANS: [(&str, &str); 9] = [
    ("nvram.auto_organize", "nvram.auto_organize.share"),
    ("nvram", "nvram.share"),
    ("evacam", "evacam.share"),
    ("evacam.report", "evacam.report.share"),
    ("crossbar", "crossbar.share"),
    ("circuit.decoder", "circuit.decoder.share"),
    ("circuit.matchline", "circuit.matchline.share"),
    ("mc.batch", "mc.batch.share"),
    ("device.mlc", "device.mlc.share"),
];

/// Spans may claim at most this much more than the call time they ran in
/// before the breakdown is flagged: self times telescope, so only clock
/// granularity separates their sum from the calls' wall time.
const SPAN_SUM_TOLERANCE: f64 = 0.01;

struct Metric {
    name: String,
    value: f64,
    samples: u64,
}

/// One run's results.
pub struct Report {
    workload: String,
    seed: u64,
    pub attempted: u64,
    /// Operations that errored, panicked, were refused, or gave a wrong
    /// answer.
    pub failed: u64,
    /// Answers whose values differ from the reference.
    pub mismatched: u64,
    /// Answers that break an invariant; any makes the run incorrect.
    pub broken: u64,
    /// Operations whose reference answers differ between two evaluation
    /// orders: the program's answer depends on what it evaluated before.
    pub order_dependent: u64,
    /// Answers that differ from the reference on those operations. Not
    /// counted in `failed`: on them the program has no single answer.
    pub history: u64,
    pub digest: Option<u64>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            attempted: 0,
            failed: 0,
            mismatched: 0,
            broken: 0,
            order_dependent: 0,
            history: 0,
            digest: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a probe's operations to this run and takes from it every
    /// metric this run did not measure itself.
    pub fn absorb(&mut self, probe: Report) {
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.mismatched += probe.mismatched;
        self.broken += probe.broken;
        self.order_dependent += probe.order_dependent;
        self.history += probe.history;
        let mut taken = 0;
        for m in probe.metrics {
            if self.get(&m.name).is_none() {
                self.metrics.push(m);
                taken += 1;
            }
        }
        self.notes.push(format!(
            "{taken} layer metrics from a short traced probe of {} ({} of {} operations failed)",
            probe.workload, probe.failed, probe.attempted
        ));
    }

    fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            samples: samples as u64,
        });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prints the human-readable report, then the result line.
    pub fn print(&self, trace: bool) {
        println!(
            "xlda-benchmark workload={} seed={} trace={} cpus={}",
            self.workload,
            self.seed,
            u8::from(trace),
            sys::cpus()
        );
        for n in &self.notes {
            println!("  {n}");
        }
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in listed {
            match self.get(name) {
                Some(m) => println!(
                    "  {name:<34} {:>16} {unit:<9} n={}",
                    fmt(m.value),
                    m.samples
                ),
                None => println!("  {name:<34} {:>16} {unit:<9} (not exercised)", 0),
            }
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  {:<34} {:>16} {:<9} n={} (failed {}: {} differ from the reference, {} break an invariant)",
            "failed_frac",
            fmt(frac),
            "fraction",
            self.attempted,
            self.failed,
            self.mismatched,
            self.broken
        );
        println!(
            "  {:<34} {:>16} {:<9} n={} ({} operations answer differently in forward and \
             reverse evaluation order; {} answers differ from the forward reference on them, \
             not counted as failed)",
            "order_dependent_frac",
            fmt(rate(self.order_dependent as f64, self.attempted as f64)),
            "fraction",
            self.attempted,
            self.order_dependent,
            self.history
        );
        if let Some(d) = self.digest {
            println!("  output digest {d:016x}");
        }
        println!("{}", self.result_line(trace));
    }

    /// The result line: correctness, operation counts, and every metric of
    /// the mode (0 for a layer the workload does not exercise).
    fn result_line(&self, trace: bool) -> String {
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted > 0 && self.broken == 0,
            self.attempted,
            self.failed
        );
        for (k, (name, unit)) in listed.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push_str(":{\"value\":");
            json::push_num(&mut out, self.get(name).map_or(0.0, |m| m.value));
            out.push_str(",\"unit\":");
            json::push_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn fmt(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.6e}")
    } else {
        format!("{x:.6}")
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `check.order_dependent_frac`, over the operations the run has checked.
fn order_dependence(r: &mut Report) {
    r.set(
        "check.order_dependent_frac",
        rate(r.order_dependent as f64, r.attempted as f64),
        r.attempted as usize,
    );
}

/// Median over `parts` of `f(part)`.
fn median_of<T>(parts: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&parts.iter().map(f).collect::<Vec<_>>())
}

/// Steal is counted in 10 ms ticks; a difference below this share of the
/// box's CPU time is rounding, not a disturbance.
const STEAL_SLACK: f64 = 0.01;

/// The samples taken while the hypervisor stole no more of the box's CPU
/// time than during the run's median sample, give or take
/// [`STEAL_SLACK`]: at least half of them, and all of them when steal was
/// even. On a shared virtual machine steal is the disturbance the guest
/// can see, and it only ever slows a sample down, so a spell of it is
/// dropped rather than averaged in.
fn least_stolen<T>(samples: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let cut = median_of(samples, &steal) + STEAL_SLACK;
    samples.iter().filter(|s| steal(s) <= cut).collect()
}

/// A note on the steal the samples saw and how many were kept.
fn steal_note(what: &str, steal: &[f64], kept: usize) -> String {
    format!(
        "CPU steal over {} {what}: median {:.4}, max {:.4}; figures from the {kept} at most \
         {STEAL_SLACK} above the median",
        steal.len(),
        median(steal),
        steal.iter().copied().fold(0.0, f64::max)
    )
}

/// End-to-end metrics of `dse_grid` and `variation_study`. Throughput,
/// set-up and memory are taken per pass and reported as the median over
/// the passes, so a burst of load from outside the benchmark spoils one
/// pass, not the run; passes that ran under more CPU steal than the
/// median pass are dropped. Every pass makes the same calls in the same
/// order, so call `k` is the same work in each: the latency of call `k` is
/// its median over the kept passes, and the percentiles are taken over
/// those per-call medians.
pub fn in_process_end_to_end(r: &mut Report, all: &[Summary]) {
    let passes = least_stolen(all, |p| p.steal);
    let steal: Vec<f64> = all.iter().map(|p| p.steal).collect();
    r.note(steal_note("passes", &steal, passes.len()));
    let passes = &passes[..];
    let n = passes.len();
    let calls: usize = passes.iter().map(|p| p.calls.len()).sum();
    let positions = passes.iter().map(|p| p.calls.len()).min().unwrap_or(0);
    let per_call_ms: Vec<f64> = (0..positions)
        .map(|k| median_of(passes, |p| p.calls[k] * 1e3))
        .collect();
    r.set(
        "points_per_s",
        median_of(passes, |p| rate(p.points as f64, p.wall_s())),
        n,
    );
    r.set(
        "requests_per_s",
        median_of(passes, |p| rate(p.calls.len() as f64, p.wall_s())),
        n,
    );
    r.set("p50_ms", median(&per_call_ms), calls);
    r.set("p99_ms", percentile(&per_call_ms, 99.0), calls);
    r.set("setup_s", median_of(passes, |p| p.setup_s), n);
    r.set("peak_rss_mb", median_of(passes, |p| p.peak_rss_mb), n);
}

/// Span self-time shares of a traced pass, over the wall time of its
/// calls. The traced passes sweep on one worker thread, so every span and
/// every unspanned instruction of a call runs in that interval: the named
/// shares, `spans.other.share` and `unspanned.share` sum to 1, and the
/// spans alone may not claim more than the interval.
fn span_shares(r: &mut Report, traced: &Summary) {
    let wall = traced.wall_s();
    let mut named = 0.0;
    for (span, metric) in NAMED_SPANS {
        let (self_ns, _) = traced.span(span);
        named += self_ns;
        r.set(metric, self_ns / 1e9 / wall, traced.calls.len());
    }
    let all: f64 = traced.spans.iter().map(|(_, s, _)| s).sum();
    let spans = all / 1e9 / wall;
    r.set(
        "spans.other.share",
        (all - named) / 1e9 / wall,
        traced.calls.len(),
    );
    r.set("unspanned.share", 1.0 - spans, traced.calls.len());
    r.set("trace.spans_sum", spans, traced.calls.len());
    let others: Vec<String> = traced
        .spans
        .iter()
        .filter(|(n, _, _)| !NAMED_SPANS.iter().any(|(s, _)| s == n))
        .map(|(n, s, _)| format!("{n} {:.4}", s / 1e9 / wall))
        .collect();
    r.note(format!(
        "spans cover {spans:.4} of the traced calls' wall time (named + other + unspanned = 1; \
         spans may exceed 1 by at most {SPAN_SUM_TOLERANCE}); other spans: {}",
        if others.is_empty() {
            "none".to_string()
        } else {
            others.join(", ")
        }
    ));
    if spans > 1.0 + SPAN_SUM_TOLERANCE {
        r.note(
            "WARNING: span self times exceed the call time they ran in (a span waiting on \
             child spans in other threads keeps their time as its own)"
                .into(),
        );
    }
}

/// The median pass, by call time, of each kind of the traced run's
/// interleaved rounds: `a` default threads untraced, `b` one thread
/// untraced, `c` one thread traced.
fn representatives(passes: &[Summary]) -> (&Summary, &Summary, &Summary) {
    let pick = |kind: char| {
        let mut v: Vec<&Summary> = passes.iter().filter(|p| p.tag.starts_with(kind)).collect();
        v.sort_by(|x, y| x.wall_s().total_cmp(&y.wall_s()));
        v[v.len() / 2]
    };
    (pick('a'), pick('b'), pick('c'))
}

/// Per-layer metrics of `dse_grid` from the traced run's passes.
pub fn grid_layers(r: &mut Report, passes: &[Summary], verify: &Summary) {
    order_dependence(r);
    let (a, b, c) = representatives(passes);
    let us = |secs: f64, n: f64| if n > 0.0 { secs / n * 1e6 } else { 0.0 };
    r.set(
        "core.evaluate.hdc.us_per_point",
        us(b.field("eval_hdc_s"), b.field("hdc_points")),
        b.field("hdc_points") as usize,
    );
    r.set(
        "core.evaluate.mann.us_per_point",
        us(b.field("eval_mann_s"), b.field("mann_points")),
        b.field("mann_points") as usize,
    );
    let one = rate(b.points as f64, b.wall_s());
    r.set(
        "core.sweep.scaling",
        rate(a.points as f64, a.wall_s()) / (sys::cpus() as f64 * one),
        2,
    );
    r.set(
        "core.triage.us_per_point",
        us(b.field("triage_s"), b.points as f64),
        b.points as usize,
    );
    r.set(
        "core.pareto.us_per_point",
        us(b.field("pareto_s"), b.points as f64),
        b.points as usize,
    );
    r.set(
        "core.infeasible_frac",
        verify.field("infeasible_points") / verify.points.max(1) as f64,
        verify.points as usize,
    );
    r.set(
        "nvram.auto_organize.calls",
        c.span("nvram.auto_organize").1,
        1,
    );
    span_shares(r, c);
    r.set(
        "trace.overhead_frac",
        one / rate(c.points as f64, c.wall_s()) - 1.0,
        2,
    );
}

/// Per-layer metrics of `variation_study` from the traced run's passes.
pub fn study_layers(r: &mut Report, passes: &[Summary]) {
    order_dependence(r);
    let (a, b, c) = representatives(passes);
    let mc = |p: &Summary| -> (f64, f64) {
        crate::study::KINDS.iter().fold((0.0, 0.0), |(t, s), k| {
            (
                t + p.field(&format!("mc.{k}.trials")),
                s + p.field(&format!("mc.{k}.s")),
            )
        })
    };
    for k in crate::study::KINDS {
        r.set(
            &format!("core.mc.{k}.trials_per_s"),
            rate(
                b.field(&format!("mc.{k}.trials")),
                b.field(&format!("mc.{k}.s")),
            ),
            b.field(&format!("mc.{k}.trials")) as usize,
        );
    }
    let ((ta, sa), (tb, sb)) = (mc(a), mc(b));
    r.set(
        "core.sweep.scaling",
        rate(ta, sa) / (sys::cpus() as f64 * rate(tb, sb)),
        2,
    );
    r.set("hdc.train_s", a.field("hdc.train.s"), 1);
    r.set(
        "hdc.classify.queries_per_s",
        rate(a.field("hdc.classify.queries"), a.field("hdc.classify.s")),
        a.field("hdc.classify.queries") as usize,
    );
    r.set(
        "hdc.cam.queries_per_s",
        rate(a.field("hdc.cam.queries"), a.field("hdc.cam.s")),
        a.field("hdc.cam.queries") as usize,
    );
    r.set("mann.train_s", a.field("mann.train.s"), 1);
    r.set(
        "mann.episodes_per_s",
        rate(a.field("mann.episodes"), a.field("mann.eval.s")),
        a.field("mann.episodes") as usize,
    );
    r.set(
        "nvram.auto_organize.calls",
        c.span("nvram.auto_organize").1,
        1,
    );
    span_shares(r, c);
    r.set(
        "trace.overhead_frac",
        rate(b.points as f64, b.wall_s()) / rate(c.points as f64, c.wall_s()) - 1.0,
        2,
    );
}

/// One slice of a window: requests and points completed in it, the
/// latencies (ms) of those requests, and the box's CPU steal over it.
struct Slice {
    requests: f64,
    points: f64,
    latency_ms: Vec<f64>,
    steal: f64,
}

/// Cuts a window into whole [`SLICE_S`] slices by completion time.
fn slices(w: &Window) -> Vec<Slice> {
    let n = ((w.load.window_s / SLICE_S).floor() as usize).max(1);
    let tick = |k: usize| w.load.ticks.get(k).copied().flatten();
    let mut out: Vec<Slice> = (0..n)
        .map(|k| Slice {
            requests: 0.0,
            points: 0.0,
            latency_ms: Vec::new(),
            steal: sys::steal_share(tick(k), tick(k + 1)),
        })
        .collect();
    for s in &w.load.samples {
        let k = (s.done_s / SLICE_S) as usize;
        if let Some(slice) = out.get_mut(k) {
            slice.requests += 1.0;
            slice.points += s.points as f64;
            slice.latency_ms.push(s.latency_s * 1e3);
        }
    }
    out
}

/// Requests completed per second, as the median over the window's least
/// stolen slices.
fn requests_per_s(w: &Window) -> f64 {
    let all = slices(w);
    median_of(&least_stolen(&all, |s| s.steal), |s| s.requests / SLICE_S)
}

/// End-to-end metrics of `serve_mixed`. The window is cut into one-second
/// slices by completion time; each figure is the median over the slices,
/// so a burst of load from outside the benchmark spoils a slice, not the
/// run. Slices that ran under more CPU steal than the median slice are
/// dropped.
pub fn serve_end_to_end(r: &mut Report, w: &Window, setups: &[f64]) {
    let all = slices(w);
    let sl = least_stolen(&all, |s| s.steal);
    let steal: Vec<f64> = all.iter().map(|s| s.steal).collect();
    r.note(steal_note("one-second slices", &steal, sl.len()));
    let sl = &sl[..];
    let n: usize = sl.iter().map(|s| s.latency_ms.len()).sum();
    r.set("points_per_s", median_of(sl, |s| s.points / SLICE_S), n);
    r.set("requests_per_s", median_of(sl, |s| s.requests / SLICE_S), n);
    r.set("p50_ms", median_of(sl, |s| median(&s.latency_ms)), n);
    r.set(
        "p99_ms",
        median_of(sl, |s| percentile(&s.latency_ms, 99.0)),
        n,
    );
    r.set("setup_s", median(setups), setups.len());
    match w.load.rss_at_prefix_mb {
        Some(mb) => r.set("peak_rss_mb", mb, 1),
        None => {
            r.set("peak_rss_mb", w.server_rss_end_mb, 1);
            r.note(
                "WARNING: the RSS prefix was not answered in the window; peak_rss_mb is \
                 read at its end"
                    .to_string(),
            );
        }
    }
    r.note(format!(
        "window {:.1} s: {} sent, {} refused, window fill {:.4}, client CPU {:.2} s, \
         server CPU {:.2} s, server peak RSS {:.1} MiB at the end",
        w.load.window_s,
        w.load.attempted,
        w.load.refused,
        w.load.window_fill,
        w.client_cpu_s,
        w.server_cpu_s,
        w.server_rss_end_mb
    ));
    for class in CLASSES {
        let l = serve::class_latencies_ms(&w.load, class);
        r.note(format!(
            "class {:<6} n={:<7} p50 {:.3} ms  p99 {:.3} ms",
            class.name(),
            l.len(),
            median(&l),
            percentile(&l, 99.0)
        ));
    }
}

fn delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    let get = |v: &Value| {
        let mut cur = v;
        for k in path {
            match cur.get(k) {
                Some(x) => cur = x,
                None => return 0.0,
            }
        }
        cur.as_f64().unwrap_or(0.0)
    };
    get(after) - get(before)
}

/// Per-layer metrics of `serve_mixed`: client, store and memo figures from
/// the untraced window; stage figures from the access log of the traced
/// window.
pub fn serve_layers(
    r: &mut Report,
    untraced: &Window,
    traced: &Window,
    log: &AccessLog,
    replays: &[f64],
) {
    order_dependence(r);
    for (k, name) in STAGES.iter().enumerate() {
        let v = &log.stage_us[k];
        r.set(&format!("serve.{name}.p50_us"), median(v), v.len());
        r.set(
            &format!("serve.{name}.share"),
            rate(v.iter().sum(), log.total_us),
            v.len(),
        );
    }
    r.set(
        "serve.queue.p99_us",
        percentile(&log.stage_us[1], 99.0),
        log.stage_us[1].len(),
    );
    let busy: f64 = log.busy_us.iter().sum();
    let n = log.stage_us[0].len();
    for (k, class) in CLASSES.iter().enumerate() {
        r.set(
            &format!("serve.class.{}.busy_share", class.name()),
            rate(log.busy_us[k], busy),
            n,
        );
    }
    let (b, a) = (&untraced.stats_before, &untraced.stats_after);
    let completed = delta(b, a, &["completed"]);
    let rejected = delta(b, a, &["rejected"]);
    r.set(
        "serve.cpu_us_per_request",
        rate(untraced.server_cpu_s * 1e6, completed),
        completed as usize,
    );
    r.set(
        "serve.rejected_frac",
        rate(rejected, completed + rejected),
        completed as usize,
    );
    for class in [
        serve::Class::Hot,
        serve::Class::Fresh,
        serve::Class::Mc,
        serve::Class::Refine,
    ] {
        let l = serve::class_latencies_ms(&untraced.load, class);
        r.set(
            &format!("client.{}.p50_ms", class.name()),
            median(&l),
            l.len(),
        );
        r.set(
            &format!("client.{}.p99_ms", class.name()),
            percentile(&l, 99.0),
            l.len(),
        );
    }
    let hits = delta(b, a, &["store", "hits"]);
    let misses = delta(b, a, &["store", "misses"]);
    r.set(
        "store.hit_ratio",
        rate(hits, hits + misses),
        (hits + misses) as usize,
    );
    r.set("store.replay_s", median(replays), replays.len());
    let bytes = b
        .get("store")
        .and_then(|s| s.num("persisted_bytes"))
        .unwrap_or(0.0);
    let entries = b.get("store").and_then(|s| s.num("entries")).unwrap_or(0.0);
    r.set(
        "store.bytes_per_record",
        rate(bytes, entries),
        entries as usize,
    );
    r.set("store.appends", delta(b, a, &["store", "inserted"]), 1);
    let (h0, m0) = serve::memo_totals(b);
    let (h1, m1) = serve::memo_totals(a);
    r.set(
        "memo.hit_ratio",
        rate(h1 - h0, (h1 - h0) + (m1 - m0)),
        (h1 - h0 + m1 - m0) as usize,
    );
    r.set(
        "client.cpu_share",
        rate(
            untraced.client_cpu_s,
            untraced.client_cpu_s + untraced.server_cpu_s,
        ),
        1,
    );
    r.set("client.window_fill", untraced.load.window_fill, 1);
    r.set(
        "trace.overhead_frac",
        rate(requests_per_s(untraced), requests_per_s(traced)) - 1.0,
        2,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists match `BENCHMARK.json` at the repository root,
    /// name for name and unit for unit.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let def = Value::parse(&text).expect("valid JSON");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<(String, String)> = def
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }

    #[test]
    fn least_stolen_keeps_the_samples_at_or_below_the_median_steal() {
        let quiet = [0.0, 0.0, 0.0];
        assert_eq!(least_stolen(&quiet, |&x| x).len(), 3);
        let spell = [0.0, 0.2, 0.01, 0.3];
        assert_eq!(least_stolen(&spell, |&x| x), vec![&0.0, &0.01]);
        let odd = [0.05, 0.0, 0.4];
        assert_eq!(least_stolen(&odd, |&x| x), vec![&0.05, &0.0]);
        // Rounding-level differences keep every sample.
        let even = [0.004, 0.0, 0.009, 0.012];
        assert_eq!(least_stolen(&even, |&x| x).len(), 4);
    }

    #[test]
    fn result_line_carries_counts_correctness_and_every_metric() {
        let mut r = Report::new("dse_grid", 1);
        r.attempted = 10;
        r.failed = 2;
        r.mismatched = 2;
        r.set("points_per_s", 123.5, 3);
        let v = Value::parse(&r.result_line(false)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.num("attempted"), Some(10.0));
        assert_eq!(v.num("failed"), Some(2.0));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("points_per_s").and_then(|x| x.num("value")),
            Some(123.5)
        );
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name)
                    .and_then(|x| x.get("unit"))
                    .and_then(Value::as_str),
                Some(unit)
            );
        }
        let traced = Value::parse(&r.result_line(true)).expect("valid JSON");
        let m = traced.get("metrics").expect("metrics");
        assert!(PER_LAYER.iter().all(|(name, _)| m.get(name).is_some()));
        assert!(m.get("points_per_s").is_none());
        // A broken invariant makes the run incorrect.
        r.broken = 1;
        let v = Value::parse(&r.result_line(false)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    }
}
