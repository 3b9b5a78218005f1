//! `serve_mixed`: the `xlda-serve` daemon as an external child process,
//! driven by a closed loop over TCP.
//!
//! Set-up builds a result store from the program under test (a hot set of
//! design points plus filler records), then starts the daemon several
//! times on fresh copies of it: `xlda-serve --listen 127.0.0.1:0 --store
//! <copy>`. Each start is timed from spawn through store replay to the
//! first response. The last daemon serves the load.
//!
//! The load is one generator process that keeps a fixed number of
//! pipelined requests in flight over two connections, one thread each.
//! The loop is closed because design-space exploration loops wait for
//! their replies, and because a closed loop holds steady on a two-core box where
//! an open-loop generator runs late by milliseconds. The seeded mix:
//!
//! - `hot`: repeats of stored points (store hits);
//! - `fresh`: new deterministic points (evaluate and append);
//! - `triage`: new points ranked under an objective;
//! - `refine`: two-by-two grids around a stored point (one lookup, three
//!   evaluations);
//! - `mc`: new Monte-Carlo populations with unique seeds, 3% of requests.
//!   Each takes about seven times the daemon's busy time of a fresh point,
//!   so the class takes about a fifth of it; the traced run measures this
//!   from the access log and prints it as `serve.class.*.busy_share`. At
//!   3% of requests the 99th percentile falls inside this class rather
//!   than on its boundary with the cheap classes.
//!
//! The shares of the other classes are a free choice, not taken from a
//! trace of real use: an exploration session that mostly revisits stored
//! points and adds new ones around them.
//!
//! Every response is checked against the library's own evaluation of the
//! same request: field by field with exact `f64` bits, after the
//! measurement window so the check costs the server nothing. Answers the
//! daemon replays from the store are checked in the generator, whose memo
//! holds the history that computed them at set-up; repeats of a hot point
//! take a byte-compare fast path against the first, fully checked,
//! response for that point. Answers the daemon evaluated are checked by
//! two fresh processes that replay them, one in request order and one in
//! reverse: where the two references differ, the answer depends on
//! evaluation order, and is reported rather than failed.

use crate::check;
use crate::child::ChildArgs;
use crate::grid;
use crate::json::Value;
use crate::stats::Fnv;
use crate::sys;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use xlda_circuit::tech::TechNode;
use xlda_core::evaluate::{Evaluation, HdcScenario, MannScenario, Scenario};
use xlda_core::fom::Candidate;
use xlda_core::mc::{
    CamYieldMcScenario, MannAccuracyMcScenario, McDistribution, McParams, NvmLifetimeMcScenario,
};
use xlda_core::store::ResultStore;
use xlda_core::sweep::SweepOptions;
use xlda_core::triage::{rank, Objective};
use xlda_num::rng::Rng64;

/// Load and store sizes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stored points that `hot`, `refine` requests revisit.
    pub hot: usize,
    /// Extra stored MANN points, so replay has real work.
    pub filler: usize,
    /// Daemon starts per run; set-up is their median.
    pub starts: usize,
    pub connections: usize,
    /// Requests kept in flight per connection.
    pub depth: usize,
    /// Requests `0..digest_requests` whose `hot` and `mc` answers make up
    /// the output digest.
    pub digest_requests: u64,
    /// The daemon's peak RSS is read once requests `0..rss_requests` have
    /// all been answered, so it covers the same work on a faster or slower
    /// build.
    pub rss_requests: u64,
}

/// Both prefixes are a small part of what a 30 s window completes at about
/// 12k requests/s, so a build several times slower still completes them.
pub const FULL: Shape = Shape {
    hot: 2048,
    filler: 30_000,
    starts: 15,
    connections: 2,
    depth: 4,
    digest_requests: 4096,
    rss_requests: 100_000,
};

pub const SMOKE: Shape = Shape {
    hot: 32,
    filler: 64,
    starts: 2,
    connections: 2,
    depth: 2,
    digest_requests: 256,
    rss_requests: 512,
};

/// Request classes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hot,
    Fresh,
    Mc,
    Refine,
    Triage,
}

pub const CLASSES: [Class; 5] = [
    Class::Hot,
    Class::Fresh,
    Class::Mc,
    Class::Refine,
    Class::Triage,
];

impl Class {
    /// Whether some answer of the class comes from the store: a hot point,
    /// or the stored base of a refine grid.
    fn stored(self) -> bool {
        matches!(self, Class::Hot | Class::Refine)
    }

    /// Whether some answer of the class is evaluated by the daemon.
    fn evaluated(self) -> bool {
        self != Class::Hot
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Fresh => "fresh",
            Class::Mc => "mc",
            Class::Refine => "refine",
            Class::Triage => "triage",
        }
    }
}

/// Cumulative shares of the mix, in [`CLASSES`] order.
const MIX: [(Class, f64); 5] = [
    (Class::Hot, 0.60),
    (Class::Fresh, 0.85),
    (Class::Mc, 0.88),
    (Class::Refine, 0.93),
    (Class::Triage, 1.0),
];

/// Trials per Monte-Carlo request of each kind (`cam_yield_mc`, `mann_mc`,
/// `nvm_mc`), balanced to about the same server time each, and sized so
/// the class takes about a fifth of the daemon's busy time
/// (`serve.class.mc.busy_share` of the traced run).
const MC_TRIALS: [usize; 3] = [80, 13, 2000];

const HOT_STREAM: u64 = 0x5E7_0407;
const REQ_STREAM: u64 = 0x5E7_0BEE;
const FILL_STREAM: u64 = 0x5E7_F111;

const TECH_NAMES: [&str; 7] = ["n130", "n90", "n65", "n45", "n40", "n32", "n22"];

fn tech_name(t: &TechNode) -> &'static str {
    let all = TechNode::all();
    TECH_NAMES[all.iter().position(|x| x == t).expect("preset tech node")]
}

/// A stored point.
#[derive(Debug, Clone)]
pub enum Point {
    Hdc(HdcScenario),
    Mann(MannScenario),
}

impl Point {
    fn boxed(&self) -> Box<dyn Scenario> {
        match self {
            Point::Hdc(s) => Box::new(s.clone()),
            Point::Mann(s) => Box::new(s.clone()),
        }
    }
}

fn hdc_spec(s: &HdcScenario) -> String {
    format!(
        "{{\"dim_in\":{},\"classes\":{},\"hv_dim_sw\":{},\"hv_dim_3b\":{},\"hv_dim_2b\":{},\
         \"hv_dim_1b\":{},\"acc_sw\":{},\"acc_3b\":{},\"acc_2b\":{},\"acc_1b\":{},\"acc_mlp\":{},\
         \"tech\":\"{}\"}}",
        s.dim_in,
        s.classes,
        s.hv_dim_sw,
        s.hv_dim_3b,
        s.hv_dim_2b,
        s.hv_dim_1b,
        s.acc_sw,
        s.acc_3b,
        s.acc_2b,
        s.acc_1b,
        s.acc_mlp,
        tech_name(&s.tech)
    )
}

fn mann_spec(s: &MannScenario) -> String {
    format!(
        "{{\"weights\":{},\"emb_dim\":{},\"hash_bits\":{},\"entries\":{},\"acc_software\":{},\
         \"acc_rram\":{},\"tech\":\"{}\"}}",
        s.weights,
        s.emb_dim,
        s.hash_bits,
        s.entries,
        s.acc_software,
        s.acc_rram,
        tech_name(&s.tech)
    )
}

fn point_body(p: &Point) -> String {
    match p {
        Point::Hdc(s) => format!("\"kind\":\"hdc\",\"scenario\":{}", hdc_spec(s)),
        Point::Mann(s) => format!("\"kind\":\"mann\",\"scenario\":{}", mann_spec(s)),
    }
}

/// A fresh point: three HDC points for every MANN point.
fn fresh_point(rng: &mut Rng64, techs: &[TechNode]) -> Point {
    if rng.below(4) == 0 {
        Point::Mann(grid::mann_point(rng, techs))
    } else {
        Point::Hdc(grid::hdc_point(rng, techs))
    }
}

/// The hot set: a pure function of the seed.
pub fn hot_set(seed: u64, shape: &Shape) -> Vec<Point> {
    let techs = TechNode::all();
    (0..shape.hot)
        .map(|h| fresh_point(&mut Rng64::for_trial(seed ^ HOT_STREAM, h as u64), &techs))
        .collect()
}

/// What a request must be answered with.
pub enum Spec {
    Eval {
        scenario: Box<dyn Scenario>,
        objective: Option<Objective>,
    },
    Refine(Vec<Box<dyn Scenario>>),
}

/// One request of the seeded stream.
pub struct Request {
    pub class: Class,
    /// The frame without its `"id"` member.
    pub body: String,
    /// Index into the hot set, for `hot` requests.
    pub hot: Option<usize>,
    /// Design points the answer covers.
    pub points: u64,
    pub spec: Spec,
}

/// A request's class: the first draw of its stream.
fn draw_class(rng: &mut Rng64) -> Class {
    let u = rng.uniform();
    MIX.iter()
        .find(|&&(_, cum)| u < cum)
        .map_or(Class::Triage, |&(c, _)| c)
}

/// The class of request `i`, without building the request.
pub fn class_of(seed: u64, i: u64) -> Class {
    draw_class(&mut Rng64::for_trial(seed ^ REQ_STREAM, i))
}

/// Request `i` of the stream: a pure function of `(seed, i)` and the hot
/// set, whichever connection sends it.
pub fn request(seed: u64, i: u64, hot: &[Point]) -> Request {
    let techs = TechNode::all();
    let mut rng = Rng64::for_trial(seed ^ REQ_STREAM, i);
    let class = draw_class(&mut rng);
    match class {
        Class::Hot => {
            let h = rng.below(hot.len() as u64) as usize;
            Request {
                class,
                body: point_body(&hot[h]),
                hot: Some(h),
                points: 1,
                spec: Spec::Eval {
                    scenario: hot[h].boxed(),
                    objective: None,
                },
            }
        }
        Class::Fresh => {
            let p = fresh_point(&mut rng, &techs);
            Request {
                class,
                body: point_body(&p),
                hot: None,
                points: 1,
                spec: Spec::Eval {
                    scenario: p.boxed(),
                    objective: None,
                },
            }
        }
        Class::Triage => {
            let s = grid::hdc_point(&mut rng, &techs);
            let (name, objective) = if rng.below(2) == 0 {
                ("latency_first", Objective::latency_first(Some(0.9)))
            } else {
                ("energy_first", Objective::energy_first(Some(0.9)))
            };
            Request {
                class,
                body: format!(
                    "\"kind\":\"triage\",\"objective\":\"{name}\",\"floor\":0.9,\"scenario\":{}",
                    hdc_spec(&s)
                ),
                hot: None,
                points: 1,
                spec: Spec::Eval {
                    scenario: Box::new(s),
                    objective: Some(objective),
                },
            }
        }
        Class::Refine => {
            // A stored HDC point and three neighbours: another accuracy
            // and another node.
            let base = loop {
                if let Point::Hdc(s) = &hot[rng.below(hot.len() as u64) as usize] {
                    break s.clone();
                }
            };
            let acc = rng.uniform_in(0.85, 0.97);
            let t0 = tech_name(&base.tech);
            let t1 = loop {
                let t = TECH_NAMES[rng.below(7) as usize];
                if t != t0 {
                    break t;
                }
            };
            let body = format!(
                "\"kind\":\"refine\",\"base\":\"hdc\",\"scenario\":{},\
                 \"grid\":{{\"acc_sw\":[{},{}],\"tech\":[\"{t0}\",\"{t1}\"]}}",
                hdc_spec(&base),
                base.acc_sw,
                acc
            );
            // Grid points in the daemon's expansion order: the first axis
            // varies fastest.
            let points = (0..4)
                .map(|k| {
                    let mut s = base.clone();
                    if k % 2 == 1 {
                        s.acc_sw = acc;
                    }
                    if k / 2 == 1 {
                        s.tech =
                            techs[TECH_NAMES.iter().position(|&n| n == t1).expect("node")].clone();
                    }
                    Box::new(s) as Box<dyn Scenario>
                })
                .collect();
            Request {
                class,
                body,
                hot: None,
                points: 4,
                spec: Spec::Refine(points),
            }
        }
        Class::Mc => {
            let kind = rng.below(3) as usize;
            let mc = McParams {
                trials: MC_TRIALS[kind],
                // The wire protocol carries seeds up to 2^32 - 1.
                seed: rng.below(1 << 32),
                ..McParams::default()
            };
            let (body, scenario): (String, Box<dyn Scenario>) = match kind {
                0 => {
                    let s = CamYieldMcScenario {
                        mc,
                        cells: 64 << rng.below(3),
                        mismatches: 1 + rng.below(8) as usize,
                        ..CamYieldMcScenario::default()
                    };
                    (
                        format!(
                            "\"kind\":\"cam_yield_mc\",\"scenario\":{{\"trials\":{},\"seed\":{},\
                             \"cells\":{},\"mismatches\":{}}}",
                            mc.trials, mc.seed, s.cells, s.mismatches
                        ),
                        Box::new(s),
                    )
                }
                1 => {
                    let s = MannAccuracyMcScenario {
                        mc,
                        hash_bits: 64 << rng.below(3),
                        relax_decades: rng.uniform_in(0.0, 4.0),
                        ..MannAccuracyMcScenario::default()
                    };
                    (
                        format!(
                            "\"kind\":\"mann_mc\",\"scenario\":{{\"trials\":{},\"seed\":{},\
                             \"hash_bits\":{},\"relax_decades\":{}}}",
                            mc.trials, mc.seed, s.hash_bits, s.relax_decades
                        ),
                        Box::new(s),
                    )
                }
                _ => {
                    let s = NvmLifetimeMcScenario {
                        mc,
                        vth_bits: 1 + rng.below(4) as u8,
                        vth_sigma: rng.uniform_in(0.05, 0.15),
                        ..NvmLifetimeMcScenario::default()
                    };
                    (
                        format!(
                            "\"kind\":\"nvm_mc\",\"scenario\":{{\"trials\":{},\"seed\":{},\
                             \"vth_bits\":{},\"vth_sigma\":{}}}",
                            mc.trials, mc.seed, s.vth_bits, s.vth_sigma
                        ),
                        Box::new(s),
                    )
                }
            };
            Request {
                class,
                body,
                hot: None,
                points: 1,
                spec: Spec::Eval {
                    scenario,
                    objective: None,
                },
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Output check.
// ---------------------------------------------------------------------------

/// Which answers of a response one check compares with the library's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Answers the daemon replays from the store: hot points and the base
    /// of a refine grid, with every refine point's digest and status.
    Stored,
    /// Answers the daemon evaluates: fresh, triage and Monte-Carlo points
    /// and the other points of a refine grid.
    Evaluated,
}

/// Outcome of checking one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical to the library's answer (or the same infeasible
    /// error).
    Ok,
    /// The operation errored or panicked (also per the library).
    Errored,
    /// Well-formed, but some value differs from the library's bits.
    Mismatch,
    /// Unparseable, or a field, name or count differs from the library's
    /// answer: an invariant of the response is broken.
    Malformed,
}

impl Verdict {
    fn from_byte(b: u8) -> Verdict {
        match b {
            0 => Verdict::Ok,
            1 => Verdict::Errored,
            2 => Verdict::Mismatch,
            _ => Verdict::Malformed,
        }
    }
}

/// Accumulates structural and value differences.
#[derive(Default)]
struct Cmp {
    malformed: bool,
    mismatch: bool,
    /// Digest of the library's answer, as far as it was compared.
    want: Fnv,
}

impl Cmp {
    fn shape(&mut self, ok: bool) -> bool {
        self.malformed |= !ok;
        ok
    }

    fn bits(&mut self, v: Option<&Value>, want: f64) {
        self.want.f64(want);
        match v.and_then(Value::as_f64) {
            Some(x) => self.mismatch |= x.to_bits() != want.to_bits(),
            None => self.malformed = true,
        }
    }

    fn text(&mut self, v: Option<&Value>, want: &str) {
        self.want.str(want);
        self.shape(v.and_then(Value::as_str) == Some(want));
    }

    fn verdict(&self) -> Verdict {
        if self.malformed {
            Verdict::Malformed
        } else if self.mismatch {
            Verdict::Mismatch
        } else {
            Verdict::Ok
        }
    }

    fn candidates(&mut self, got: Option<&Value>, want: &[Candidate]) {
        self.want.u64(want.len() as u64);
        let Some(got) = got.and_then(Value::as_arr) else {
            self.malformed = true;
            return;
        };
        if !self.shape(got.len() == want.len()) {
            return;
        }
        for (g, c) in got.iter().zip(want) {
            self.text(g.get("name"), &c.name);
            self.bits(g.get("latency_s"), c.fom.latency_s);
            self.bits(g.get("energy_j"), c.fom.energy_j);
            self.bits(g.get("area_mm2"), c.fom.area_mm2);
            self.bits(g.get("accuracy"), c.fom.accuracy);
        }
    }

    fn distributions(&mut self, got: Option<&Value>, want: &[McDistribution]) {
        self.want.u64(want.len() as u64);
        if want.is_empty() {
            self.shape(got.is_none());
            return;
        }
        let Some(got) = got.and_then(Value::as_arr) else {
            self.malformed = true;
            return;
        };
        if !self.shape(got.len() == want.len()) {
            return;
        }
        for (g, d) in got.iter().zip(want) {
            let s = &d.summary;
            self.text(g.get("name"), d.name);
            self.text(g.get("unit"), d.unit);
            self.text(g.get("criterion"), d.criterion);
            self.bits(g.get("trials"), s.trials as f64);
            self.bits(g.get("nan_count"), s.nan_count as f64);
            for (k, v) in [
                ("mean", s.mean),
                ("std_dev", s.std_dev),
                ("min", s.min),
                ("max", s.max),
                ("p5", s.p5),
                ("p50", s.p50),
                ("p95", s.p95),
                ("yield_fraction", d.yield_fraction),
            ] {
                self.bits(g.get(k), v);
            }
            self.want.u64(d.checksum);
            match g.get("checksum").and_then(Value::as_str) {
                Some(hex) => self.mismatch |= hex != format!("{:016x}", d.checksum),
                None => self.malformed = true,
            }
        }
    }

    fn evaluation(&mut self, resp: &Value, ev: &Evaluation) {
        self.candidates(resp.get("candidates"), &ev.candidates);
        self.distributions(resp.get("distributions"), &ev.distributions);
    }
}

/// Checks the `part` answers of `line` against the library's answer to
/// `spec`, and returns the verdict with a digest of the library's answer.
/// A typed infeasible error is a correct answer when the library gives
/// the same one.
pub fn check_response(line: &str, spec: &Spec, part: Part) -> (Verdict, u64) {
    let mut cmp = Cmp::default();
    let verdict = compare(line, spec, part, &mut cmp);
    (verdict, cmp.want.0)
}

fn compare(line: &str, spec: &Spec, part: Part, cmp: &mut Cmp) -> Verdict {
    let Ok(resp) = Value::parse(line) else {
        return Verdict::Malformed;
    };
    let ok = resp.get("ok").and_then(Value::as_bool) == Some(true);
    match spec {
        Spec::Eval {
            scenario,
            objective,
        } => match scenario.evaluate() {
            Err(e) if !e.is_infeasible() => return Verdict::Errored,
            Err(e) => {
                let msg = e.to_string();
                cmp.want.str(&msg);
                if ok {
                    return Verdict::Mismatch;
                }
                cmp.text(resp.get("code"), "infeasible");
                cmp.text(resp.get("error"), &msg);
            }
            Ok(ev) => {
                if !ok {
                    return Verdict::Errored;
                }
                cmp.evaluation(&resp, &ev);
                match objective {
                    None => {
                        cmp.shape(resp.get("ranking").is_none());
                    }
                    Some(obj) => {
                        let want = rank(&ev.candidates, obj);
                        match resp.get("ranking").and_then(Value::as_arr) {
                            Some(got) if got.len() == want.len() => {
                                for (g, r) in got.iter().zip(&want) {
                                    cmp.text(g.get("name"), &r.name);
                                    cmp.bits(g.get("score"), r.score);
                                    cmp.shape(
                                        g.get("meets_floor").and_then(Value::as_bool)
                                            == Some(r.meets_floor),
                                    );
                                }
                            }
                            _ => cmp.malformed = true,
                        }
                    }
                }
            }
        },
        Spec::Refine(points) => {
            if !ok {
                return Verdict::Errored;
            }
            match resp.get("points").and_then(Value::as_arr) {
                Some(got) if got.len() == points.len() => {
                    for (k, (g, s)) in got.iter().zip(points).enumerate() {
                        if part == Part::Stored {
                            let digest = s.store_key().map(|d| d.to_hex()).unwrap_or_default();
                            cmp.text(g.get("digest"), &digest);
                            cmp.shape(matches!(
                                g.get("status").and_then(Value::as_str),
                                Some("cached" | "evaluated")
                            ));
                        }
                        // Point 0 is the stored base; the daemon evaluates
                        // the others.
                        if (k == 0) != (part == Part::Stored) {
                            continue;
                        }
                        let Ok(ev) = s.evaluate() else {
                            return Verdict::Errored;
                        };
                        cmp.evaluation(g, &ev);
                    }
                }
                _ => cmp.malformed = true,
            }
        }
    }
    cmp.verdict()
}

/// The response after its `"id"` member: identical bytes for identical
/// answers to different request ids.
fn body_after_id(line: &str) -> &str {
    line.strip_prefix("{\"id\":\"")
        .and_then(|rest| rest.find('"').map(|q| &rest[q + 1..]))
        .unwrap_or(line)
}

fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    rest[..rest.find('"')?].parse().ok()
}

// ---------------------------------------------------------------------------
// The daemon.
// ---------------------------------------------------------------------------

/// A running `xlda-serve` child.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Spawn to "records recovered" on stderr: process start plus store
    /// replay.
    pub replay_s: f64,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Starts the daemon and times spawn → replay → first response to
    /// `probe`. Returns the daemon and that set-up time.
    pub fn start(
        bin: &Path,
        store: &Path,
        log: Option<&Path>,
        probe: &str,
    ) -> Result<(Daemon, f64), String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(p) = log {
            cmd.arg("--access-log").arg(p);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel::<(String, Instant)>();
        let pump = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("listening on") || line.contains("records recovered") {
                    let _ = tx.send((line, Instant::now()));
                } else {
                    eprintln!("{line}");
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            replay_s: 0.0,
            stderr: Some(pump),
        };
        while daemon.addr.is_empty() {
            let (line, at) = rx
                .recv_timeout(Duration::from_secs(60))
                .map_err(|_| "xlda-serve did not start listening".to_string())?;
            if line.contains("records recovered") {
                daemon.replay_s = (at - t0).as_secs_f64();
            } else if let Some(addr) = line.split("listening on ").nth(1) {
                daemon.addr = addr.trim().to_string();
            }
        }
        let reply = daemon.exchange(&format!("{{\"id\":\"setup\",{probe}}}"))?;
        let setup = t0.elapsed().as_secs_f64();
        if !reply.contains("\"ok\":true") {
            return Err(format!("set-up probe failed: {reply}"));
        }
        Ok((daemon, setup))
    }

    /// One request on a fresh connection.
    pub fn exchange(&self, frame: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = s.set_nodelay(true);
        s.write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        Ok(line.trim_end().to_string())
    }

    pub fn stats(&self) -> Result<Value, String> {
        Value::parse(&self.exchange("{\"id\":\"stats\",\"kind\":\"stats\"}")?)
    }

    /// Graceful shutdown; kills the process if it has not exited within
    /// ten seconds. Waits for it either way.
    pub fn stop(mut self) {
        let _ = self.exchange("{\"id\":\"bye\",\"kind\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(pump) = self.stderr.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Builds the base store the daemons replay: the hot set plus filler MANN
/// points, evaluated by the program under test through `ResultStore`.
pub fn build_store(path: &Path, seed: u64, hot: &[Point], shape: &Shape) -> Result<(), String> {
    let store = ResultStore::open(path).map_err(|e| format!("open store: {e}"))?;
    let techs = TechNode::all();
    let mut rng = Rng64::new(seed ^ FILL_STREAM);
    let filler: Vec<MannScenario> = (0..shape.filler)
        .map(|_| grid::mann_point(&mut rng, &techs))
        .collect();
    let boxed: Vec<Box<dyn Scenario>> = hot.iter().map(Point::boxed).collect();
    // One thread: the stored bits, which every hot answer repeats, are
    // then the same on every run of a seed.
    let opts = SweepOptions::builder().threads(1).build();
    let failed = store
        .sweep(&boxed, &opts)
        .iter()
        .filter(|r| r.is_err())
        .count()
        + store
            .sweep(&filler, &opts)
            .iter()
            .filter(|r| r.is_err())
            .count();
    store.flush();
    if failed > 0 {
        eprintln!("store set-up: {failed} points did not evaluate (not stored)");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------------

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub latency_s: f64,
    /// Completion time, seconds after the window opened.
    pub done_s: f64,
    pub points: u64,
}

/// What the loop observed.
#[derive(Default)]
pub struct LoadResult {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Transport failures and refused requests.
    pub failed: u64,
    pub refused: u64,
    /// Responses left for the output check: `(request index, line)`.
    pub to_check: Vec<(u64, String)>,
    /// Byte-identical repeats of each checked hot response, by request
    /// index of the checked one.
    pub repeats: HashMap<u64, u64>,
    /// Share of slot time the client kept a request outstanding: one minus
    /// the time slots stood empty between reading a response and sending
    /// its replacement, over slots times the window.
    pub window_fill: f64,
    pub window_s: f64,
    /// Digest of the `hot` and `mc` answers to requests
    /// `0..digest_requests`, in request order; `None` when some of them
    /// went unanswered. Only these two classes have answers that do not
    /// depend on what the daemon evaluated before: a hot answer repeats
    /// the stored record, a Monte-Carlo answer comes from its own trial
    /// streams.
    pub digest: Option<u64>,
    /// The daemon's peak RSS, MiB, read when requests `0..rss_requests`
    /// had all been answered; `None` when some of them were not.
    pub rss_at_prefix_mb: Option<f64>,
    /// The box's CPU ticks ([`sys::box_ticks`]) at every [`SLICE_S`]
    /// boundary of the window, from its start.
    pub ticks: Vec<Option<(u64, u64)>>,
}

/// Length of the slices a window is cut into, seconds.
pub const SLICE_S: f64 = 1.0;

/// Shared by the connections: counts answers within the fixed prefix and
/// reads the daemon's peak RSS when the last of them arrives.
struct RssProbe {
    pid: u32,
    upto: u64,
    answered: AtomicU64,
    /// `f64` bits of the reading in MiB; 0 until it is taken.
    mib: AtomicU64,
}

impl RssProbe {
    fn answered(&self, i: u64) {
        if i < self.upto && self.answered.fetch_add(1, Ordering::Relaxed) + 1 == self.upto {
            let mib = sys::peak_rss_mib(Some(self.pid)).unwrap_or(0.0);
            self.mib.store(mib.to_bits(), Ordering::Relaxed);
        }
    }

    fn reading(&self) -> Option<f64> {
        Some(f64::from_bits(self.mib.load(Ordering::Relaxed))).filter(|&m| m > 0.0)
    }
}

struct Conn {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    refused: u64,
    to_check: Vec<(u64, String)>,
    /// Hot point → (request index of its checked response, body).
    first: HashMap<usize, (u64, String)>,
    repeats: HashMap<u64, u64>,
    /// Seconds slots stood empty between a response and its replacement.
    empty_s: f64,
    /// Bodies of the digested answers (see [`LoadResult::digest`]).
    digested: Vec<(u64, String)>,
}

/// What the connections of one closed loop share.
struct Loop<'a> {
    addr: &'a str,
    seed: u64,
    hot: &'a [Point],
    shape: &'a Shape,
    /// Index of the next request to send.
    next: AtomicU64,
    rss: RssProbe,
    start: Instant,
    window: Duration,
}

fn drive(l: &Loop) -> Conn {
    let mut c = Conn {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        refused: 0,
        to_check: Vec::new(),
        first: HashMap::new(),
        repeats: HashMap::new(),
        empty_s: 0.0,
        digested: Vec::new(),
    };
    let Ok(mut stream) = TcpStream::connect(l.addr) else {
        c.failed += 1;
        return c;
    };
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        c.failed += 1;
        return c;
    };
    let mut reader = BufReader::new(read_half);
    let end = l.start + l.window;
    let mut inflight: HashMap<u64, (Instant, Class, Option<usize>, u64)> = HashMap::new();
    let mut freed: Vec<Instant> = Vec::new();
    let mut line = String::new();
    let mut frame = String::new();
    loop {
        let now = Instant::now();
        if now < end {
            while inflight.len() < l.shape.depth {
                let i = l.next.fetch_add(1, Ordering::Relaxed);
                let req = request(l.seed, i, l.hot);
                frame.clear();
                frame.push_str("{\"id\":\"");
                frame.push_str(&i.to_string());
                frame.push_str("\",");
                frame.push_str(&req.body);
                frame.push_str("}\n");
                c.attempted += 1;
                if stream.write_all(frame.as_bytes()).is_err() {
                    c.failed += 1;
                    continue;
                }
                let sent = Instant::now();
                if let Some(t) = freed.pop() {
                    c.empty_s += (sent - t).as_secs_f64();
                }
                inflight.insert(i, (sent, req.class, req.hot, req.points));
            }
        }
        if inflight.is_empty() {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                c.failed += inflight.len() as u64;
                break;
            }
        }
        let done = Instant::now();
        if done < end {
            freed.push(done);
        }
        let text = line.trim_end();
        let Some((i, (sent, class, hot_idx, points))) =
            response_id(text).and_then(|i| inflight.remove(&i).map(|v| (i, v)))
        else {
            c.failed += 1;
            continue;
        };
        if text.contains("\"retry_after_ms\"") {
            c.refused += 1;
            c.failed += 1;
            continue;
        }
        l.rss.answered(i);
        c.samples.push(Sample {
            class,
            latency_s: (done - sent).as_secs_f64(),
            done_s: (done - l.start).as_secs_f64(),
            points,
        });
        if i < l.shape.digest_requests && matches!(class, Class::Hot | Class::Mc) {
            c.digested.push((i, body_after_id(text).to_string()));
        }
        match hot_idx {
            Some(h) => {
                let body = body_after_id(text);
                match c.first.get(&h) {
                    Some((first_i, first_body)) if first_body == body => {
                        *c.repeats.entry(*first_i).or_insert(0) += 1;
                    }
                    Some(_) => c.to_check.push((i, text.to_string())),
                    None => {
                        c.first.insert(h, (i, body.to_string()));
                        c.to_check.push((i, text.to_string()));
                    }
                }
            }
            None => c.to_check.push((i, text.to_string())),
        }
    }
    c
}

/// Runs the closed loop against daemon `d` for `window`.
fn run_load(d: &Daemon, seed: u64, hot: &[Point], shape: &Shape, window: Duration) -> LoadResult {
    let l = Loop {
        addr: &d.addr,
        seed,
        hot,
        shape,
        next: AtomicU64::new(0),
        rss: RssProbe {
            pid: d.pid(),
            upto: shape.rss_requests,
            answered: AtomicU64::new(0),
            mib: AtomicU64::new(0),
        },
        start: Instant::now(),
        window,
    };
    let (conns, ticks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let slices = (window.as_secs_f64() / SLICE_S).floor() as u32;
            (0..=slices)
                .map(|k| {
                    let at = l.start + Duration::from_secs_f64(f64::from(k) * SLICE_S);
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    sys::box_ticks()
                })
                .collect::<Vec<_>>()
        });
        let handles: Vec<_> = (0..shape.connections)
            .map(|_| scope.spawn(|| drive(&l)))
            .collect();
        let conns: Vec<Conn> = handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect();
        (conns, sampler.join().expect("tick sampler panicked"))
    });
    let mut r = LoadResult {
        window_s: window.as_secs_f64(),
        rss_at_prefix_mb: l.rss.reading(),
        ticks,
        ..LoadResult::default()
    };
    let mut empty = 0.0;
    let mut digested = Vec::new();
    for c in conns {
        r.samples.extend(c.samples);
        r.attempted += c.attempted;
        r.failed += c.failed;
        r.refused += c.refused;
        r.to_check.extend(c.to_check);
        r.repeats.extend(c.repeats);
        empty += c.empty_s;
        digested.extend(c.digested);
    }
    r.window_fill = 1.0 - empty / (r.window_s * (shape.connections * shape.depth) as f64);
    digested.sort_by_key(|(i, _)| *i);
    let expected = (0..shape.digest_requests)
        .filter(|&i| matches!(class_of(seed, i), Class::Hot | Class::Mc))
        .count();
    if digested.len() == expected {
        let mut h = Fnv::default();
        for (i, body) in &digested {
            h.u64(*i).str(body);
        }
        r.digest = Some(h.0);
    }
    r
}

/// Verdict counts of a window's output check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    pub errored: u64,
    pub mismatch: u64,
    pub malformed: u64,
    /// Responses whose request-order and reverse-order references differ:
    /// the answer depends on what the process evaluated before.
    pub order_dependent: u64,
    /// Of those, answers that differ from the request-order reference. Not
    /// counted as failures.
    pub history: u64,
}

impl Checked {
    /// Counts `n` responses with `verdict`; `ordered` marks an answer that
    /// depends on evaluation order.
    fn add(&mut self, verdict: Verdict, ordered: bool, n: u64) {
        self.order_dependent += u64::from(ordered) * n;
        match verdict {
            Verdict::Ok => {}
            Verdict::Errored => self.errored += n,
            Verdict::Mismatch if ordered => self.history += n,
            Verdict::Mismatch => self.mismatch += n,
            Verdict::Malformed => self.malformed += n,
        }
    }

    fn failures(&self) -> u64 {
        self.errored + self.mismatch + self.malformed
    }
}

/// Checks every response left for the output check. Stored answers are
/// checked here: the generator's memo holds the set-up history that
/// computed them, and a hot answer's byte-identical repeats share its
/// verdict. Evaluated answers go to two [`replay`] processes, one fed in
/// request order and one in reverse, run side by side. The daemon's memo,
/// like theirs, holds only what it evaluated, and it evaluated the
/// requests in about request order.
pub fn check_load(
    r: &LoadResult,
    seed: u64,
    hot: &[Point],
    work: &Path,
    smoke: bool,
) -> Result<Checked, String> {
    let mut c = Checked::default();
    let show = |c: &Checked, verdict: Verdict, i: u64, line: &str| {
        if verdict != Verdict::Ok && c.failures() < 3 {
            let shown: String = line.chars().take(240).collect();
            eprintln!(
                "output check: {verdict:?} for request {i} {{{}}}: {shown}...",
                request(seed, i, hot).body
            );
        }
    };
    let mut evaluated: Vec<&(u64, String)> = Vec::new();
    // Verdicts on the stored part of refine grids, by request index.
    let mut grids: HashMap<u64, Verdict> = HashMap::new();
    for entry in &r.to_check {
        let (i, line) = entry;
        let class = class_of(seed, *i);
        if class.evaluated() {
            evaluated.push(entry);
        }
        if class.stored() {
            let (verdict, _) = check_response(line, &request(seed, *i, hot).spec, Part::Stored);
            if class.evaluated() {
                // A refine grid is counted once, with its evaluated points.
                grids.insert(*i, verdict);
            } else {
                show(&c, verdict, *i, line);
                c.add(verdict, false, 1 + r.repeats.get(i).copied().unwrap_or(0));
            }
        }
    }
    evaluated.sort_by_key(|(i, _)| *i);
    let (fwd, rev) = std::thread::scope(|scope| {
        let rev = scope.spawn(|| run_replay(&evaluated, seed, work, "rr", true, smoke));
        let fwd = run_replay(&evaluated, seed, work, "rf", false, smoke);
        (fwd, rev.join().expect("replay thread panicked"))
    });
    let (fwd, rev) = (fwd?, rev?);
    for (((i, line), (verdict, want)), (_, other)) in evaluated.iter().zip(fwd).zip(rev) {
        // A failed stored part decides a grid's verdict, whatever the
        // order of evaluation.
        let (verdict, ordered) = match grids.get(i) {
            Some(&v) if v != Verdict::Ok => (v, false),
            _ => (verdict, want != other),
        };
        if !ordered {
            show(&c, verdict, *i, line);
        }
        c.add(verdict, ordered, 1);
    }
    Ok(c)
}

/// Feeds `lines` (sorted by request index) to a [`replay`] process, in
/// that order or reversed, waits for it, and returns its verdict and
/// reference digest for each line, in `lines` order.
fn run_replay(
    lines: &[&(u64, String)],
    seed: u64,
    work: &Path,
    tag: &str,
    reverse: bool,
    smoke: bool,
) -> Result<Vec<(Verdict, u64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "serve_replay", "--seed", &seed.to_string()])
        .arg("--work")
        .arg(work)
        .args(["--tag", tag])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn replay: {e}"))?;
    let mut stdin = std::io::BufWriter::new(child.stdin.take().expect("piped stdin"));
    let fed = check::order(lines.len(), reverse)
        .try_for_each(|k| writeln!(stdin, "{}\t{}", lines[k].0, lines[k].1))
        .and_then(|()| stdin.flush());
    drop(stdin);
    let status = child.wait().map_err(|e| format!("wait for replay: {e}"))?;
    fed.map_err(|e| format!("feed replay {tag}: {e}"))?;
    if !status.success() {
        return Err(format!("replay {tag} exited with {status}"));
    }
    let path = work.join(format!("{tag}.rpl"));
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let got: HashMap<u64, (Verdict, u64)> = bytes
        .chunks_exact(17)
        .map(|r| {
            let word = |at: usize| u64::from_le_bytes(r[at..at + 8].try_into().expect("8 bytes"));
            (word(0), (Verdict::from_byte(r[8]), word(9)))
        })
        .collect();
    lines
        .iter()
        .map(|(i, _)| got.get(i).copied())
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("replay {tag} skipped a response"))
}

/// A replay pass (`--child serve_replay`): reads `index<TAB>response`
/// lines from standard input and checks the evaluated answers of each, in
/// the order given, against this fresh process's own library evaluation.
/// Writes one record per line to `<tag>.rpl` in the work directory: the
/// request index, the verdict, and the digest of the library's answer.
pub fn replay(args: &ChildArgs, shape: &Shape) -> Result<(), String> {
    let hot = hot_set(args.seed, shape);
    let mut out = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("replay input: {e}"))?;
        let (i, resp) = line
            .split_once('\t')
            .and_then(|(i, resp)| Some((i.parse::<u64>().ok()?, resp)))
            .ok_or("replay input: malformed line")?;
        let (verdict, want) =
            check_response(resp, &request(args.seed, i, &hot).spec, Part::Evaluated);
        out.extend_from_slice(&i.to_le_bytes());
        out.push(verdict as u8);
        out.extend_from_slice(&want.to_le_bytes());
    }
    let path = args.work.join(format!("{}.rpl", args.tag));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Per-class latencies in milliseconds, over all completed requests.
pub fn class_latencies_ms(r: &LoadResult, class: Class) -> Vec<f64> {
    r.samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.latency_s * 1e3)
        .collect()
}

/// What the wide-event access log of a traced window shows.
pub struct AccessLog {
    /// Per-request duration of each stage, microseconds, in [`STAGES`]
    /// order.
    pub stage_us: Vec<Vec<f64>>,
    /// Summed request time, microseconds.
    pub total_us: f64,
    /// Server busy time summed per request class, microseconds, in
    /// [`CLASSES`] order: the decode, eval and write stages, which do a
    /// request's work, and not the queue and batch stages, which wait for
    /// other requests.
    pub busy_us: [f64; 5],
}

/// Reads the access log of a window driven with `seed`; a line's request
/// id gives its class.
pub fn read_access_log(path: &Path, seed: u64) -> Result<AccessLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read access log: {e}"))?;
    let mut log = AccessLog {
        stage_us: vec![Vec::new(); STAGES.len()],
        total_us: 0.0,
        busy_us: [0.0; 5],
    };
    for line in text.lines() {
        let Ok(v) = Value::parse(line) else {
            continue;
        };
        let (Some(st), Some(total)) = (v.get("stages_ns"), v.num("total_ns")) else {
            continue;
        };
        log.total_us += total / 1e3;
        let us: Vec<f64> = STAGES
            .iter()
            .map(|name| st.num(name).unwrap_or(0.0) / 1e3)
            .collect();
        for (k, x) in us.iter().enumerate() {
            log.stage_us[k].push(*x);
        }
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .and_then(|i| i.parse().ok());
        if let Some(i) = id {
            let class = class_of(seed, i);
            let k = CLASSES.iter().position(|&c| c == class).expect("class");
            log.busy_us[k] += us[0] + us[3] + us[4];
        }
    }
    Ok(log)
}

/// The daemon's request stages, in order.
pub const STAGES: [&str; 5] = ["decode", "queue", "batch", "eval", "write"];

/// Sum over the `caches` array of a stats response.
pub fn memo_totals(stats: &Value) -> (f64, f64) {
    let mut hits = 0.0;
    let mut misses = 0.0;
    for c in stats.get("caches").and_then(Value::as_arr).unwrap_or(&[]) {
        hits += c.num("hits").unwrap_or(0.0);
        misses += c.num("misses").unwrap_or(0.0);
    }
    (hits, misses)
}

/// Copies the base store for one daemon start.
pub fn store_copy(base: &Path, work: &Path, k: usize) -> Result<PathBuf, String> {
    let p = work.join(format!("daemon{k}.store"));
    std::fs::copy(base, &p).map_err(|e| format!("copy store: {e}"))?;
    Ok(p)
}

/// The set-up probe: a request for the first stored point.
pub fn probe_body(hot: &[Point]) -> String {
    point_body(&hot[0])
}

/// One measurement window against a started daemon, which is stopped at
/// the end.
pub struct Window {
    pub load: LoadResult,
    pub stats_before: Value,
    pub stats_after: Value,
    /// CPU seconds of the daemon and of this process over the window.
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    /// The daemon's high-water RSS at the end of the window, MiB.
    pub server_rss_end_mb: f64,
}

pub fn measure_window(
    d: Daemon,
    hot: &[Point],
    seed: u64,
    shape: &Shape,
    seconds: f64,
) -> Result<Window, String> {
    let pid = Some(d.pid());
    let stats_before = d.stats()?;
    let (c0, s0) = (sys::cpu_seconds(None), sys::cpu_seconds(pid));
    let load = run_load(&d, seed, hot, shape, Duration::from_secs_f64(seconds));
    let (c1, s1) = (sys::cpu_seconds(None), sys::cpu_seconds(pid));
    let stats_after = d.stats()?;
    let server_rss_end_mb = sys::peak_rss_mib(pid).unwrap_or(0.0);
    d.stop();
    let delta = |a: Option<f64>, b: Option<f64>| b.zip(a).map_or(0.0, |(b, a)| b - a);
    Ok(Window {
        load,
        stats_before,
        stats_after,
        server_cpu_s: delta(s0, s1),
        client_cpu_s: delta(c0, c1),
        server_rss_end_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_per_seed_and_differ_across_seeds() {
        let hot = hot_set(3, &SMOKE);
        let a: Vec<String> = (0..200).map(|i| request(3, i, &hot).body).collect();
        let b: Vec<String> = (0..200).map(|i| request(3, i, &hot).body).collect();
        assert_eq!(a, b);
        let hot4 = hot_set(4, &SMOKE);
        let c: Vec<String> = (0..200).map(|i| request(4, i, &hot4).body).collect();
        assert_ne!(a, c);
        for class in CLASSES {
            assert!(
                (0..2000).any(|i| request(3, i, &hot).class == class),
                "{} never drawn",
                class.name()
            );
        }
    }

    #[test]
    fn response_ids_and_bodies_split() {
        let line = r#"{"id":"42","ok":true,"kind":"hdc","candidates":[]}"#;
        assert_eq!(response_id(line), Some(42));
        assert_eq!(
            body_after_id(line),
            r#","ok":true,"kind":"hdc","candidates":[]}"#
        );
    }

    #[test]
    fn check_catches_a_flipped_bit_in_a_response() {
        let s = HdcScenario::default();
        let ev = s.evaluate().unwrap();
        let mut line = String::from("{\"id\":\"1\",\"ok\":true,\"kind\":\"hdc\",\"candidates\":[");
        for (k, c) in ev.candidates.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"name\":\"{}\",\"latency_s\":{},\"energy_j\":{},\"area_mm2\":{},\"accuracy\":{}}}",
                c.name, c.fom.latency_s, c.fom.energy_j, c.fom.area_mm2, c.fom.accuracy
            ));
        }
        line.push_str("]}");
        let spec = || Spec::Eval {
            scenario: Box::new(HdcScenario::default()),
            objective: None,
        };
        let verdict = |line: &str| check_response(line, &spec(), Part::Evaluated).0;
        assert_eq!(verdict(&line), Verdict::Ok);
        let lat = ev.candidates[3].fom.latency_s;
        let flipped = f64::from_bits(lat.to_bits() ^ 1);
        let bad = line.replacen(&format!("{lat}"), &format!("{flipped}"), 1);
        assert_ne!(bad, line);
        assert_eq!(verdict(&bad), Verdict::Mismatch);
        let renamed = line.replacen(&ev.candidates[0].name, "X", 1);
        assert_eq!(verdict(&renamed), Verdict::Malformed);
        assert_eq!(verdict("{not json"), Verdict::Malformed);
        // The reference digest covers the library's answer, whatever the
        // response says.
        let want = check_response(&line, &spec(), Part::Evaluated).1;
        assert_eq!(check_response(&bad, &spec(), Part::Evaluated).1, want);
    }

    #[test]
    fn a_mismatch_fails_unless_the_answer_depends_on_evaluation_order() {
        let mut c = Checked::default();
        c.add(Verdict::Ok, false, 5);
        c.add(Verdict::Ok, true, 1);
        c.add(Verdict::Mismatch, true, 1);
        assert_eq!((c.failures(), c.order_dependent, c.history), (0, 2, 1));
        c.add(Verdict::Mismatch, false, 1);
        c.add(Verdict::Errored, true, 1);
        c.add(Verdict::Malformed, false, 2);
        assert_eq!((c.mismatch, c.errored, c.malformed), (1, 1, 2));
        assert_eq!((c.failures(), c.order_dependent, c.history), (4, 3, 1));
        for v in [
            Verdict::Ok,
            Verdict::Errored,
            Verdict::Mismatch,
            Verdict::Malformed,
        ] {
            assert_eq!(Verdict::from_byte(v as u8), v);
        }
    }
}
