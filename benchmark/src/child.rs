//! Fresh-process passes of the in-process workloads.
//!
//! The parent re-executes this binary with `--child <pass>`; the child runs
//! one pass over the workload's seeded inputs, writes one digest per
//! operation to the work directory, and prints one JSON summary line. Each
//! pass starts with cold caches, which is what a user running a study pays.

use crate::check::{self, Class};
use crate::json::{self, Value};
use crate::sys;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Arguments a child pass receives.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub pass: String,
    pub seed: u64,
    /// Unix nanoseconds at which the parent spawned this process.
    pub spawned_at: u128,
    pub work: PathBuf,
    pub tag: String,
    /// Sweep threads; 0 means the program's default.
    pub threads: usize,
    /// Switch the program's existing spans on for this pass.
    pub trace: bool,
    pub smoke: bool,
}

impl ChildArgs {
    fn digest_path(work: &Path, tag: &str) -> PathBuf {
        work.join(format!("{tag}.dig"))
    }

    fn class_path(work: &Path, tag: &str) -> PathBuf {
        work.join(format!("{tag}.cls"))
    }
}

/// What one pass reports back.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub tag: String,
    /// Operations in the pass.
    pub points: u64,
    /// Latency of every timed call, seconds.
    pub calls: Vec<f64>,
    /// Spawn to first completed call, seconds, input generation excluded.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    /// Workload-specific figures.
    pub fields: Vec<(String, f64)>,
    /// Span aggregates `(name, self_ns, calls)` when tracing.
    pub spans: Vec<(String, f64, f64)>,
    pub digest: u64,
    /// Share of the box's CPU time the hypervisor stole while the pass
    /// ran, measured by the parent.
    pub steal: f64,
    spawned_at: u128,
    excluded_s: f64,
    work: PathBuf,
}

impl Summary {
    pub fn new(args: &ChildArgs) -> Summary {
        Summary {
            tag: args.tag.clone(),
            spawned_at: args.spawned_at,
            work: args.work.clone(),
            ..Summary::default()
        }
    }

    /// Excludes harness work (input generation) done before the first call
    /// from the set-up time.
    pub fn exclude(&mut self, seconds: f64) {
        if self.calls.is_empty() {
            self.excluded_s += seconds;
        }
    }

    /// Records one timed call; the first one ends the set-up interval.
    pub fn call(&mut self, seconds: f64) {
        if self.calls.is_empty() {
            let since_spawn = sys::unix_nanos().saturating_sub(self.spawned_at) as f64 / 1e9;
            self.setup_s = since_spawn - self.excluded_s;
        }
        self.calls.push(seconds);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.fields.push((name.to_string(), value));
    }

    pub fn field(&self, name: &str) -> f64 {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Sum of the timed calls.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().sum()
    }

    pub fn span(&self, name: &str) -> (f64, f64) {
        self.spans
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or((0.0, 0.0), |&(_, s, c)| (s, c))
    }

    pub fn write_classes(&self, classes: &[Class]) {
        check::write_classes(&ChildArgs::class_path(&self.work, &self.tag), classes)
            .expect("write verification classes");
    }

    /// Writes the digests and fills in the process accounting.
    pub fn finish(mut self, digests: &[u64]) -> Summary {
        check::write_digests(&ChildArgs::digest_path(&self.work, &self.tag), digests)
            .expect("write digests");
        self.digest = check::pass_digest(digests);
        self.peak_rss_mb = sys::peak_rss_mib(None).unwrap_or(0.0);
        self.cpu_s = sys::cpu_seconds(None).unwrap_or(0.0);
        if xlda_obs::enabled() {
            self.spans = xlda_obs::aggregate_snapshot()
                .into_iter()
                .filter(|a| a.calls > 0)
                .map(|a| (a.name.to_string(), a.self_nanos as f64, a.calls as f64))
                .collect();
        }
        self
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"tag\":");
        json::push_str(&mut s, &self.tag);
        s.push_str(",\"points\":");
        json::push_num(&mut s, self.points as f64);
        s.push_str(",\"setup_s\":");
        json::push_num(&mut s, self.setup_s);
        s.push_str(",\"peak_rss_mb\":");
        json::push_num(&mut s, self.peak_rss_mb);
        s.push_str(",\"cpu_s\":");
        json::push_num(&mut s, self.cpu_s);
        s.push_str(",\"digest\":");
        json::push_str(&mut s, &format!("{:016x}", self.digest));
        s.push_str(",\"calls\":[");
        for (i, c) in self.calls.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_num(&mut s, *c);
        }
        s.push_str("],\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_str(&mut s, k);
            s.push(':');
            json::push_num(&mut s, *v);
        }
        s.push_str("},\"spans\":[");
        for (i, (n, self_ns, calls)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            json::push_str(&mut s, n);
            s.push(',');
            json::push_num(&mut s, *self_ns);
            s.push(',');
            json::push_num(&mut s, *calls);
            s.push(']');
        }
        s.push_str("]}");
        s
    }

    pub fn from_json(line: &str, work: &Path) -> Result<Summary, String> {
        let v = Value::parse(line)?;
        let num = |k: &str| v.num(k).ok_or(format!("summary lacks {k}"));
        let calls = v
            .get("calls")
            .and_then(Value::as_arr)
            .ok_or("summary lacks calls")?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        let fields = match v.get("fields") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => Vec::new(),
        };
        let spans = v
            .get("spans")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                let s = s.as_arr()?;
                Some((
                    s.first()?.as_str()?.to_string(),
                    s.get(1)?.as_f64()?,
                    s.get(2)?.as_f64()?,
                ))
            })
            .collect();
        let digest = v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("summary lacks digest")?;
        Ok(Summary {
            tag: v
                .get("tag")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            points: num("points")? as u64,
            calls,
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            cpu_s: num("cpu_s")?,
            fields,
            spans,
            digest,
            work: work.to_path_buf(),
            ..Summary::default()
        })
    }

    /// The per-operation digests this pass wrote.
    pub fn digests(&self) -> Vec<u64> {
        check::read_digests(&ChildArgs::digest_path(&self.work, &self.tag)).unwrap_or_default()
    }

    /// The verification classes this pass wrote (verification passes only).
    pub fn classes(&self) -> Vec<Class> {
        check::read_classes(&ChildArgs::class_path(&self.work, &self.tag)).unwrap_or_default()
    }
}

/// Runs one pass in a fresh process and returns its summary.
pub fn run(
    pass: &str,
    seed: u64,
    work: &Path,
    tag: &str,
    threads: usize,
    trace: bool,
    smoke: bool,
) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(pass)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--work")
        .arg(work)
        .arg("--tag")
        .arg(tag)
        .arg("--threads")
        .arg(threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if trace {
        cmd.arg("--trace-spans");
    }
    if smoke {
        cmd.arg("--smoke");
    }
    // Stamped last, so argument building is not counted as set-up.
    cmd.arg("--spawned-at").arg(sys::unix_nanos().to_string());
    let ticks = sys::box_ticks();
    let out = cmd.output().map_err(|e| format!("spawn {pass}: {e}"))?;
    let steal = sys::steal_share(ticks, sys::box_ticks());
    if !out.status.success() {
        return Err(format!("{pass} pass {tag} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{pass} pass {tag} printed nothing"))?;
    let mut s = Summary::from_json(line, work)?;
    s.steal = steal;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips_through_json() {
        let args = ChildArgs {
            pass: "x".into(),
            seed: 1,
            spawned_at: 0,
            work: std::env::temp_dir(),
            tag: "t".into(),
            threads: 0,
            trace: false,
            smoke: true,
        };
        let mut s = Summary::new(&args);
        s.points = 3;
        s.call(0.25);
        s.call(0.5);
        s.set("eval_s", 1.5e-3);
        s.spans.push(("evacam".into(), 123.0, 4.0));
        s.digest = 0xdead_beef;
        let back = Summary::from_json(&s.to_json(), &args.work).unwrap();
        assert_eq!(back.points, 3);
        assert_eq!(back.calls, vec![0.25, 0.5]);
        assert_eq!(back.field("eval_s"), 1.5e-3);
        assert_eq!(back.span("evacam"), (123.0, 4.0));
        assert_eq!(back.digest, 0xdead_beef);
    }
}
