//! Process accounting read from `/proc`, and wall-clock stamps that cross
//! a process boundary.

use std::time::{SystemTime, UNIX_EPOCH};

/// `USER_HZ`: the unit of the `/proc/<pid>/stat` CPU-time fields, 100 on
/// every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/{name}"),
        None => format!("/proc/self/{name}"),
    };
    std::fs::read_to_string(path).ok()
}

/// High-water resident set size (`VmHWM`) in MiB; `None` when `/proc` is
/// unavailable.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds consumed so far by all threads of a
/// process.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// The box's CPU time so far, in ticks: `(steal, total)` from the first
/// line of `/proc/stat`. Steal is time the hypervisor ran something else
/// while a virtual CPU of this box had work.
pub fn box_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the box's CPU time stolen between two [`box_ticks`] readings;
/// 0 when either is missing.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    from.zip(to).map_or(0.0, |((s0, t0), (s1, t1))| {
        s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
    })
}

/// Nanoseconds since the Unix epoch: a clock both sides of a process spawn
/// share, used to time a child from the moment it was spawned.
pub fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_accounting() {
        let rss = peak_rss_mib(None).expect("VmHWM");
        assert!(rss > 0.1 && rss < 100_000.0, "{rss}");
        let busy = (0..2_000_000u64).fold(0u64, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(busy);
        assert!(cpu_seconds(None).expect("stat") >= 0.0);
    }
}
