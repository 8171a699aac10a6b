//! Process and machine readings from `/proc`, and the build facts a
//! result is recorded with.

use std::process::Command;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux).
const USER_HZ: f64 = 100.0;

/// Threads alive in this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count())
}

/// Threads of this process whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// User plus system CPU seconds this process has used, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Median and 90th percentile of how far `thread::sleep(1 ms)`
/// overshoots on this machine right now, in microseconds.
pub fn sleep_overshoot_us() -> (f64, f64) {
    let target = Duration::from_millis(1);
    let mut over: Vec<f64> = (0..25)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::sleep(target);
            (t0.elapsed().saturating_sub(target)).as_secs_f64() * 1e6
        })
        .collect();
    over.sort_by(f64::total_cmp);
    let at = |p: f64| crate::stats::percentile(&over, p).unwrap_or(0.0);
    (at(0.5), at(0.9))
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout, when it is a git work tree (only its own
/// `.git` is consulted).
pub fn git_commit() -> String {
    command_line(Command::new("git").args(["--git-dir=.git", "rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    command_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".to_string())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
