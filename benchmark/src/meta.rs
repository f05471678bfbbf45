//! Facts about the host and the build that every output records, so a
//! number can never be read without knowing where it was measured.

use std::process::Command;

use crate::json::Json;

/// Cores available to this process (`nproc`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, or `None` off Linux.
pub fn load_1min() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Prints a warning when the host is already busier than it has cores:
/// every timing taken then competes for a CPU.
pub fn warn_if_loaded() {
    if let Some(load) = load_1min() {
        if load > host_cores() as f64 {
            eprintln!(
                "warning: 1-minute load average {load:.2} exceeds the {} available core(s); \
                 timings will be noisy",
                host_cores()
            );
        }
    }
}

/// The header of a `run` or `trace` output. Spawns `rustc` and `git`
/// (both waited for); either may be absent, which reads `"unknown"`.
pub fn header(kind: &str, seed: u64, seconds: u64, quick: bool) -> Json {
    Json::obj()
        .with("schema", "ibsim-benchmark/v1")
        .with("kind", kind)
        .with("seed", seed)
        .with("seconds_per_workload", seconds)
        .with("quick", quick)
        .with("host_cores", host_cores())
        .with(
            "load_1min_at_start",
            load_1min().map_or(Json::Null, Json::Num),
        )
        .with("rustc", first_line("rustc", &["-V"]))
        .with(
            "git_revision",
            first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        )
}
