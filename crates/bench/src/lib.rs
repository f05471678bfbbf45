//! # ibsim-bench
//!
//! The experiment harness regenerating every table and figure of
//! *Pitfalls of InfiniBand with On-Demand Paging* (ISPASS 2021).
//!
//! One binary per experiment (run with `--release`; most accept
//! `--quick` for a reduced-scale pass):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I + Table II (system catalog) |
//! | `fig1` | Fig. 1 single-READ ODP workflows |
//! | `fig2` | Fig. 2 `T_o` vs `C_ack` curves |
//! | `fig4` | Fig. 4 two-READ execution time vs interval |
//! | `fig5` | Fig. 5 two-READ damming workflow |
//! | `fig6` | Fig. 6a/6b timeout probability vs interval |
//! | `fig7` | Fig. 7 timeout probability vs op count |
//! | `fig8` | Fig. 8 three-READ NAK-rescue workflow |
//! | `fig9` | Fig. 9a/9b execution time & packets vs #QPs |
//! | `fig11` | Fig. 10 layout + Fig. 11 completions per page |
//! | `fig12` | Fig. 12 ArgoDSM init/finalize histograms |
//! | `table13` | Fig. 13 SparkUCX table |
//! | `all` | everything above, in sequence |
//! | `congestion` | shared-uplink storm/victim study (`congestion`) |
//! | `recovery` | recovery-backend ablation |
//! | `scenario` | scenario corpus + fuzz conformance runner |
//! | `ibperf` | `perftest`-style latency and bandwidth ([`perftest`]) |
//!
//! Every bin prints simulated quantities only: no crate of the root
//! workspace reads a host clock (clippy's `disallowed_methods` enforces
//! it). Speed is measured by the benchmark package — `BENCHMARK.json`.
//!
//! This library hosts the shared formatting, statistics and flag
//! helpers, the congestion study and the `perftest` runners.

#![warn(missing_docs)]

pub mod congestion;
pub mod perftest;

use ibsim_event::SimTime;
use ibsim_odp::experiment::{timed_out, Series};
use ibsim_scenario::{run_scenario_with, RunOptions};

/// Returns true if `--quick` was passed: run a reduced-scale variant.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The token following `flag` in `args`, `Ok(None)` when the flag is
/// absent, `Err` naming the flag when it is last or followed by another
/// `--flag` — a flag that is present must never fall back to a default.
fn flag_str<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// [`flag_str`] parsed as a count.
fn flag_value(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    let Some(v) = flag_str(args, flag)? else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| format!("{flag} needs a non-negative integer, got `{v}`"))
}

/// Prints a flag error and exits non-zero.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// `--flag N` from the command line; `None` when the flag is absent.
/// Exits non-zero, naming the flag, when the value is missing or is not
/// a non-negative integer — `--shards x` must not quietly become the
/// default and turn a conformance stage into a sequential run.
pub fn arg_value(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(flag_value(&args, flag))
}

/// Sample mean in seconds.
pub fn mean_secs(samples: &[SimTime]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|t| t.as_secs_f64()).sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (n−1) in seconds.
pub fn std_secs(samples: &[SimTime]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean_secs(samples);
    let var = samples
        .iter()
        .map(|t| {
            let d = t.as_secs_f64() - m;
            d * d
        })
        .sum::<f64>()
        / (samples.len() - 1) as f64;
    var.sqrt()
}

/// Renders a compact fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{c:>w$}  ", w = w));
    }
    out.trim_end().to_owned()
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a time as seconds with 3 decimals.
pub fn secs(t: SimTime) -> String {
    format!("{:.3}", t.as_secs_f64())
}

/// Prints Figs. 6 and 7: one row per interval, one column per series,
/// each cell the percentage of its trials in which a transport timeout
/// fired.
pub fn print_timeout_series(series: &[Series]) {
    print!("interval_ms");
    for s in series {
        print!(",{}", s.label);
    }
    println!();
    let intervals = series.first().map_or(&[][..], |s| &s.cells);
    for (i, (interval, _)) in intervals.iter().enumerate() {
        print!("{:.3}", interval.as_ms_f64());
        for s in series {
            let trials = &s.cells[i].1;
            let runs = trials
                .iter()
                .map(|sc| run_scenario_with(sc, RunOptions::BARE));
            let hits = runs.filter(timed_out).count();
            print!(",{:.0}", hits as f64 / trials.len() as f64 * 100.0);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let s = [SimTime::from_ms(10), SimTime::from_ms(20)];
        assert!((mean_secs(&s) - 0.015).abs() < 1e-12);
        assert!(std_secs(&s) > 0.0);
        assert_eq!(std_secs(&s[..1]), 0.0);
        assert_eq!(mean_secs(&[]), 0.0);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn flags_parse_or_are_absent() {
        let a = args("scenario --workers 4 --shards 0");
        assert_eq!(flag_value(&a, "--workers"), Ok(Some(4)));
        assert_eq!(flag_value(&a, "--shards"), Ok(Some(0)));
        assert_eq!(flag_str(&a, "--workers"), Ok(Some("4")));
        assert_eq!(flag_value(&a, "--fuzz"), Ok(None));
        assert_eq!(flag_str(&a, "--fuzz"), Ok(None));
    }

    #[test]
    fn present_flags_never_fall_back_to_the_default() {
        for line in [
            "scenario --shards x",
            "scenario --shards 4x",
            "scenario --shards -1",
            "scenario --shards",
            "scenario --shards --workers 4",
        ] {
            let err = flag_value(&args(line), "--shards").expect_err(line);
            assert!(err.contains("--shards"), "{line}: {err}");
        }
        for line in ["scenario --fuzz", "scenario --fuzz --shards 4"] {
            let err = flag_str(&args(line), "--fuzz").expect_err(line);
            assert!(err.contains("--fuzz"), "{line}: {err}");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(SimTime::from_ms(1500)), "1.500");
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
