//! `compare A.json B.json`: a verdict per workload × metric.
//!
//! For two `run` outputs every end-to-end metric gets one row — A's
//! value (the base), B's value, the ratio, how finely each run resolves
//! its own value, and a verdict:
//!
//! * **regressed** — B is worse than A by more than the metric's bound;
//! * **unresolved** — a run resolves its value more coarsely than the
//!   bound (too few or too scattered samples), so the data cannot tell
//!   unchanged from regressed;
//! * **improved** — B is better than A by more than the bound;
//! * **unchanged** — anything else.
//!
//! The bound is the size of change the host does not produce by itself,
//! so it gates both directions. "Improved" here is a reading of one pair
//! of runs, never a claim: a claimed gain takes ten alternating pairs (see
//! the choosing-metrics guide).
//!
//! A run's resolution is the interquartile spread of its samples over
//! their median, divided by the square root of their count — roughly the
//! standard error of a quartile. It ignores that disturbed passes come in
//! runs, so it flatters; it is there to flag short or wild runs, not to
//! replace the bound.
//!
//! For two `trace` outputs every per-layer metric is listed and the
//! exact-count ones must be equal. `--agree` turns the report into a
//! gate: it fails unless no row is regressed or unresolved in either
//! direction and no exact count differs — what `agree.sh` runs over two
//! runs of the same code.

use crate::json::Json;
use crate::measure::worsening;
use crate::spec::{self, Better};
use crate::Flags;

/// One end-to-end row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound and resolved.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A run resolves its value more coarsely than the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED past bound",
            Verdict::Unresolved => "unresolved (resolution coarser than bound)",
        }
    }
}

/// A metric's reported value in one file, and how finely the run
/// resolves it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The value the run reported (the first quartile of its samples).
    pub value: f64,
    /// `(q3 - q1) / median / sqrt(n)` of the samples.
    pub resolution: f64,
}

/// Decides one row.
pub fn verdict(better: Better, bound: f64, a: Side, b: Side) -> Verdict {
    let worse = worsening(better, a.value, b.value);
    if worse > bound {
        Verdict::Regressed
    } else if a.resolution > bound || b.resolution > bound {
        Verdict::Unresolved
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match v.get("schema").and_then(Json::as_str) {
        Some("ibsim-benchmark/v1") => Ok(v),
        other => Err(format!("{path}: not a benchmark output (schema {other:?})")),
    }
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

fn side(w: &Json, metric: &str) -> Option<Side> {
    let m = w.get("end_to_end")?.get(metric)?;
    let (value, median) = (m.get("value")?.as_f64()?, m.get("median")?.as_f64()?);
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    let n = m.get("n")?.as_f64()?.max(1.0);
    Some(Side {
        value,
        resolution: if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs() / n.sqrt()
        },
    })
}

fn describe(file: &Json, path: &str) -> String {
    let text = |k: &str| file.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
    let num = |k: &str| file.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    format!(
        "{path}: {} seed {} revision {} {} cores {} load {:.2}",
        text("kind"),
        num("seed"),
        text("git_revision"),
        text("rustc"),
        num("host_cores"),
        num("load_1min_at_start"),
    )
}

/// The `compare` command. `Ok(false)` when `--agree` was asked for and
/// the files do not agree, or when B regressed past a bound.
pub fn main(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["agree"])?;
    flags.only(&["agree"])?;
    let [path_a, path_b] = flags.positional.as_slice() else {
        return Err("compare wants exactly two files".to_owned());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let kind = a.get("kind").and_then(Json::as_str).unwrap_or("?");
    if b.get("kind").and_then(Json::as_str) != Some(kind) {
        return Err("cannot compare a run output with a trace output".to_owned());
    }
    println!("A  {}", describe(&a, path_a));
    println!("B  {}", describe(&b, path_b));
    let quick = |f: &Json| f.get("quick").and_then(Json::as_bool) == Some(true);
    if quick(&a) || quick(&b) {
        println!("note: a --quick output is a smoke test; its numbers mean nothing");
    }
    if a.get("seed") != b.get("seed") {
        println!("note: the seeds differ, so simulated counts and digests are expected to differ");
    }
    let agree = flags.has("agree");
    let ok = match kind {
        "run" => compare_runs(&a, &b, agree),
        "trace" => compare_traces(&a, &b),
        other => return Err(format!("unknown output kind {other:?}")),
    };
    Ok(ok)
}

fn compare_runs(a: &Json, b: &Json, agree: bool) -> bool {
    let mut ok = true;
    println!(
        "{:<8} {:<13} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "res A", "res B"
    );
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, w.name), workload(b, w.name)) else {
            println!("{:<8} missing from one of the files", w.name);
            ok = false;
            continue;
        };
        for m in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (side(wa, m.name), side(wb, m.name)) else {
                println!("{:<8} {:<13} missing from one of the files", w.name, m.name);
                ok = false;
                continue;
            };
            let v = verdict(m.better, m.bound, sa, sb);
            // Agreement is symmetric: neither file may be worse than the
            // other by more than the bound.
            let back = verdict(m.better, m.bound, sb, sa);
            let a_worse = agree && back == Verdict::Regressed;
            ok &= !(a_worse || v == Verdict::Regressed || (agree && v == Verdict::Unresolved));
            println!(
                "{:<8} {:<13} {:>14.6} {:>14.6} {:>8.4}x {:>7.2}% {:>7.2}%  {}{}",
                w.name,
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                sa.resolution * 100.0,
                sb.resolution * 100.0,
                v.word(),
                if a_worse {
                    "  (A is worse than B past the bound)"
                } else {
                    ""
                },
            );
        }
        let digest = |w: &Json| {
            w.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        let correct = |w: &Json| w.get("correct").and_then(Json::as_bool) == Some(true);
        if !correct(wa) || !correct(wb) {
            println!("{:<8} an output was INCORRECT", w.name);
            ok = false;
        }
        if a.get("seed") == b.get("seed") && digest(wa) != digest(wb) {
            println!(
                "{:<8} sim_digest differs for the same seed: {:?} vs {:?}",
                w.name,
                digest(wa),
                digest(wb)
            );
            ok &= !agree;
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            println!(
                "{:<8} more operations failed: {} vs {} — a gain does not count",
                w.name,
                failed(wb),
                failed(wa)
            );
            ok = false;
        }
    }
    println!(
        "{}",
        match (agree, ok) {
            (true, true) => "agree: every end-to-end metric agrees within its bound",
            (true, false) => "agree: FAILED",
            (false, true) => "no metric regressed past its bound",
            (false, false) => "REGRESSION or missing data",
        }
    );
    ok
}

fn compare_traces(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    let same_seed = a.get("seed") == b.get("seed");
    println!(
        "{:<8} {:<30} {:>18} {:>18} {:>9}",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, w.name), workload(b, w.name)) else {
            println!("{:<8} missing from one of the files", w.name);
            ok = false;
            continue;
        };
        for m in &spec::PER_LAYER {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|t| t.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let differs = m.exact && same_seed && va != vb;
            ok &= !differs;
            println!(
                "{:<8} {:<30} {:>18.4} {:>18.4} {:>8.4}x{}",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                if differs {
                    "  EXACT COUNT DIFFERS"
                } else if m.exact {
                    "  exact"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "every exact count repeats"
        } else {
            "an exact count DIFFERS for the same seed"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, resolution: f64) -> Side {
        Side { value, resolution }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        use Better::{Higher, Lower};
        // Worse by more than the bound: regressed, however coarse the runs.
        assert_eq!(
            verdict(Lower, 0.10, s(1.0, 0.01), s(1.11, 0.5)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Higher, 0.10, s(100.0, 0.01), s(89.0, 0.01)),
            Verdict::Regressed
        );
        // Inside the bound but a run resolves more coarsely than it.
        assert_eq!(
            verdict(Lower, 0.10, s(1.0, 0.12), s(1.05, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.10, s(1.0, 0.01), s(0.8, 0.12)),
            Verdict::Unresolved
        );
        // Better by more than the bound: improved.
        assert_eq!(
            verdict(Lower, 0.10, s(1.0, 0.02), s(0.89, 0.02)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(Higher, 0.10, s(100.0, 0.02), s(111.0, 0.02)),
            Verdict::Improved
        );
        // Inside the bound either way: unchanged.
        assert_eq!(
            verdict(Lower, 0.10, s(1.0, 0.05), s(0.92, 0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(Lower, 0.10, s(1.0, 0.02), s(1.08, 0.02)),
            Verdict::Unchanged
        );
    }
}
