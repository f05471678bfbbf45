//! Measuring: one workload in this process (`child`), and the `run` /
//! `trace` commands that start one such process per workload.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::meta;
use crate::spec::{self, Better};
use crate::stats::{median, percentile, tail_percentile, Summary};
use crate::workloads::{self, PassOut, TraceOut};
use crate::yardstick;
use crate::Flags;

/// Timed passes a run makes at the least, however short `--seconds` is:
/// a quartile needs a few samples.
const MIN_PASSES: usize = 3;

/// Line prefix under which a child hands its full result to `run` /
/// `trace`; never printed to the user.
const DETAIL_PREFIX: &str = "#detail ";

/// The `sim_digest`s measured when the benchmark was defined, one
/// `workload seed digest` per line; seed `*` stands for every seed (only
/// `stream` simulates something that depends on the seed argument). A
/// run whose digest differs says so loudly and carries on: ROADMAP
/// sanctions one RNG re-pin, and a digest that moved for any other
/// reason is a correctness issue to open, not a timing to throw away.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED_DIGESTS.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        let (w, s, d) = (words.next()?, words.next()?, words.next()?);
        if w != workload || (s != "*" && s.parse::<u64>().ok()? != seed) {
            return None;
        }
        u64::from_str_radix(d.strip_prefix("0x")?, 16).ok()
    })
}

/// Which of the two measuring commands is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tracing off: end-to-end metrics.
    Run,
    /// Tracing on: per-layer metrics.
    Trace,
}

/// Stand-alone set-ups timed after every pass for `setup_s`, after one
/// more that re-warms the set-up path and is not kept. Spreading them
/// over the whole run, rather than timing one series at its end, lets
/// `setup_s` see the same mix of quiet and noisy seconds as `pass_s`.
const SETUPS_PER_PASS: usize = 2;

/// Everything an untraced run of one workload measured.
struct Measured {
    passes: Vec<PassOut>,
    warmup: PassOut,
    setups: Vec<f64>,
    peak_rss_mib: f64,
}

impl Measured {
    fn samples(&self, metric: &str) -> Vec<f64> {
        match metric {
            "pass_s" => self.passes.iter().map(|p| p.pass_s).collect(),
            "setup_s" => self.setups.clone(),
            "run_s" => self.passes.iter().map(|p| p.run_s).collect(),
            "peak_rss_mib" => vec![self.peak_rss_mib],
            other => unreachable!("invariant: {other} is not an end-to-end metric"),
        }
    }

    /// Failures of any pass, and digests that moved between passes.
    fn errors(&self) -> Vec<String> {
        let mut errors: Vec<String> = self.warmup.errors.clone();
        for (i, p) in self.passes.iter().enumerate() {
            errors.extend(p.errors.iter().cloned());
            if p.digest != self.warmup.digest {
                errors.push(format!(
                    "sim_digest of pass {} ({:#018x}) differs from the warm-up pass ({:#018x}): \
                     the simulation is not deterministic",
                    i + 1,
                    p.digest,
                    self.warmup.digest
                ));
            }
        }
        errors.sort();
        errors.dedup();
        errors
    }
}

fn measure(workload: &dyn workloads::Workload, seconds: u64, quick: bool) -> Measured {
    // One untimed warm-up pass: the allocator's arenas grow to the
    // workload's footprint and lazy statics settle before timing starts.
    let warmup = workload.pass();
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    loop {
        passes.push(workload.pass());
        // The set-ups are a few milliseconds between them: one reading
        // on each side (the pass's closing one, and one the next pass
        // will open with) normalises them all.
        let opening = yardstick::current();
        workload.setup_once();
        let raw: Vec<f64> = (0..SETUPS_PER_PASS)
            .map(|_| workload.setup_once())
            .collect();
        let f = yardstick::factor(opening, yardstick::yardstick());
        setups.extend(raw.into_iter().map(|s| s * f));
        let enough = if quick {
            true
        } else {
            passes.len() >= MIN_PASSES && started.elapsed() >= budget
        };
        if enough {
            break;
        }
    }
    Measured {
        passes,
        warmup,
        setups,
        peak_rss_mib: meta::peak_rss_mib().unwrap_or(f64::NAN),
    }
}

fn digest_status(workload: &str, seed: u64, quick: bool, digest: u64) -> (&'static str, String) {
    if quick {
        return ("n/a", "quick sizes are not recorded".to_owned());
    }
    match recorded_digest(workload, seed) {
        None => ("unrecorded", "no digest recorded for this seed".to_owned()),
        Some(d) if d == digest => ("match", "matches the recorded digest".to_owned()),
        Some(d) => (
            "DIFFERS",
            format!("DIFFERS from the recorded {d:#018x} — the simulation changed"),
        ),
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj()
        .with("value", s.reported())
        .with("median", s.median)
        .with("q1", s.q1)
        .with("q3", s.q3)
        .with("min", s.min)
        .with("max", s.max)
        .with("n", s.n)
}

fn metric_value(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// The object the contract wants on the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics)
        .compact()
}

/// The end of a child's report, the same in both modes: the digest
/// against the recorded one (loud when it differs), notes, failures and
/// the verdict. Returns whether the output is correct and the fields
/// every detail object starts with.
fn conclude(
    name: &str,
    seed: u64,
    quick: bool,
    pass: &PassOut,
    attempted: u64,
    failed: u64,
    errors: &[String],
) -> (bool, Json) {
    let (status, words) = digest_status(name, seed, quick, pass.digest);
    println!("  sim_digest    {:#018x}  {words}", pass.digest);
    if status == "DIFFERS" {
        eprintln!(
            "WARNING: {name} seed {seed}: sim_digest {:#018x} {words}",
            pass.digest
        );
    }
    for n in &pass.notes {
        println!("  note: {n}");
    }
    for e in errors {
        println!("  INCORRECT: {e}");
        eprintln!("INCORRECT: {e}");
    }
    let correct = errors.is_empty();
    println!("  correct: {}", if correct { "yes" } else { "NO" });
    let strings = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::from(s.as_str())).collect());
    let detail = Json::obj()
        .with("workload", name)
        .with("seed", seed)
        .with("quick", quick)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("correct", correct)
        .with("sim_digest", format!("{:#018x}", pass.digest))
        .with("digest_vs_recorded", status)
        .with("notes", strings(&pass.notes))
        .with("errors", strings(errors));
    (correct, detail)
}

/// Contract mode: one workload, in this process.
pub fn child(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["quick", "emit-detail"])?;
    flags.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "quick",
        "emit-detail",
    ])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let seed = flags.number("seed", 0)?;
    let seconds = flags.number("seconds", spec::RUN_SECONDS)?;
    let traced = match flags.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace wants 0 or 1, got {other}")),
    };
    let quick = flags.has("quick");
    let workload = workloads::by_name(name, seed, quick)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    meta::warn_if_loaded();
    let load = meta::load_1min().map_or_else(|| "?".to_owned(), |l| format!("{l:.2}"));
    println!(
        "workload {name}  seed {seed}{}  host_cores {}  load_1min {load}",
        if quick {
            "  QUICK (numbers mean nothing)"
        } else {
            ""
        },
        meta::host_cores(),
    );
    let (ok, detail, line) = if traced {
        child_traced(name, seed, quick, workload.as_ref())
    } else {
        child_untraced(name, seed, seconds, quick, workload.as_ref())
    };
    if flags.has("emit-detail") {
        println!("{DETAIL_PREFIX}{}", detail.compact());
    }
    println!("{line}");
    Ok(ok)
}

fn child_untraced(
    name: &str,
    seed: u64,
    seconds: u64,
    quick: bool,
    workload: &dyn workloads::Workload,
) -> (bool, Json, String) {
    let m = measure(workload, seconds, quick);
    let errors = m.errors();
    let attempted: u64 = m.passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = m.passes.iter().map(|p| p.failed).sum();
    let first = &m.passes[0];
    println!(
        "  {} timed pass(es) after 1 warm-up; {attempted} operations attempted, {failed} failed",
        m.passes.len()
    );
    println!(
        "  (times are normalised to the yardstick, see yardstick.rs; a metric's value is the \
         first quartile of its samples)"
    );

    let mut metrics = Json::obj();
    let mut e2e = Json::obj();
    for spec in &spec::END_TO_END {
        let samples = m.samples(spec.name);
        let s = Summary::of(&samples);
        println!(
            "  {:<13} {:>12.6} {:<4} median {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {:<3} \
             [{} is better, bound {:.0} %]",
            spec.name,
            s.reported(),
            spec.unit,
            s.median,
            s.q3,
            s.min,
            s.max,
            s.n,
            spec.better.word(),
            spec.bound * 100.0
        );
        metrics = metrics.with(spec.name, metric_value(s.reported(), spec.unit));
        e2e = e2e.with(
            spec.name,
            summary_json(&s)
                .with("unit", spec.unit)
                .with("better", spec.better.word())
                .with("bound", spec.bound)
                .with(
                    "samples",
                    samples.into_iter().map(Json::Num).collect::<Vec<_>>(),
                ),
        );
    }

    // Information that is not a bounded metric: steady-state speed where
    // the engine is visible, and the per-unit latency where a pass is
    // many simulations.
    let mut info = Json::obj()
        .with("events_per_pass", first.events)
        .with("packets_per_pass", first.packets);
    let raw_pass = median(&m.passes.iter().map(|p| p.raw_pass_s).collect::<Vec<_>>());
    let raw_run = median(&m.passes.iter().map(|p| p.raw_run_s).collect::<Vec<_>>());
    let slowdown = median(
        &m.passes
            .iter()
            .map(|p| p.raw_pass_s / p.pass_s)
            .collect::<Vec<_>>(),
    );
    println!(
        "  {:<13} {:>12.6} s    (wall clock, median; run {raw_run:.6} s; the host ran at \
         {slowdown:.2}x the reference yardstick)",
        "raw_pass_s", raw_pass
    );
    let in_pass = median(&m.passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    println!(
        "  {:<13} {:>12.6} s    (set-up as timed inside the passes, in the wake of the last run)",
        "setup_in_pass", in_pass
    );
    let finish = median(&m.passes.iter().map(PassOut::finish_s).collect::<Vec<_>>());
    println!(
        "  {:<13} {:>12.6} s    (pass - its own set-up - run: drain, verify, drop)",
        "finish_s", finish
    );
    info = info
        .with("raw_pass_s", raw_pass)
        .with("raw_run_s", raw_run)
        .with("host_slowdown", slowdown)
        .with("setup_in_pass_s", in_pass)
        .with("finish_s", finish);
    if first.events > 0 {
        let rate = first.events as f64 / Summary::of(&m.samples("run_s")).reported();
        println!(
            "  {:<13} {:>12.0} 1/s  ({} events / run_s; {} packets per pass)",
            "events_per_s", rate, first.events, first.packets
        );
        info = info.with("events_per_s", rate);
    }
    if !first.unit_ms.is_empty() {
        // Percentiles within a pass, then the median over passes.
        let n = first.unit_ms.len();
        let p50: Vec<f64> = m
            .passes
            .iter()
            .map(|p| percentile(&p.unit_ms, 50.0))
            .collect();
        println!(
            "  {:<13} {:>12.6} ms   (per scenario/cell, median within a pass, n {n})",
            "unit_ms_p50",
            median(&p50)
        );
        info = info
            .with("unit_ms_p50", median(&p50))
            .with("units_per_pass", n);
        if let Some(tail) = tail_percentile(n) {
            let tails: Vec<f64> = m
                .passes
                .iter()
                .map(|p| percentile(&p.unit_ms, tail))
                .collect();
            println!(
                "  {:<13} {:>12.6} ms   (p{tail} within a pass: the highest percentile with ten \
                 samples beyond it)",
                "unit_ms_tail",
                median(&tails)
            );
            info = info
                .with("unit_ms_tail", median(&tails))
                .with("tail_percentile", tail);
        }
    }

    let (correct, detail) = conclude(name, seed, quick, &m.warmup, attempted, failed, &errors);
    let detail = detail
        .with("passes", m.passes.len())
        .with("warmup_passes", 1usize)
        .with("end_to_end", e2e)
        .with("info", info);
    (
        correct,
        detail,
        result_line(correct, attempted, failed, metrics),
    )
}

fn child_traced(
    name: &str,
    seed: u64,
    quick: bool,
    workload: &dyn workloads::Workload,
) -> (bool, Json, String) {
    let TraceOut {
        pass,
        tracer,
        mut layers,
    } = workload.trace();
    layers.set("host_cores", meta::host_cores() as f64);
    let mut metrics = Json::obj();
    let mut table = Json::obj();
    println!("  per-layer metrics (0 = does not apply to this workload):");
    for spec in &spec::PER_LAYER {
        let value = layers.get(spec.name);
        if value != 0.0 {
            println!(
                "    {:<30} {:>16.4} {:<6}{}",
                spec.name,
                value,
                spec.unit,
                if spec.exact { " exact" } else { "" }
            );
        }
        metrics = metrics.with(spec.name, metric_value(value, spec.unit));
        table = table.with(
            spec.name,
            Json::obj()
                .with("value", value)
                .with("unit", spec.unit)
                .with("exact", spec.exact),
        );
    }

    // The trace must close: the three shares sum to 1 and the step
    // classes sum to the traced run.
    let share_sum =
        layers.get("event.share") + layers.get("fabric.share") + layers.get("verbs.self_share");
    // Against the wall time the meter booked to the run: the `run` span
    // also holds the yardstick readings.
    let run_ns = (pass.raw_run_s * 1e9) as u64;
    let class_ns: u64 = crate::trace::StepClass::ALL
        .iter()
        .map(|c| tracer.total(c.names().0).1)
        .sum();
    let mut closure = Json::obj();
    let mut errors = pass.errors.clone();
    if class_ns > 0 {
        let gap = (class_ns as f64 - run_ns as f64).abs() / run_ns.max(1) as f64;
        println!(
            "  closure: shares sum to {share_sum:.6}; step classes cover {:.3} % of the traced run",
            100.0 * class_ns as f64 / run_ns.max(1) as f64
        );
        closure = closure
            .with("share_sum", share_sum)
            .with("step_class_ns", class_ns)
            .with("traced_run_ns", run_ns);
        if gap > 0.02 || (share_sum - 1.0).abs() > 1e-9 {
            errors.push(format!(
                "trace does not close: shares sum to {share_sum}, step classes miss the traced \
                 run by {:.2} %",
                gap * 100.0
            ));
        }
    }

    println!("  spans (rolled up by parent/name):");
    println!(
        "    {:<34} {:>9} {:>14} {:>14}",
        "span", "calls", "total ms", "self ms"
    );
    let rollup = tracer.rollup();
    for r in &rollup {
        let label = if r.parent.is_empty() {
            r.name.to_owned()
        } else {
            format!("{} > {}", r.parent, r.name)
        };
        println!(
            "    {:<34} {:>9} {:>14.3} {:>14.3}",
            label,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    let (correct, detail) = conclude(
        name,
        seed,
        quick,
        &pass,
        pass.attempted,
        pass.failed,
        &errors,
    );
    let detail = detail
        .with("per_layer", table)
        .with("closure", closure)
        .with("spans", crate::trace::rollup_json(&rollup));
    (
        correct,
        detail,
        result_line(correct, pass.attempted, pass.failed, metrics),
    )
}

/// `run` and `trace`: one child process per workload, results collected
/// into one report (and one file with `--out`).
pub fn orchestrate(kind: Kind, args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.only(&["seed", "seconds", "quick", "out"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let seed = flags.number("seed", 0)?;
    let seconds = flags.number("seconds", spec::RUN_SECONDS)?;
    let quick = flags.has("quick");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let kind_word = match kind {
        Kind::Run => "run",
        Kind::Trace => "trace",
    };
    meta::warn_if_loaded();
    let header = meta::header(kind_word, seed, seconds, quick);
    println!(
        "ibsim-benchmark {kind_word}: seed {seed}, {} core(s), {}, revision {}",
        meta::host_cores(),
        header.get("rustc").and_then(Json::as_str).unwrap_or("?"),
        header
            .get("git_revision")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    );

    let started = Instant::now();
    let mut all_ok = true;
    let mut details = Vec::new();
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--emit-detail"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if kind == Kind::Trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child to end.
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start the {} process: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut detail = None;
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(d) = line.strip_prefix(DETAIL_PREFIX) {
                detail = Json::parse(d).ok();
            } else if i + 1 < lines.len() {
                // The last line is the machine-readable result; `run`
                // prints the readable lines only.
                println!("{line}");
            }
        }
        if !out.status.success() {
            all_ok = false;
            println!("  {} FAILED ({})", w.name, out.status);
        }
        match detail {
            Some(d) => details.push(d),
            None => {
                all_ok = false;
                println!("  {} produced no result", w.name);
            }
        }
    }
    println!(
        "{kind_word} took {:.1} s; {}",
        started.elapsed().as_secs_f64(),
        if all_ok {
            "every output correct"
        } else {
            "SOME OUTPUT WAS INCORRECT"
        }
    );
    if let Some(path) = flags.get("out") {
        let report = header.with("workloads", details);
        std::fs::write(path, report.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_ok)
}

/// How `value` compares with `base` for a metric that improves in
/// direction `better`: the share by which it is *worse* (negative when
/// it is better).
pub fn worsening(better: Better, base: f64, value: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => value / base - 1.0,
        Better::Higher => 1.0 - value / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_digests_parse() {
        for line in RECORDED_DIGESTS.lines().filter(|l| !l.trim().is_empty()) {
            let mut words = line.split_whitespace();
            let w = words.next().expect("workload");
            assert!(spec::WORKLOADS.iter().any(|s| s.name == w), "{line}");
            let seed = words.next().expect("seed");
            let seed: u64 = if seed == "*" {
                0
            } else {
                seed.parse().expect("a number")
            };
            assert!(recorded_digest(w, seed).is_some(), "{line}");
        }
        assert_eq!(recorded_digest("stream", u64::MAX), None);
        assert_eq!(recorded_digest("nope", 0), None);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 1.0, 0.9) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            0,
            0,
            Json::obj().with("pass_s", metric_value(1.5, "s")),
        );
        let v = Json::parse(&line).expect("parses");
        let Json::Obj(fields) = &v else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("attempted").and_then(Json::as_f64),
            Some(1.0),
            "at least 1"
        );
    }
}
