//! The scenario conformance runner: CI's entry point into the
//! `ibsim-scenario` fuzzing harness.
//!
//! ```text
//! cargo run --release --bin scenario                      # corpus only
//! cargo run --release --bin scenario -- --workers 4 --fuzz 256 --minimize-demo
//! cargo run --release --bin scenario -- --shards 4        # PDES conformance
//! ```
//!
//! Stages (each optional flag adds one):
//!
//! 1. **Corpus**: runs the paper-derived corpus through the differential
//!    oracle with 1 worker and with `--workers` workers, and fails on
//!    any oracle violation *or* any per-scenario trace-hash divergence
//!    between the two runs (thread-count independence is an enforced
//!    invariant, not a hope). `--shards N` additionally moves the second
//!    run onto N PDES shards, so the same diff enforces shard-count
//!    conformance against the sequential baseline.
//! 2. **Fuzz** (`--fuzz N`): generates N seeded random scenarios and
//!    runs them through the oracle the same dual-run way.
//! 3. **Minimizer demo** (`--minimize-demo`): plants a known divergence
//!    into the reference model (`Injection::WriteCorruption`), shrinks
//!    the failing mixed-verbs corpus scenario, and fails unless the
//!    reproducer still fails and has at most 3 work requests.
//!
//! Exits non-zero on any failure, printing the offending reports first.

use ibsim_bench::{arg_value, header, quick_mode, row};
use ibsim_scenario::{
    check_run_with, paper_corpus, random_scenario, run_corpus, run_scenario, shrink, CorpusOutcome,
    Injection, Scenario,
};

fn main() {
    let workers = arg_value("--workers").unwrap_or(4).max(1);
    let shards = arg_value("--shards").unwrap_or(1).max(1);
    let fuzz = arg_value("--fuzz").unwrap_or(0);
    let fuzz = if quick_mode() { fuzz.min(32) } else { fuzz };
    let minimize_demo = std::env::args().any(|a| a == "--minimize-demo");
    let mut failed = !run_stage("paper corpus", &paper_corpus(), workers, shards);

    if fuzz > 0 {
        let scenarios: Vec<Scenario> = (0..fuzz as u64).map(random_scenario).collect();
        failed |= !run_stage(&format!("fuzz x{fuzz}"), &scenarios, workers, shards);
    }

    if minimize_demo {
        failed |= !minimizer_demo();
    }

    if failed {
        std::process::exit(1);
    }
    println!("\n[scenario] all stages passed");
}

/// Runs one batch twice — a sequential-engine baseline with 1 worker,
/// then `workers` workers on `shards` PDES shards — prints the result
/// table, and returns false on oracle violations or divergence. With
/// `--shards 1` this is the classic thread-count-independence check;
/// with `--shards N` the same diff additionally enforces shard-count
/// conformance: every trace hash must survive the move to the sharded
/// executor byte for byte.
fn run_stage(label: &str, scenarios: &[Scenario], workers: usize, shards: usize) -> bool {
    header(&format!("scenario conformance: {label} (shards {shards})"));
    let baseline: Vec<Scenario> = scenarios
        .iter()
        .map(|sc| {
            let mut sc = sc.clone();
            sc.shards = 1;
            sc
        })
        .collect();
    let sharded: Vec<Scenario> = scenarios
        .iter()
        .map(|sc| {
            let mut sc = sc.clone();
            sc.shards = shards;
            sc
        })
        .collect();
    let serial = run_corpus(&baseline, 1);
    let parallel = run_corpus(&sharded, workers);
    let mut ok = true;
    let mut any_diverged = false;

    let widths = [24, 18, 12, 9];
    println!(
        "{}",
        row(
            &[
                "scenario".into(),
                "trace hash".into(),
                "sim end".into(),
                "oracle".into(),
            ],
            &widths
        )
    );
    for (s, p) in serial.iter().zip(&parallel) {
        let diverged = s.hash != p.hash || s != p;
        let status = if s.violations > 0 {
            "FAIL"
        } else if diverged {
            "DIVERGED"
        } else {
            "ok"
        };
        println!(
            "{}",
            row(
                &[
                    s.name.clone(),
                    format!("{:#018x}", s.hash),
                    format!("{:.2} ms", s.end_ns as f64 / 1e6),
                    status.into(),
                ],
                &widths
            )
        );
        if s.violations > 0 {
            println!("{}", indent(&s.report));
            ok = false;
        }
        if diverged {
            println!(
                "    workers=1/shards=1 hash {:#018x} != workers={workers}/shards={shards} \
                 hash {:#018x}",
                s.hash, p.hash
            );
            ok = false;
            any_diverged = true;
        }
    }
    let total: usize = serial.iter().map(|o: &CorpusOutcome| o.violations).sum();
    println!(
        "[scenario] {label}: {} scenario(s), {total} violation(s), \
         workers 1 vs {workers} / shards 1 vs {shards}: {}",
        serial.len(),
        if any_diverged {
            "MISMATCH"
        } else {
            "identical"
        }
    );
    ok
}

/// Plants `Injection::WriteCorruption`, shrinks the failing scenario,
/// and checks the reproducer is minimal (≤ 3 work requests).
fn minimizer_demo() -> bool {
    header("scenario minimizer demo");
    let corpus = paper_corpus();
    let Some(noisy) = corpus.into_iter().find(|s| s.name == "mixed-verbs") else {
        println!("[scenario] FAILED: mixed-verbs scenario missing from corpus");
        return false;
    };
    let still_fails = |sc: &Scenario| {
        let run = run_scenario(sc);
        !check_run_with(sc, &run, Some(Injection::WriteCorruption)).is_clean()
    };
    if !still_fails(&noisy) {
        println!("[scenario] FAILED: planted corruption did not fail the oracle");
        return false;
    }
    let (min, stats) = shrink(&noisy, still_fails);
    println!(
        "shrunk {} wrs -> {}, {} faults -> {}, {} loss phases -> {}, {} QPs -> {} \
         in {} predicate runs",
        stats.wrs.0,
        stats.wrs.1,
        stats.faults.0,
        stats.faults.1,
        stats.loss.0,
        stats.loss.1,
        stats.qps.0,
        stats.qps.1,
        stats.tests
    );
    println!(
        "minimal reproducer spec:\n{}",
        indent(&min.to_spec_string())
    );
    if !still_fails(&min) {
        println!("[scenario] FAILED: minimized scenario no longer fails");
        return false;
    }
    if min.wrs.len() > 3 {
        println!(
            "[scenario] FAILED: reproducer kept {} work requests (want <= 3)",
            min.wrs.len()
        );
        return false;
    }
    println!("[scenario] minimizer demo passed");
    true
}

/// Indents every line of a block by four spaces.
fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
