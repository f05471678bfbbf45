//! `sweep`: the CI/fuzz user — thousands of tiny simulations.
//!
//! The 15-entry `paper_corpus()` plus `random_scenario(s)` for scenario
//! seeds 0..1024, each through `run_scenario` + `check_run`, on one
//! worker, in an order drawn from the seed argument.
//!
//! Why it is here: every scenario builds a world, runs it with capture,
//! telemetry, the linter, the reference model and the oracle always on,
//! and tears it down — world build/teardown, `scenario`, `analysis`,
//! capture and telemetry dominate, and the steady-state cost of an event
//! barely matters. It is the opposite of `flood`.
//!
//! Correctness: every scenario must come out of the differential oracle
//! clean and none may stall; each one that does not is a failed
//! operation and makes the pass incorrect. Three of the first 1027 fuzz
//! seeds — 436, 794 and 966, see [`KNOWN_VIOLATORS`] — violate the oracle
//! on the seed code. The benchmark contract wants workloads on which no
//! operation fails, so the timed passes take the first 1024 fuzz seeds
//! *other than* those three; the traced run still runs the three, lists
//! each with the first line of its report and counts those that still
//! violate in `scenario.violations`, so a correctness issue can pick
//! them up and its fix shows as that count going to zero.

use std::time::Instant;

use ibsim_scenario::{
    check_run, paper_corpus, random_scenario, run_scenario, OracleReport, Scenario,
};

use super::{
    derive_seed, plain_and_traced, secs, seeded_order, yardstick_span, Layers, PassOut, TraceOut,
    Workload,
};
use crate::alloc;
use crate::digest::Digest;
use crate::stats::percentile;
use crate::trace::{self, timed, Tracer};
use crate::yardstick::{Meter, Phase};

/// Fuzz seeds whose scenarios violate the oracle on the seed code
/// (found by running seeds 0..2000; CI stops at 256). Kept out of the
/// timed passes, probed by the traced run.
pub const KNOWN_VIOLATORS: [u64; 3] = [436, 794, 966];

/// The workload; see the module docs.
pub struct Sweep {
    order_seed: u64,
    fuzz: u64,
}

/// What a pass learned beyond [`PassOut`].
struct SweepOut {
    pass: PassOut,
    run_us: Vec<f64>,
    check_us: Vec<f64>,
    stalled: u64,
    alloc_setup: alloc::Snapshot,
}

impl Sweep {
    /// The first 1024 fuzz seeds outside [`KNOWN_VIOLATORS`] (quick: the
    /// first 48), visited in an order drawn from `seed`.
    ///
    /// The window of scenario seeds is fixed because the work in it is
    /// not: the fuzz scenarios' cost is heavy-tailed (p99 is six times
    /// the median), so another window is another amount of work and runs
    /// made with different seeds could not be compared. The order is the
    /// input the seed drives; every scenario is an independent world, so
    /// the order changes nothing that is simulated.
    pub fn new(seed: u64, quick: bool) -> Sweep {
        Sweep {
            order_seed: derive_seed(seed, 6),
            fuzz: if quick { 48 } else { 1024 },
        }
    }

    /// The pass's scenarios: the paper corpus, then the fuzz seeds.
    ///
    /// Every scenario is pinned to one shard. The load shape is one
    /// thread, and three quarters of the fuzz scenarios would otherwise
    /// run on 2-8 shard threads behind a condvar barrier — on a 2-core
    /// host that makes identical passes differ by 2x, which no bound can
    /// gate. Trace hashes are shard-invariant (the repository's own
    /// conformance battery pins that), so the digest is unaffected; the
    /// sharded executor is measured by `wide`'s traced run instead.
    fn generate(&self, tr: &mut Option<Tracer>) -> Vec<Scenario> {
        let mut all = timed(tr, "scenario.corpus", paper_corpus);
        all.reserve(self.fuzz as usize);
        let clean_seeds = (0u64..).filter(|s| !KNOWN_VIOLATORS.contains(s));
        for seed in clean_seeds.take(self.fuzz as usize) {
            all.push(timed(tr, "scenario.generate", || random_scenario(seed)));
        }
        for sc in &mut all {
            sc.shards = 1;
        }
        all
    }

    fn run(&self, tr: &mut Option<Tracer>) -> SweepOut {
        let mut meter = Meter::start();
        let a0 = alloc::snapshot();
        trace::enter(tr, "pass");
        trace::enter(tr, "setup");
        let t0 = Instant::now();
        let scenarios = self.generate(tr);
        let order = seeded_order(scenarios.len(), self.order_seed);
        meter.book(Phase::Setup, t0.elapsed().as_secs_f64());
        trace::exit(tr);
        let alloc_setup = alloc::snapshot().since(a0);

        let n = scenarios.len();
        let mut out = SweepOut {
            pass: PassOut {
                attempted: n as u64,
                unit_ms: Vec::with_capacity(n),
                ..PassOut::default()
            },
            run_us: Vec::with_capacity(n),
            check_us: Vec::with_capacity(n),
            stalled: 0,
            alloc_setup,
        };
        // Per-scenario identity, kept by scenario index so the digest does
        // not depend on the order of the visit.
        let mut identity = vec![[0u64; 3]; n];
        let mut failures: Vec<(usize, String)> = Vec::new();
        trace::enter(tr, "run");
        let run_started = Instant::now();
        for &i in &order {
            let sc = &scenarios[i];
            let s0 = Instant::now();
            let run = run_scenario(sc);
            let s1 = Instant::now();
            let report = check_run(sc, &run);
            let s2 = Instant::now();
            if let Some(t) = tr {
                t.leaf("scenario.run_scenario", s0, s1);
                t.leaf("scenario.check_run", s1, s2);
            }
            meter.book(Phase::Run, secs(s0, s1));
            out.run_us.push(secs(s0, s1) * 1e6);
            out.check_us.push(secs(s1, s2) * 1e6);
            out.pass.unit_ms.push(secs(s0, s2) * 1e3);
            identity[i] = [run.trace_hash, run.end_ns, report.violations.len() as u64];

            if run.stalled {
                out.stalled += 1;
            }
            if run.stalled || !report.is_clean() {
                out.pass.failed += 1;
                failures.push((i, format!("sweep: {}", describe(sc, run.stalled, &report))));
            }
            // The run's artifacts go before the yardstick is read, as
            // they would before the next scenario starts.
            drop((run, report));
            meter.lap_if_due();
        }
        if let Some(t) = tr {
            yardstick_span(t, run_started, &meter);
        }
        trace::exit(tr);
        trace::enter(tr, "finish");
        failures.sort();
        out.pass.errors = failures.into_iter().map(|(_, e)| e).collect();
        let mut digest = Digest::new();
        for words in &identity {
            digest.word(words[0]).word(words[1]).word(words[2]);
        }
        timed(tr, "drop", || drop(scenarios));
        trace::exit(tr);
        trace::exit(tr);
        out.pass.set_times(meter.finish());
        out.pass.digest = digest.finish();
        out
    }
}

/// One line on a scenario that stalled or came out of the oracle dirty:
/// its name, the violation count and the first line of the report.
fn describe(sc: &Scenario, stalled: bool, report: &OracleReport) -> String {
    let first = report
        .violations
        .first()
        .map_or_else(String::new, ToString::to_string);
    format!(
        "{}{}: {} oracle violation(s): {first}",
        sc.name,
        if stalled { " STALLED" } else { "" },
        report.violations.len()
    )
}

/// Runs the known violators once; returns how many still violate the
/// oracle and one line on each.
fn probe_known_violators() -> (u64, Vec<String>) {
    let mut still = 0;
    let mut notes = Vec::new();
    for seed in KNOWN_VIOLATORS {
        let mut sc = random_scenario(seed);
        sc.shards = 1;
        let run = run_scenario(&sc);
        let report = check_run(&sc, &run);
        if run.stalled || !report.is_clean() {
            still += 1;
            notes.push(format!(
                "known violator, not in the timed passes: {}",
                describe(&sc, run.stalled, &report)
            ));
        } else {
            notes.push(format!("known violator {} is now oracle-clean", sc.name));
        }
    }
    (still, notes)
}

impl Workload for Sweep {
    fn pass(&self) -> PassOut {
        self.run(&mut None).pass
    }

    fn setup_once(&self) -> f64 {
        let started = Instant::now();
        let scenarios = self.generate(&mut None);
        let order = seeded_order(scenarios.len(), self.order_seed);
        let seconds = started.elapsed().as_secs_f64();
        drop((scenarios, order));
        seconds
    }

    fn trace(&self) -> TraceOut {
        // The fastest of five passes of each kind.
        let (plain, traced, tracer) = plain_and_traced(5, |tr| self.run(tr), |out| out.pass.run_s);
        let mut pass = traced.pass.clone();
        super::expect_same_digest(&mut pass, "the untraced pass", plain.pass.digest);

        // Spans are wall time; `f` puts them on the pass's normalised
        // scale.
        let f = traced.pass.factor();
        let mut layers = Layers::default();
        layers.set(
            "scenario.generate_us",
            tracer.mean_ns("scenario.generate") * f / 1e3,
        );
        layers.set("scenario.run_us_p50", percentile(&traced.run_us, 50.0) * f);
        layers.set("scenario.run_us_p99", percentile(&traced.run_us, 99.0) * f);
        layers.set(
            "scenario.check_us_p50",
            percentile(&traced.check_us, 50.0) * f,
        );
        layers.set(
            "scenario.check_us_p99",
            percentile(&traced.check_us, 99.0) * f,
        );
        let (still_violating, notes) = probe_known_violators();
        pass.notes.extend(notes);
        layers.set("scenario.violations", still_violating as f64);
        layers.set("scenario.stalled", traced.stalled as f64);
        layers.set("alloc.setup_count", traced.alloc_setup.count as f64);
        layers.set("trace.overhead", traced.pass.run_s / plain.pass.run_s - 1.0);
        TraceOut {
            pass,
            tracer,
            layers,
        }
    }
}
