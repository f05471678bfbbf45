//! # ibsim-scenario
//!
//! Seeded fault-schedule fuzzing with a differential RC oracle and a
//! parallel conformance runner.
//!
//! The paper's findings hinge on rare interleavings — a request racing a
//! QP's fault-recovery window (§V packet damming) or dozens of QPs
//! faulting on one page at once (§VI packet flood). Hand-written probe
//! configs exercise exactly two of those interleavings; this crate turns
//! the simulator into a conformance machine over a *space* of schedules:
//!
//! * [`Scenario`] — a serializable spec combining topology (QP count),
//!   a typed workload per QP, a deterministic fault schedule (ODP page
//!   invalidation bursts, NIC translation-cache evictions, fabric loss
//!   phases — rate and Gilbert–Elliott burst loss) and a seed;
//! * [`paper_corpus`] — scenarios derived from the paper's §V/§VI probes
//!   and the §IX-A workaround ablations, plus [`random_scenario`], a
//!   seeded generator for fuzzing;
//! * [`run_scenario`] + [`check_run`] — the differential oracle: every
//!   run is replayed against a tiny reference model of RC semantics
//!   ([`Expectation`]) and checked for exactly-once completion, per-QP
//!   PSN conformance (via `ibsim-analysis`), final memory-state
//!   equality, and telemetry stage-sum conservation;
//! * [`shrink`] — a failing-seed minimizer that deletes work requests,
//!   fault events and loss phases while a failure predicate holds,
//!   producing a minimal reproducer;
//! * [`run_corpus`] — a multi-threaded corpus runner whose per-scenario
//!   FNV trace hashes are byte-identical for any worker count, proving
//!   run-level determinism while cutting wall time.
//!
//! # Examples
//!
//! Run one paper-derived scenario through the oracle:
//!
//! ```
//! use ibsim_scenario::{check_run, paper_corpus, run_scenario};
//!
//! let corpus = paper_corpus();
//! let damming = &corpus[0];
//! let run = run_scenario(damming);
//! let report = check_run(damming, &run);
//! assert!(report.is_clean(), "{report}");
//! ```

#![warn(missing_docs)]

mod corpus;
mod device;
mod exec;
mod generator;
mod oracle;
mod parallel;
mod reference;
mod shrink;
mod spec;

pub use corpus::paper_corpus;
pub use exec::{
    run_scenario, run_scenario_plan, run_scenario_with, RunOptions, ScenarioRun, TelemetryMode,
};
pub use generator::random_scenario;
pub use ibsim_verbs::ShardPlan;
pub use oracle::{check_run, check_run_with, OracleReport, OracleViolation};
pub use parallel::{run_corpus, CorpusOutcome};
pub use reference::{Expectation, Injection};
pub use shrink::{shrink, ShrinkStats};
pub use spec::{
    FaultEvent, Layout, LossPhase, LossSpec, Prefetch, Scenario, Side, WrSpec, POST_OVERHEAD_NS,
};
