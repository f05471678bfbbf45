//! The differential RC oracle.
//!
//! [`check_run`] compares a [`ScenarioRun`] against the [`Expectation`]
//! computed from the scenario alone and asserts the properties a correct
//! RC implementation may never break, no matter what faults or loss the
//! schedule injected:
//!
//! 1. **Exactly-once completion** — every posted work request produced
//!    exactly one successful completion, in posting order per QP, with
//!    the right opcode and byte count; every SEND produced exactly one
//!    RECV completion on the responder. Duplicated or lost completions
//!    are precisely what a broken retransmission path produces.
//! 2. **Final memory-state equality** — both hosts' regions equal the
//!    reference model's sequential execution, byte for byte. Sound
//!    because [`Scenario::validate`] refuses every overlap whose outcome
//!    depends on how two QPs interleave, and RC responders replay (never
//!    re-execute) duplicate atomics.
//! 3. **Protocol conformance** — the `ibsim-analysis` trace linter and
//!    packet-conservation checks report no conformance violations (PSN
//!    monotonicity/contiguity, justified NAKs and retransmits, matched
//!    ACKs/responses, Tx/Rx conservation). The §V/§VI pitfall
//!    *signatures* are excluded: finding damming in a damming scenario
//!    is the expected result, not a bug.
//! 4. **Runtime invariants** — zero counted invariant violations
//!    (the counters are live in every build).
//! 5. **Telemetry stage-sum conservation** — every closed fault span's
//!    stage durations sum exactly to its end-to-end latency.
//! 6. **Liveness** — the run drained before its deadline.

use std::fmt;

use ibsim_verbs::{Completion, Payload};

use crate::exec::ScenarioRun;
use crate::reference::{Expectation, ExpectedComp, Injection};
use crate::spec::Scenario;

/// One oracle failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// The run hit its drain deadline with live events still queued.
    Stalled,
    /// A completion stream diverged from the reference model.
    CompletionMismatch {
        /// `"client"` or `"server"`.
        side: &'static str,
        /// QP index within the scenario.
        qp: usize,
        /// What diverged.
        detail: String,
    },
    /// A completion arrived on a QP number the scenario never created.
    StrayCompletions(
        /// How many.
        usize,
    ),
    /// A memory image diverged from the reference model.
    MemoryMismatch {
        /// `"client"` or `"server"`.
        side: &'static str,
        /// First diverging byte offset.
        offset: usize,
        /// Simulated value.
        got: u8,
        /// Reference value.
        want: u8,
    },
    /// The trace linter reported a protocol-conformance violation.
    Conformance(
        /// The rendered finding.
        String,
    ),
    /// Runtime invariant counters were nonzero.
    Invariants(
        /// Total violations counted.
        u64,
    ),
    /// Closed telemetry spans broke the stage-sum law.
    StageSum(
        /// How many spans.
        usize,
    ),
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::Stalled => write!(f, "run stalled: drain deadline hit"),
            OracleViolation::CompletionMismatch { side, qp, detail } => {
                write!(f, "{side} completions diverged on QP {qp}: {detail}")
            }
            OracleViolation::StrayCompletions(n) => {
                write!(f, "{n} completion(s) on unknown QPs")
            }
            OracleViolation::MemoryMismatch {
                side,
                offset,
                got,
                want,
            } => write!(
                f,
                "{side} memory diverged at byte {offset}: got {got:#04x}, want {want:#04x}"
            ),
            OracleViolation::Conformance(finding) => write!(f, "conformance: {finding}"),
            OracleViolation::Invariants(n) => {
                write!(f, "{n} runtime invariant violation(s)")
            }
            OracleViolation::StageSum(n) => {
                write!(f, "{n} span(s) broke stage-sum conservation")
            }
        }
    }
}

/// The outcome of checking one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Every violation found, in check order.
    pub violations: Vec<OracleViolation>,
}

impl OracleReport {
    /// True when the run passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "oracle clean");
        }
        writeln!(f, "{} oracle violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Checks a run against the reference model. See the module docs for the
/// property list.
pub fn check_run(sc: &Scenario, run: &ScenarioRun) -> OracleReport {
    check_run_with(sc, run, None)
}

/// [`check_run`] with an optional planted [`Injection`] — used by the
/// minimizer demonstration and its tests to manufacture failures whose
/// minimal reproducer is known.
pub fn check_run_with(sc: &Scenario, run: &ScenarioRun, inject: Option<Injection>) -> OracleReport {
    let expect = Expectation::compute(sc, inject);
    let mut report = OracleReport::default();

    if run.stalled {
        report.violations.push(OracleViolation::Stalled);
    }
    if run.stray_comps > 0 {
        report
            .violations
            .push(OracleViolation::StrayCompletions(run.stray_comps));
    }

    for qp in 0..sc.qps {
        check_stream(
            &mut report,
            "client",
            qp,
            &run.client_comps[qp],
            &expect.client_comps[qp],
        );
        check_stream(
            &mut report,
            "server",
            qp,
            &run.server_comps[qp],
            &expect.server_comps[qp],
        );
    }

    check_memory(&mut report, "client", &run.client_mem, &expect.client_mem);
    check_memory(&mut report, "server", &run.server_mem, &expect.server_mem);

    for finding in run.lint.conformance_violations() {
        report
            .violations
            .push(OracleViolation::Conformance(finding.to_string()));
    }
    if run.invariant_violations > 0 {
        report
            .violations
            .push(OracleViolation::Invariants(run.invariant_violations));
    }
    let stage_sum_violations = run.telemetry.stage_sum_violations();
    if stage_sum_violations > 0 {
        report
            .violations
            .push(OracleViolation::StageSum(stage_sum_violations));
    }
    report
}

/// Compares one QP's completion stream with the expected sequence:
/// same length (exactly-once), same ids in the same order (per-QP RC
/// ordering), all successful, right opcodes and byte counts.
fn check_stream(
    report: &mut OracleReport,
    side: &'static str,
    qp: usize,
    got: &[Completion],
    want: &[ExpectedComp],
) {
    let mismatch = |detail: String| OracleViolation::CompletionMismatch { side, qp, detail };
    if got.len() != want.len() {
        report.violations.push(mismatch(format!(
            "expected {} completion(s), got {}",
            want.len(),
            got.len()
        )));
        return;
    }
    for (c, &(id, op, bytes)) in got.iter().zip(want) {
        if !c.status.is_success() {
            report.violations.push(mismatch(format!(
                "wr {} completed with {}",
                c.wr_id.0, c.status
            )));
        }
        if c.wr_id.0 != id {
            report
                .violations
                .push(mismatch(format!("expected wr id {id}, got {}", c.wr_id.0)));
        }
        if c.opcode != op {
            report.violations.push(mismatch(format!(
                "wr {id}: expected {op}, got {}",
                c.opcode
            )));
        }
        // RECV completions report the received payload length (equal to
        // the send length for our matched posts); requester completions
        // echo the request length.
        if c.bytes != bytes {
            report.violations.push(mismatch(format!(
                "wr {id}: expected {bytes} byte(s), got {}",
                c.bytes
            )));
        }
    }
}

/// Byte-compares a final memory image, the run's page view, with the
/// reference's flat image, reporting the first divergence only (one bad
/// store usually smears a whole range).
fn check_memory(report: &mut OracleReport, side: &'static str, got: &[Payload], want: &[u8]) {
    let mut offset = 0;
    for bytes in got.iter().flat_map(|page| <[&[u8]; 2]>::from(page.parts())) {
        let want = want.get(offset..).unwrap_or_default();
        if let Some(i) = bytes.iter().zip(want).position(|(g, w)| g != w) {
            report.violations.push(OracleViolation::MemoryMismatch {
                side,
                offset: offset + i,
                got: bytes[i],
                want: want[i],
            });
            return;
        }
        offset += bytes.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_scenario;
    use crate::spec::{LossPhase, LossSpec, Scenario, WrSpec};

    fn mixed_scenario() -> Scenario {
        let mut sc = Scenario::base("oracle-mixed");
        sc.qps = 2;
        sc.slot = 64;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 16 }),
            (0, WrSpec::Read { off: 0, len: 16 }),
            (1, WrSpec::Send { off: 8, len: 8 }),
            (1, WrSpec::FetchAdd { off: 32, add: 3 }),
            (
                0,
                WrSpec::CompareSwap {
                    off: 48,
                    compare: 0,
                    swap: 1,
                },
            ),
        ];
        sc
    }

    #[test]
    fn clean_run_passes_every_check() {
        let sc = mixed_scenario();
        let run = run_scenario(&sc);
        let report = check_run(&sc, &run);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn lossy_run_still_passes() {
        // Loss exercises retransmission; the oracle's point is that the
        // *observable* contract survives it.
        let mut sc = mixed_scenario();
        sc.loss = vec![
            LossPhase {
                at_ns: 0,
                model: LossSpec::Uniform {
                    prob_milli: 20,
                    seed: 3,
                },
            },
            LossPhase {
                at_ns: 200_000,
                model: LossSpec::None,
            },
        ];
        let run = run_scenario(&sc);
        let report = check_run(&sc, &run);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn injection_fails_exactly_when_qp0_writes_exist() {
        let sc = mixed_scenario();
        let run = run_scenario(&sc);
        let bent = check_run_with(&sc, &run, Some(Injection::WriteCorruption));
        assert!(
            bent.violations
                .iter()
                .any(|v| matches!(v, OracleViolation::MemoryMismatch { side: "server", .. })),
            "{bent}"
        );

        // Without any WRITE on QP 0 the injection is inert.
        let mut sc2 = mixed_scenario();
        sc2.wrs
            .retain(|&(q, w)| !(q == 0 && matches!(w, WrSpec::Write { .. })));
        let run2 = run_scenario(&sc2);
        assert!(check_run_with(&sc2, &run2, Some(Injection::WriteCorruption)).is_clean());
    }

    #[test]
    fn report_renders_readably() {
        let mut report = OracleReport::default();
        assert_eq!(report.to_string(), "oracle clean");
        report.violations.push(OracleViolation::Stalled);
        report.violations.push(OracleViolation::MemoryMismatch {
            side: "client",
            offset: 7,
            got: 1,
            want: 2,
        });
        let text = report.to_string();
        assert!(text.contains("2 oracle violation(s)"));
        assert!(text.contains("byte 7"));
    }
}
