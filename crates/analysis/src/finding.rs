//! The findings model: what the linter reports and how.
//!
//! Every rule violation, anomaly, or pitfall signature the analyses
//! produce is a [`Finding`]: a rule identifier, a severity, a position in
//! the trace (time / flow / PSN where applicable), and a human-readable
//! message. A [`LintReport`] aggregates the findings of one linter run
//! with query helpers, so tests and CI can assert on exact rule counts.

use std::fmt;

use ibsim_event::SimTime;
use ibsim_verbs::Qpn;

/// Identifies which conformance rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// A fresh (non-retransmitted) request PSN went backwards.
    PsnMonotonicity,
    /// A fresh request PSN skipped ahead, leaving a hole.
    PsnContiguity,
    /// A sequence-error NAK arrived with no preceding out-of-order cause
    /// (no silently lost or ghosted request) visible in the trace.
    UnjustifiedSeqNak,
    /// A retransmission with no visible justification: no NAK, no
    /// observed loss, and too soon for an ACK timeout.
    UnjustifiedRetransmit,
    /// An ACK acknowledged a PSN never consumed by a request.
    UnmatchedAck,
    /// A READ/ATOMIC response referenced a request PSN never transmitted.
    UnmatchedResponse,
    /// A frame transmitted (and not marked dropped) never reached the
    /// receiver's capture point.
    TxNotDelivered,
    /// A frame appeared at the receiver with no matching transmission.
    RxWithoutTx,
    /// §V packet-damming signature: silent loss followed by an
    /// ACK-timeout-bounded idle gap.
    DammingSignature,
    /// §VI packet-flood signature: repeated identical retransmissions at
    /// the blind ODP retry cadence with responses discarded.
    FloodSignature,
    /// A damming ghost packet under a recovery backend whose rule set
    /// says the ghost quirk cannot occur (selective repeat, on-demand
    /// pinning).
    UnexpectedGhost,
}

impl RuleId {
    /// Every rule the analyses implement, in reporting order.
    pub const ALL: [RuleId; 11] = [
        RuleId::PsnMonotonicity,
        RuleId::PsnContiguity,
        RuleId::UnjustifiedSeqNak,
        RuleId::UnjustifiedRetransmit,
        RuleId::UnmatchedAck,
        RuleId::UnmatchedResponse,
        RuleId::TxNotDelivered,
        RuleId::RxWithoutTx,
        RuleId::DammingSignature,
        RuleId::FloodSignature,
        RuleId::UnexpectedGhost,
    ];

    /// True for the §V/§VI pitfall *signature* rules. Signature findings
    /// mean the trace exhibits a known ODP pathology — expected (and
    /// wanted) when replaying the paper's probe scenarios — whereas every
    /// other rule flags an RC protocol-conformance violation that is
    /// never acceptable. The scenario oracle fails runs only on the
    /// latter.
    pub fn is_pitfall_signature(self) -> bool {
        matches!(self, RuleId::DammingSignature | RuleId::FloodSignature)
    }

    /// Short stable mnemonic (used in rendered reports and CI grep).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::PsnMonotonicity => "PSN_MONOTONICITY",
            RuleId::PsnContiguity => "PSN_CONTIGUITY",
            RuleId::UnjustifiedSeqNak => "UNJUSTIFIED_SEQ_NAK",
            RuleId::UnjustifiedRetransmit => "UNJUSTIFIED_RETX",
            RuleId::UnmatchedAck => "UNMATCHED_ACK",
            RuleId::UnmatchedResponse => "UNMATCHED_RESPONSE",
            RuleId::TxNotDelivered => "TX_NOT_DELIVERED",
            RuleId::RxWithoutTx => "RX_WITHOUT_TX",
            RuleId::DammingSignature => "DAMMING_SIGNATURE",
            RuleId::FloodSignature => "FLOOD_SIGNATURE",
            RuleId::UnexpectedGhost => "UNEXPECTED_GHOST",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Noteworthy but not necessarily wrong.
    Info,
    /// Suspicious; worth a look.
    Warning,
    /// A protocol-conformance violation or a confirmed pitfall signature.
    Violation,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Violation => write!(f, "violation"),
        }
    }
}

/// One reported anomaly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Severity class.
    pub severity: Severity,
    /// Trace time the finding anchors to.
    pub at: SimTime,
    /// The flow `(local QP, remote QP)` involved, if per-flow.
    pub flow: Option<(Qpn, Qpn)>,
    /// The PSN involved, if any.
    pub psn: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A `Violation`-severity finding on one flow and PSN.
    pub(crate) fn violation(
        rule: RuleId,
        at: SimTime,
        flow: (Qpn, Qpn),
        psn: u32,
        message: String,
    ) -> Finding {
        Finding {
            rule,
            severity: Severity::Violation,
            at,
            flow: Some(flow),
            psn: Some(psn),
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} at {}", self.severity, self.rule, self.at)?;
        if let Some((l, r)) = self.flow {
            write!(f, " flow {l}->{r}")?;
        }
        if let Some(p) = self.psn {
            write!(f, " psn {p}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of linting one capture (or capture pair).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Every finding, in trace order per rule pass.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// True when no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings for one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Findings for one rule, in order.
    pub fn by_rule(&self, rule: RuleId) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Number of `Violation`-severity findings.
    pub fn violations(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Violation)
            .count()
    }

    /// `Violation`-severity findings from conformance rules only,
    /// excluding the §V/§VI pitfall signatures (which report expected
    /// pathologies, not protocol bugs; see
    /// [`RuleId::is_pitfall_signature`]).
    pub fn conformance_violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Violation && !f.rule.is_pitfall_signature())
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "lint clean: 0 findings");
        }
        writeln!(f, "{} finding(s):", self.findings.len())?;
        for rule in RuleId::ALL {
            let n = self.count(rule);
            if n > 0 {
                writeln!(f, "  {rule}: {n}")?;
            }
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: RuleId, severity: Severity) -> Finding {
        Finding {
            rule,
            severity,
            at: SimTime::from_us(3),
            flow: Some((Qpn(1), Qpn(2))),
            psn: Some(7),
            message: "test".into(),
        }
    }

    #[test]
    fn report_counts_by_rule_and_severity() {
        let mut r = LintReport::default();
        assert!(r.is_clean());
        r.findings
            .push(finding(RuleId::UnmatchedAck, Severity::Violation));
        r.findings
            .push(finding(RuleId::UnmatchedAck, Severity::Warning));
        r.findings
            .push(finding(RuleId::FloodSignature, Severity::Violation));
        assert!(!r.is_clean());
        assert_eq!(r.count(RuleId::UnmatchedAck), 2);
        assert_eq!(r.count(RuleId::PsnContiguity), 0);
        assert_eq!(r.violations(), 2);
        assert_eq!(r.by_rule(RuleId::FloodSignature).count(), 1);
    }

    #[test]
    fn display_is_greppable() {
        let f = finding(RuleId::DammingSignature, Severity::Violation);
        let s = f.to_string();
        assert!(s.contains("DAMMING_SIGNATURE"));
        assert!(s.contains("violation"));
        assert!(s.contains("qp1->qp2"));
        assert!(s.contains("psn 7"));
        let mut r = LintReport::default();
        r.findings.push(f);
        assert!(r.to_string().contains("1 finding(s)"));
        assert!(LintReport::default().to_string().contains("lint clean"));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = LintReport::default();
        a.findings
            .push(finding(RuleId::UnmatchedAck, Severity::Violation));
        let mut b = LintReport::default();
        b.findings
            .push(finding(RuleId::RxWithoutTx, Severity::Violation));
        a.merge(b);
        assert_eq!(a.findings.len(), 2);
    }
}
