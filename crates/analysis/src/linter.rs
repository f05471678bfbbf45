//! The RC protocol-conformance trace linter.
//!
//! [`lint_capture`] takes one host's `ibdump`-style capture and checks
//! the *requester-side* transport invariants packet by packet:
//!
//! * fresh request PSNs are monotone and contiguous per flow,
//! * every sequence-error NAK is preceded by an out-of-order cause
//!   (a silently lost or ghosted request) visible in the trace,
//! * every retransmission is justified by a NAK, an observed loss, or a
//!   plausible ACK timeout,
//! * every ACK and READ/ATOMIC response matches an outstanding request.
//!
//! What justifies a retransmission, and whether a ghost may appear at
//! all, depends on the loss-recovery backend that produced the trace:
//! [`LintConfig`] names it, and the walk asks its own capability
//! predicates.
//!
//! The checks are the verdicts of the one capture walk (`record.rs`), in
//! capture order; the §V/§VI pitfall signatures follow as shapes of the
//! request record it builds, so one call yields both conformance
//! violations and pitfall findings. The walk reads the capture from the
//! requester's seat; responder-side traffic is covered by linting the
//! peer's capture and by [`check_conservation`](crate::check_conservation).

use ibsim_fabric::Capture;
use ibsim_verbs::{Packet, RecoveryKind};

use crate::finding::{Finding, LintReport};
use crate::{record, signature};

/// Linter settings: the recovery backend that produced the trace.
///
/// What counts as legal recovery behaviour is a property of the
/// loss-recovery backend driving the requester, not of RC itself, so the
/// walk asks the [`RecoveryKind`] under test the same capability
/// predicates the simulator's engines ask. Two rules differ:
///
/// * **Ghosts** ([`RecoveryKind::ghost_quirks`]). The damming ghost (a
///   request swallowed inside the engine's fault-recovery window, §V) is
///   a go-back-N engine quirk. Selective repeat and on-demand pinning
///   never open that window, so a ghost-flagged transmission under them
///   is a violation.
/// * **Event-driven stall resume** (not
///   [`RecoveryKind::blind_stall_tick`]). Selective repeat resumes a
///   stalled message when its fault resolves, which can legally
///   retransmit well under the ACK-timeout hint. The trace evidence is
///   the response that arrived since the last attempt yet left the
///   message unfinished — it must have been discarded at the ODP landing
///   gate. Go-back-N resumes on a blind ≥ 0.5 ms cadence that always
///   clears the timeout hint, so it needs (and earns) no such
///   justification.
///
/// Same-instant batch inheritance holds for every backend: all three
/// retransmit recovery batches at one instant (go-back-N rolls back its
/// window; selective repeat resends the refused message plus the
/// undelivered successors a fault pendency silently dropped), and a
/// batch tail first transmitted after the triggering NAK inherits the
/// head's justification either way.
///
/// The thresholds are constants: a retransmission at least 100 µs after
/// the previous attempt is a plausible ACK timeout, a silent loss
/// followed by a NAK-free stall of 20 ms is damming, and five
/// transmissions of one request at a median cadence within 0.1–2 ms are
/// a flood.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// The recovery backend under test. Defaults to go-back-N, the
    /// paper's hardware.
    pub recovery: RecoveryKind,
}

/// Lints one capture against the requester-side RC conformance rules,
/// then appends the §V/§VI pitfall signature findings.
///
/// # Examples
///
/// A clean capture yields a clean report:
///
/// ```
/// use ibsim_analysis::{lint_capture, LintConfig};
/// use ibsim_fabric::Capture;
/// use ibsim_verbs::Packet;
///
/// let cap: Capture<Packet> = Capture::new();
/// let report = lint_capture(&cap, &LintConfig::default());
/// assert!(report.is_clean());
/// ```
pub fn lint_capture(cap: &Capture<Packet>, cfg: &LintConfig) -> LintReport {
    let rec = record::walk(cap, cfg.recovery);
    let signatures: Vec<Finding> = signature::damming(&rec)
        .chain(signature::floods(&rec))
        .collect();
    let mut findings = rec.findings;
    findings.extend(signatures);
    LintReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        ack, nak_rnr, nak_seq, read_req, read_resp, rx, tx, tx_dropped, tx_ghost, tx_retx,
    };
    use crate::RuleId;
    use ibsim_verbs::Psn;

    /// Lints a fixture under one backend, replayed against the reference.
    fn lint_with(cap: &Capture<Packet>, recovery: RecoveryKind) -> LintReport {
        crate::reference::replay(cap, recovery);
        lint_capture(cap, &LintConfig { recovery })
    }

    fn lint(cap: &Capture<Packet>) -> LintReport {
        lint_with(cap, RecoveryKind::default())
    }

    #[test]
    fn empty_capture_is_clean() {
        let cap: Capture<Packet> = Capture::new();
        assert!(lint(&cap).is_clean());
    }

    #[test]
    fn clean_read_exchange_is_clean() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 3_000, read_resp(0, 0));
        tx(&mut cap, 4_000, read_req(1, 1));
        rx(&mut cap, 6_000, read_resp(1, 1));
        let report = lint(&cap);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn psn_hole_is_contiguity_violation() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        tx(&mut cap, 2_000, read_req(5, 1)); // skips 1..=4
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::PsnContiguity), 1, "{report}");
        let f = report.by_rule(RuleId::PsnContiguity).next().unwrap();
        assert_eq!(f.psn, Some(5));
        assert!(f.message.contains("5-PSN hole") || f.message.contains("hole"));
    }

    #[test]
    fn psn_reuse_is_monotonicity_violation() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        tx(&mut cap, 2_000, read_req(1, 1));
        tx(&mut cap, 3_000, read_req(0, 1)); // fresh reuse of psn 0
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::PsnMonotonicity), 1, "{report}");
    }

    #[test]
    fn multi_packet_read_spans_are_contiguous() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 4)); // consumes 0..=3
        tx(&mut cap, 2_000, read_req(4, 1));
        assert!(lint(&cap).is_clean());
    }

    #[test]
    fn go_back_n_across_psn_wrap_is_clean() {
        // The fresh-request window walks across the 24-bit boundary
        // (…, 0xFF_FFFE, 0xFF_FFFF, 0, 1). The packet at the boundary is
        // dropped, the responder NAKs naming it, and go-back-N replays
        // the whole straddling window at one instant. None of that may
        // trip the monotonicity, contiguity or retransmit rules: the
        // wrap is ordinary PSN arithmetic, not a protocol event.
        let m = Psn::MODULUS;
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(m - 2, 1));
        tx_dropped(&mut cap, 2_000, read_req(m - 1, 1));
        tx(&mut cap, 3_000, read_req(0, 1)); // fresh wrap: no hole, no reuse
        tx(&mut cap, 4_000, read_req(1, 1));
        rx(&mut cap, 6_000, nak_seq(m - 1));
        tx_retx(&mut cap, 7_000, read_req(m - 1, 1));
        tx_retx(&mut cap, 7_000, read_req(0, 1));
        tx_retx(&mut cap, 7_000, read_req(1, 1));
        rx(&mut cap, 9_000, ack(1));
        let report = lint(&cap);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn multi_packet_read_span_across_psn_wrap_is_clean() {
        // One READ whose response segments reserve PSNs straddling the
        // boundary: 0xFF_FFFE, 0xFF_FFFF, 0, 1 — the next fresh request
        // must pick up at 2 without a contiguity finding.
        let m = Psn::MODULUS;
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(m - 2, 4));
        tx(&mut cap, 2_000, read_req(2, 1));
        assert!(lint(&cap).is_clean());
    }

    #[test]
    fn acks_inside_a_read_span_match_it_across_psn_wrap() {
        // A READ reserving 0xFF_FFFE, 0xFF_FFFF, 0, 1 consumes all four
        // PSNs, so an ACK naming any of them matches it — the one below
        // the wrap through the nearest request, the one above through
        // the span that wraps past 2^24 — while an ACK past the span
        // matches nothing.
        let m = Psn::MODULUS;
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(m - 2, 4));
        rx(&mut cap, 2_000, ack(m - 1));
        rx(&mut cap, 3_000, ack(1));
        assert!(lint(&cap).is_clean());
        rx(&mut cap, 4_000, ack(2));
        assert_eq!(lint(&cap).count(RuleId::UnmatchedAck), 1);
    }

    #[test]
    fn psn_hole_across_wrap_is_still_flagged() {
        // Wraparound must not excuse real holes: jumping 0xFF_FFFF → 3
        // skips 0..=2 and is a contiguity violation like any other.
        let m = Psn::MODULUS;
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(m - 1, 1));
        tx(&mut cap, 2_000, read_req(3, 1));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::PsnContiguity), 1, "{report}");
        let f = report.by_rule(RuleId::PsnContiguity).next().unwrap();
        assert_eq!(f.psn, Some(3));
        // ...and stale pre-wrap PSNs reappearing as fresh requests are
        // monotonicity violations, not fresh window members.
        tx(&mut cap, 3_000, read_req(m - 1, 1));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::PsnMonotonicity), 1, "{report}");
    }

    #[test]
    fn seq_nak_without_loss_is_flagged() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 2_000, nak_seq(1));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedSeqNak), 1, "{report}");
    }

    #[test]
    fn seq_nak_after_drop_is_justified() {
        let mut cap = Capture::new();
        cap.enable();
        tx_dropped(&mut cap, 1_000, read_req(0, 1));
        tx(&mut cap, 2_000, read_req(1, 1));
        rx(&mut cap, 3_000, nak_seq(0));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedSeqNak), 0, "{report}");
    }

    #[test]
    fn early_retransmit_without_cause_is_flagged() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        tx_retx(&mut cap, 11_000, read_req(0, 1)); // 10 µs later: too soon
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 1, "{report}");
    }

    #[test]
    fn timeout_paced_retransmit_is_justified() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        tx_retx(&mut cap, 1_000 + 300_000, read_req(0, 1)); // 300 µs later
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 0, "{report}");
    }

    #[test]
    fn nak_justifies_prompt_retransmit() {
        let mut cap = Capture::new();
        cap.enable();
        tx_dropped(&mut cap, 1_000, read_req(0, 1));
        tx(&mut cap, 2_000, read_req(1, 1));
        rx(&mut cap, 5_000, nak_seq(0));
        tx_retx(&mut cap, 6_000, read_req(0, 1));
        tx_retx(&mut cap, 7_000, read_req(1, 1));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 0, "{report}");
    }

    #[test]
    fn seq_nak_after_rnr_refusal_is_justified() {
        // The RNR-refused request is still expected by the responder, so
        // a younger request transmitted during the backoff draws a
        // sequence error without any packet loss.
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 2_000, nak_rnr()); // refuses psn 0
        tx(&mut cap, 3_000, read_req(1, 1));
        rx(&mut cap, 4_000, nak_seq(0));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedSeqNak), 0, "{report}");
    }

    #[test]
    fn go_back_n_batch_tail_inherits_head_justification() {
        // An RNR backoff expiring after a younger request's first
        // transmission retransmits the whole batch at one instant; the
        // tail's own [prev, at] window misses the NAK.
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 2_000, nak_rnr());
        tx(&mut cap, 3_000, read_req(1, 1));
        tx_retx(&mut cap, 40_000, read_req(0, 1)); // justified by the NAK
        tx_retx(&mut cap, 40_000, read_req(1, 1)); // same-instant batch tail
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 0, "{report}");
    }

    #[test]
    fn event_driven_resume_justifies_landing_discard_retransmit() {
        // A READ response arrives 30 µs after the request — but the
        // landing page is unmapped, the NIC discards it, and the fault
        // resolution resumes the request well under the timeout hint.
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 31_000, read_resp(0, 0));
        tx_retx(&mut cap, 38_000, read_req(0, 1));
        let report = lint_with(&cap, RecoveryKind::SelectiveRepeat);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 0, "{report}");
        // Go-back-N earns no such justification: its stall resume is a
        // blind cadence that always clears the timeout hint, so the
        // same capture is a violation under its rules.
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 1, "{report}");
    }

    #[test]
    fn resume_needs_a_response_since_the_last_attempt() {
        // The response predates the previous attempt: it cannot explain
        // the second retransmission even under event-driven resume.
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 31_000, read_resp(0, 0));
        tx_retx(&mut cap, 38_000, read_req(0, 1));
        tx_retx(&mut cap, 45_000, read_req(0, 1));
        let report = lint_with(&cap, RecoveryKind::SelectiveRepeat);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 1, "{report}");
    }

    #[test]
    fn batch_tail_inheritance_holds_for_every_backend() {
        // Selective repeat also batches: an RNR expiry resends the
        // refused message plus the pendency-dropped successors at one
        // instant, so the tail inherits the head's NAK justification
        // under every rule set.
        for kind in RecoveryKind::ALL {
            let mut cap = Capture::new();
            cap.enable();
            tx(&mut cap, 1_000, read_req(0, 1));
            rx(&mut cap, 2_000, nak_rnr());
            tx(&mut cap, 3_000, read_req(1, 1));
            tx_retx(&mut cap, 40_000, read_req(0, 1));
            tx_retx(&mut cap, 40_000, read_req(1, 1));
            let report = lint_with(&cap, kind);
            assert_eq!(
                report.count(RuleId::UnjustifiedRetransmit),
                0,
                "{kind}: {report}"
            );
        }
    }

    #[test]
    fn ghosts_are_violations_under_non_quirk_backends() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000, read_req(0, 1));
        assert_eq!(lint(&cap).count(RuleId::UnexpectedGhost), 0);
        for kind in [RecoveryKind::SelectiveRepeat, RecoveryKind::OnDemandPin] {
            let report = lint_with(&cap, kind);
            assert_eq!(report.count(RuleId::UnexpectedGhost), 1, "{kind}");
        }
    }

    /// The two rules the walk asks the backend: whether ghosts are
    /// expected, and whether event-driven resume justifies a resend.
    #[test]
    fn recovery_rules_follow_the_backend_kind() {
        let rules = RecoveryKind::ALL.map(|k| (k.token(), k.ghost_quirks(), !k.blind_stall_tick()));
        assert_eq!(
            rules,
            [
                ("gbn", true, false),
                ("irn", false, true),
                ("pin", false, false)
            ]
        );
        assert_eq!(LintConfig::default().recovery, RecoveryKind::GoBackN);
    }

    #[test]
    fn retransmit_at_a_different_instant_is_not_a_batch_tail() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 2_000, nak_rnr());
        tx(&mut cap, 3_000, read_req(1, 1));
        tx_retx(&mut cap, 40_000, read_req(0, 1));
        tx_retx(&mut cap, 45_000, read_req(1, 1)); // 5 µs later: no batch
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 1, "{report}");
    }

    #[test]
    fn retransmit_of_unseen_psn_is_flagged() {
        let mut cap = Capture::new();
        cap.enable();
        tx_retx(&mut cap, 1_000, read_req(9, 1));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 1);
        assert!(report.findings[0].message.contains("never transmitted"));
    }

    #[test]
    fn unmatched_ack_and_response_are_flagged() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 1_000, read_req(0, 1));
        rx(&mut cap, 2_000, ack(17));
        rx(&mut cap, 3_000, read_resp(12, 0));
        let report = lint(&cap);
        assert_eq!(report.count(RuleId::UnmatchedAck), 1, "{report}");
        assert_eq!(report.count(RuleId::UnmatchedResponse), 1, "{report}");
    }
}
