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
//! [`RecoveryRules::for_kind`] reads that off the backend's own
//! capability predicates.
//!
//! It then runs the pitfall signature detectors from [`crate::signature`]
//! over the same capture, so one call yields both conformance violations
//! and §V/§VI pitfall findings.
//!
//! A *flow* is the ordered pair (local QP, remote QP). The linter views
//! the capture from the requester's seat: transmitted requests, received
//! acknowledgements. Responder-side traffic (received requests, sent
//! ACKs) is covered by running the linter on the peer's capture and by
//! [`crate::conservation`].

use std::collections::{BTreeMap, BTreeSet};

use ibsim_event::SimTime;
use ibsim_fabric::{Capture, Direction};
use ibsim_verbs::{NakKind, Packet, PacketKind, Psn, Qpn, RecoveryKind};

use crate::finding::{Finding, LintReport, RuleId, Severity};
use crate::signature;

/// The conformance rule set one recovery backend earns.
///
/// What counts as legal recovery behaviour is a property of the
/// loss-recovery backend driving the requester, not of RC itself, so the
/// linter reads its rule set off the [`RecoveryKind`] under test — the
/// same capability predicates the simulator's engines ask — instead of
/// restating them. Two rules differ:
///
/// * **Ghosts.** The damming ghost (a request swallowed inside the
///   engine's fault-recovery window, §V) is a go-back-N engine quirk.
///   Selective repeat and on-demand pinning never open that window, so
///   a ghost-flagged transmission under their rule sets is a violation.
/// * **Event-driven stall resume.** Selective repeat resumes a stalled
///   message when its fault resolves, which can legally retransmit
///   well under the ACK-timeout hint. The trace evidence is the
///   response that arrived since the last attempt yet left the message
///   unfinished — it must have been discarded at the ODP landing gate.
///   Go-back-N resumes on a blind ≥ 0.5 ms cadence that always clears
///   the timeout hint, so it needs (and earns) no such justification.
///
/// Same-instant batch inheritance stays on for every backend: all
/// three retransmit recovery batches at one instant (go-back-N rolls
/// back its window; selective repeat resends the refused message plus
/// the undelivered successors a fault pendency silently dropped), and
/// a batch tail first transmitted after the triggering NAK inherits
/// the head's justification either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRules {
    /// Backend label used in findings and reports.
    pub backend: &'static str,
    /// Whether damming ghost packets are an expected engine quirk.
    /// When false, any ghost-flagged transmission is a violation.
    pub ghosts_expected: bool,
    /// Whether a retransmission is additionally justified by a response
    /// for the same PSN arriving since the last attempt (event-driven
    /// resume after an ODP landing-gate discard).
    pub event_driven_resume: bool,
}

impl RecoveryRules {
    /// The rule set the simulator's recovery backend `kind` earns.
    pub fn for_kind(kind: RecoveryKind) -> Self {
        RecoveryRules {
            backend: kind.token(),
            ghosts_expected: kind.ghost_quirks(),
            event_driven_resume: !kind.blind_stall_tick(),
        }
    }
}

impl Default for RecoveryRules {
    /// Go-back-N, the paper's hardware.
    fn default() -> Self {
        RecoveryRules::for_kind(RecoveryKind::GoBackN)
    }
}

/// Tunables for the linter and the signature detectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Shortest interval after which a spontaneous retransmission is
    /// accepted as a plausible transport (ACK) timeout. Should sit below
    /// the smallest `T_o` any profile in the trace can produce; the
    /// vendor floor `C_ack = 5` gives `T_o ≈ 245 µs`.
    pub ack_timeout_hint: SimTime,
    /// Minimum silent gap after an unexplained loss to call damming.
    /// The paper's stalls run to hundreds of milliseconds; 20 ms cleanly
    /// separates them from RNR waits (§V).
    pub damming_min_stall: SimTime,
    /// Minimum transmissions of one request to consider a flood storm
    /// (the paper saw "hundreds"; ≥5 is already anomalous, §VI).
    pub flood_min_transmissions: u64,
    /// Inclusive band of retransmit cadences treated as the blind ODP
    /// retry timer (~0.5 ms on ConnectX-4, Fig. 1 right).
    pub flood_cadence: (SimTime, SimTime),
    /// Justification rule set supplied by the recovery backend under
    /// test (see [`RecoveryRules`]). Defaults to go-back-N, the paper's
    /// hardware.
    pub rules: RecoveryRules,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            ack_timeout_hint: SimTime::from_us(100),
            damming_min_stall: SimTime::from_ms(20),
            flood_min_transmissions: 5,
            flood_cadence: (SimTime::from_us(100), SimTime::from_ms(2)),
            rules: RecoveryRules::default(),
        }
    }
}

/// Requester-side linter state for one flow (local QP, remote QP).
#[derive(Default)]
struct FlowState {
    /// Next expected fresh request PSN; `None` until the first request.
    expected: Option<Psn>,
    /// Every PSN value consumed by a fresh request (window membership).
    consumed: BTreeSet<u32>,
    /// PSNs of transmitted READ requests (fresh or retransmitted).
    read_psns: BTreeSet<u32>,
    /// PSNs of transmitted ATOMIC requests.
    atomic_psns: BTreeSet<u32>,
    /// Last transmission time per request PSN.
    last_tx: BTreeMap<u32, SimTime>,
    /// Time of the most recent NAK received on this flow.
    last_nak_rx: Option<SimTime>,
    /// Time of the most recent silently lost (dropped/ghost) request Tx.
    last_silent_loss: Option<SimTime>,
    /// PSN values of every NAK received on this flow. A NAK'd request
    /// was delivered but *refused* (RNR) or rejected out-of-order, so
    /// the responder still expects it — which justifies a later
    /// sequence-error NAK naming that PSN without any packet loss.
    nak_psns: BTreeSet<u32>,
    /// Time of the most recent *justified* retransmission on this flow.
    /// Recovery batches are emitted at one instant in ascending PSN
    /// order; trailing members inherit the head's justification even
    /// when their own first transmission postdates the triggering NAK.
    last_justified_retx: Option<SimTime>,
    /// Last time a response or acknowledgment was received per PSN.
    /// Under an event-driven-resume rule set, a response that arrived
    /// since a request's last attempt yet left it needing retransmission
    /// evidences an ODP landing-gate discard.
    last_response_rx: BTreeMap<u32, SimTime>,
}

/// How many consecutive PSNs a fresh request packet consumes.
fn psn_span(kind: &PacketKind) -> u32 {
    match kind {
        // A READ reserves one PSN per response segment.
        PacketKind::ReadRequest { resp_packets, .. } => (*resp_packets).max(1),
        // WRITE/SEND segments and ATOMICs each carry exactly one PSN.
        PacketKind::WriteRequest { .. }
        | PacketKind::Send { .. }
        | PacketKind::AtomicRequest { .. } => 1,
        // Responses and (N)ACKs consume no requester PSN space; callers
        // only pass requests here, and one is the safe identity.
        PacketKind::ReadResponse { .. }
        | PacketKind::AtomicResponse { .. }
        | PacketKind::Ack
        | PacketKind::Nak(_) => 1,
    }
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
    let mut report = LintReport::default();
    let mut flows: BTreeMap<(Qpn, Qpn), FlowState> = BTreeMap::new();

    for r in cap {
        let p = &r.payload;
        match r.direction {
            Direction::Tx if p.kind.is_request() => {
                let key = (p.src_qp, p.dst_qp);
                let flow = flows.entry(key).or_default();
                if p.retransmit {
                    check_retransmit(&mut report, flow, key, r.time, p, cfg);
                } else {
                    check_fresh_request(&mut report, flow, key, r.time, p);
                }
                match &p.kind {
                    PacketKind::ReadRequest { .. } => {
                        flow.read_psns.insert(p.psn.value());
                    }
                    PacketKind::AtomicRequest { .. } => {
                        flow.atomic_psns.insert(p.psn.value());
                    }
                    // WRITE/SEND draw no tracked responses; the rest are
                    // excluded by the `is_request()` guard on this arm.
                    PacketKind::WriteRequest { .. }
                    | PacketKind::Send { .. }
                    | PacketKind::ReadResponse { .. }
                    | PacketKind::AtomicResponse { .. }
                    | PacketKind::Ack
                    | PacketKind::Nak(_) => {}
                }
                if p.ghost && !cfg.rules.ghosts_expected {
                    // The damming ghost window is a go-back-N engine
                    // quirk; the backend under test claims it never
                    // opens.
                    report.findings.push(Finding {
                        rule: RuleId::UnexpectedGhost,
                        severity: Severity::Violation,
                        at: r.time,
                        flow: Some(key),
                        psn: Some(p.psn.value()),
                        message: format!(
                            "{} ghosted at transmission under the `{}` backend, \
                             which never opens the ghost window",
                            p.kind.opcode(),
                            cfg.rules.backend
                        ),
                    });
                }
                if r.dropped || p.ghost {
                    flow.last_silent_loss = Some(r.time);
                }
                flow.last_tx.insert(p.psn.value(), r.time);
            }
            Direction::Rx => {
                // Viewed from the requester: local QP is the destination.
                let key = (p.dst_qp, p.src_qp);
                let flow = flows.entry(key).or_default();
                check_response(&mut report, flow, key, r.time, p);
            }
            Direction::Tx => {} // responder-side Tx (ACKs, responses)
        }
    }

    report.merge(signature::detect_damming_signature(cap, cfg));
    report.merge(signature::detect_flood_signature(cap, cfg));
    report
}

/// PSN monotonicity + contiguity for fresh (first-transmission) requests.
fn check_fresh_request(
    report: &mut LintReport,
    flow: &mut FlowState,
    key: (Qpn, Qpn),
    at: SimTime,
    p: &Packet,
) {
    let span = psn_span(&p.kind);
    if let Some(expected) = flow.expected {
        if p.psn != expected {
            let (rule, message) = if p.psn.precedes(expected) {
                (
                    RuleId::PsnMonotonicity,
                    format!(
                        "fresh {} reuses {} inside the consumed window (expected {})",
                        p.kind.opcode(),
                        p.psn,
                        expected
                    ),
                )
            } else {
                (
                    RuleId::PsnContiguity,
                    format!(
                        "fresh {} skips from expected {} to {} leaving a {}-PSN hole",
                        p.kind.opcode(),
                        expected,
                        p.psn,
                        p.psn.distance_from(expected)
                    ),
                )
            };
            report.findings.push(Finding {
                rule,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(p.psn.value()),
                message,
            });
        }
    }
    // Resynchronise on what was actually sent so one hole is one finding,
    // not a cascade.
    flow.expected = Some(p.psn.add(span));
    for i in 0..span {
        flow.consumed.insert(p.psn.add(i).value());
    }
}

/// Every retransmission must have a visible cause.
fn check_retransmit(
    report: &mut LintReport,
    flow: &mut FlowState,
    key: (Qpn, Qpn),
    at: SimTime,
    p: &Packet,
    cfg: &LintConfig,
) {
    let psn = p.psn.value();
    let Some(&prev) = flow.last_tx.get(&psn) else {
        report.findings.push(Finding {
            rule: RuleId::UnjustifiedRetransmit,
            severity: Severity::Violation,
            at,
            flow: Some(key),
            psn: Some(psn),
            message: format!(
                "{} marked as retransmission but {} was never transmitted",
                p.kind.opcode(),
                p.psn
            ),
        });
        return;
    };
    // Justifications, in the order a debugging human would check them:
    // a NAK since the last attempt, a loss observed since the last
    // attempt (go-back-N rolls back over healthy PSNs too, so any loss
    // on the flow counts), enough silence for an ACK timeout, or
    // membership in a justified go-back-N batch (same flow, same
    // instant, justified head — an RNR backoff can expire after a
    // younger request's first transmission, so the batch tail sees the
    // triggering NAK *before* its own `prev`).
    let nak_explains = flow.last_nak_rx.is_some_and(|t| t >= prev && t <= at);
    let loss_explains = flow.last_silent_loss.is_some_and(|t| t >= prev && t <= at);
    let timeout_plausible = at - prev >= cfg.ack_timeout_hint;
    let batch_explains = flow.last_justified_retx == Some(at);
    // Event-driven resume (selective repeat): a response for this very
    // PSN arrived since the last attempt, yet here is its
    // retransmission — the response must have been discarded at the
    // ODP landing gate, and the fault resolution resumed the request.
    let resume_explains = cfg.rules.event_driven_resume
        && flow
            .last_response_rx
            .get(&psn)
            .is_some_and(|&t| t >= prev && t <= at);
    if nak_explains || loss_explains || timeout_plausible || resume_explains {
        flow.last_justified_retx = Some(at);
    }
    if !nak_explains && !loss_explains && !timeout_plausible && !batch_explains && !resume_explains
    {
        report.findings.push(Finding {
            rule: RuleId::UnjustifiedRetransmit,
            severity: Severity::Violation,
            at,
            flow: Some(key),
            psn: Some(psn),
            message: format!(
                "{} retransmitted {} after the previous attempt with no NAK, \
                 no observed loss, and below the ACK-timeout hint ({})",
                p.kind.opcode(),
                at - prev,
                cfg.ack_timeout_hint
            ),
        });
    }
}

/// ACK / NAK / response matching on the receive side of a flow.
fn check_response(
    report: &mut LintReport,
    flow: &mut FlowState,
    key: (Qpn, Qpn),
    at: SimTime,
    p: &Packet,
) {
    match &p.kind {
        PacketKind::Ack if !flow.consumed.contains(&p.psn.value()) => {
            report.findings.push(Finding {
                rule: RuleId::UnmatchedAck,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(p.psn.value()),
                message: format!("ACK for {} which no request consumed", p.psn),
            });
        }
        PacketKind::ReadResponse { req_psn, .. } if !flow.read_psns.contains(&req_psn.value()) => {
            report.findings.push(Finding {
                rule: RuleId::UnmatchedResponse,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(req_psn.value()),
                message: format!("READ response for {req_psn} with no READ request"),
            });
        }
        PacketKind::AtomicResponse { req_psn, .. }
            if !flow.atomic_psns.contains(&req_psn.value()) =>
        {
            report.findings.push(Finding {
                rule: RuleId::UnmatchedResponse,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(req_psn.value()),
                message: format!("ATOMIC response for {req_psn} with no ATOMIC request"),
            });
        }
        PacketKind::Nak(kind) => {
            if let NakKind::SequenceError { epsn } = kind {
                // The responder claims out-of-order arrival. In this
                // capture (which sees fabric drops and ghosts — strictly
                // more than real ibdump) that is only explicable if some
                // request was silently lost beforehand, or if the
                // expected PSN itself was previously NAK'd: an
                // RNR-refused request leaves the responder still
                // expecting it, so any younger request transmitted
                // during the backoff draws a sequence error with no
                // packet ever lost.
                let refused_explains = flow.nak_psns.contains(&epsn.value());
                if flow.last_silent_loss.is_none() && !refused_explains {
                    report.findings.push(Finding {
                        rule: RuleId::UnjustifiedSeqNak,
                        severity: Severity::Violation,
                        at,
                        flow: Some(key),
                        psn: Some(epsn.value()),
                        message: format!(
                            "sequence-error NAK (expecting {epsn}) with no preceding \
                             request loss on the flow"
                        ),
                    });
                }
            }
            flow.last_nak_rx = Some(at);
            flow.nak_psns.insert(p.psn.value());
        }
        // ACKs and responses whose guards above matched nothing are
        // conformant; inbound requests are the responder's business.
        PacketKind::Ack
        | PacketKind::ReadResponse { .. }
        | PacketKind::AtomicResponse { .. }
        | PacketKind::ReadRequest { .. }
        | PacketKind::WriteRequest { .. }
        | PacketKind::Send { .. }
        | PacketKind::AtomicRequest { .. } => {}
    }
    // Record the landing time of every acknowledgment and response
    // segment for the event-driven-resume justification: an arrived
    // response that still left the request pending was discarded at the
    // ODP landing gate.
    match &p.kind {
        PacketKind::Ack => {
            flow.last_response_rx.insert(p.psn.value(), at);
        }
        PacketKind::ReadResponse { .. } | PacketKind::AtomicResponse { .. } => {
            flow.last_response_rx.insert(p.psn.value(), at);
        }
        PacketKind::Nak(_)
        | PacketKind::ReadRequest { .. }
        | PacketKind::WriteRequest { .. }
        | PacketKind::Send { .. }
        | PacketKind::AtomicRequest { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        ack, nak_rnr, nak_seq, read_req, read_resp, rx, tx, tx_dropped, tx_ghost, tx_retx,
    };

    fn lint(cap: &Capture<Packet>) -> LintReport {
        lint_capture(cap, &LintConfig::default())
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
        let irn = LintConfig {
            rules: RecoveryRules::for_kind(RecoveryKind::SelectiveRepeat),
            ..LintConfig::default()
        };
        let report = lint_capture(&cap, &irn);
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
        let irn = LintConfig {
            rules: RecoveryRules::for_kind(RecoveryKind::SelectiveRepeat),
            ..LintConfig::default()
        };
        let report = lint_capture(&cap, &irn);
        assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 1, "{report}");
    }

    #[test]
    fn batch_tail_inheritance_holds_for_every_backend() {
        // Selective repeat also batches: an RNR expiry resends the
        // refused message plus the pendency-dropped successors at one
        // instant, so the tail inherits the head's NAK justification
        // under every rule set.
        for rules in RecoveryKind::ALL.map(RecoveryRules::for_kind) {
            let mut cap = Capture::new();
            cap.enable();
            tx(&mut cap, 1_000, read_req(0, 1));
            rx(&mut cap, 2_000, nak_rnr());
            tx(&mut cap, 3_000, read_req(1, 1));
            tx_retx(&mut cap, 40_000, read_req(0, 1));
            tx_retx(&mut cap, 40_000, read_req(1, 1));
            let cfg = LintConfig {
                rules,
                ..LintConfig::default()
            };
            let report = lint_capture(&cap, &cfg);
            assert_eq!(
                report.count(RuleId::UnjustifiedRetransmit),
                0,
                "{}: {report}",
                rules.backend
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
            let rules = RecoveryRules::for_kind(kind);
            let cfg = LintConfig {
                rules,
                ..LintConfig::default()
            };
            let report = lint_capture(&cap, &cfg);
            assert_eq!(
                report.count(RuleId::UnexpectedGhost),
                1,
                "{}",
                rules.backend
            );
        }
    }

    #[test]
    fn recovery_rules_follow_the_backend_kind() {
        let rule_set = |backend, ghosts_expected, event_driven_resume| RecoveryRules {
            backend,
            ghosts_expected,
            event_driven_resume,
        };
        assert_eq!(
            RecoveryKind::ALL.map(RecoveryRules::for_kind),
            [
                rule_set("gbn", true, false),
                rule_set("irn", false, true),
                rule_set("pin", false, false),
            ]
        );
        assert_eq!(RecoveryRules::default(), rule_set("gbn", true, false));
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
