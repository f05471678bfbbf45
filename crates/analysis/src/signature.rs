//! Packet-level signature detectors for the paper's two pitfalls.
//!
//! These complement the conformance rules in `crate::linter`: a damming
//! or flood trace is often *protocol-legal* packet by packet (every
//! retransmission has a timeout behind it), yet the shape of the timeline
//! is pathological. The signatures below encode exactly what the paper's
//! authors saw in their `ibdump` captures:
//!
//! * **Damming (§V, Fig. 5/8):** a request silently lost (ghosted at the
//!   HCA or dropped in the fabric) followed by an idle gap bounded only
//!   by the ACK timeout — nothing on the flow explains the wait.
//! * **Flood (§VI, Fig. 1 right):** the same request retransmitted over
//!   and over at the blind ODP retry cadence (~0.5 ms) while the
//!   responses keep arriving and being discarded.

use std::collections::BTreeMap;

use ibsim_event::SimTime;
use ibsim_fabric::{Capture, Direction};
use ibsim_verbs::{Packet, PacketKind, Qpn};

use crate::finding::{Finding, LintReport, RuleId, Severity};
use crate::linter::LintConfig;

/// One transmission attempt of a request, as the detector tracks it.
struct Attempt {
    at: SimTime,
    silent_loss: bool,
    opcode: &'static str,
}

/// Scans a sender-side capture for the §V packet-damming signature:
/// a silently lost request (ghost or fabric drop) followed by an idle,
/// NAK-free gap of at least [`LintConfig::damming_min_stall`] before the
/// next attempt (or the end of the capture, if it never recovered).
pub fn detect_damming_signature(cap: &Capture<Packet>, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    let mut attempts: BTreeMap<(Qpn, Qpn, u32), Vec<Attempt>> = BTreeMap::new();
    let mut naks: BTreeMap<(Qpn, Qpn), Vec<SimTime>> = BTreeMap::new();
    let mut order: Vec<(Qpn, Qpn, u32)> = Vec::new();
    let mut horizon = SimTime::ZERO;

    for r in cap {
        let p = &r.payload;
        horizon = horizon.max(r.time);
        match r.direction {
            Direction::Tx if p.kind.is_request() => {
                let key = (p.src_qp, p.dst_qp, p.psn.value());
                let entry = attempts.entry(key).or_default();
                if entry.is_empty() {
                    order.push(key);
                }
                entry.push(Attempt {
                    at: r.time,
                    silent_loss: r.dropped || p.ghost,
                    opcode: p.kind.opcode(),
                });
            }
            Direction::Rx => {
                if matches!(p.kind, PacketKind::Nak(_)) {
                    naks.entry((p.dst_qp, p.src_qp)).or_default().push(r.time);
                }
            }
            Direction::Tx => {}
        }
    }

    for key in order {
        let (src_qp, dst_qp, psn) = key;
        let tries = &attempts[&key];
        let flow_naks = naks.get(&(src_qp, dst_qp));
        let nak_between =
            |a: SimTime, b: SimTime| flow_naks.is_some_and(|v| v.iter().any(|&t| t > a && t <= b));
        for (i, attempt) in tries.iter().enumerate() {
            if !attempt.silent_loss {
                continue;
            }
            let (end, recovered) = match tries.get(i + 1) {
                Some(next) => (next.at, true),
                None => (horizon, false),
            };
            let gap = end - attempt.at;
            if gap >= cfg.damming_min_stall && !nak_between(attempt.at, end) {
                let message = if recovered {
                    format!(
                        "{} silently lost at {} then dammed for {} until the \
                         ACK-timeout retransmission",
                        attempt.opcode, attempt.at, gap
                    )
                } else {
                    format!(
                        "{} silently lost at {} and never retransmitted within \
                         the capture ({} of silence)",
                        attempt.opcode, attempt.at, gap
                    )
                };
                report.findings.push(Finding {
                    rule: RuleId::DammingSignature,
                    severity: Severity::Violation,
                    at: attempt.at,
                    flow: Some((src_qp, dst_qp)),
                    psn: Some(psn),
                    message,
                });
            }
        }
    }
    report
}

/// Scans a sender-side capture for the §VI packet-flood signature: one
/// request transmitted at least [`LintConfig::flood_min_transmissions`]
/// times with a median inter-attempt gap inside the blind ODP retry
/// cadence band, typically with READ responses arriving and being
/// discarded all the while.
pub fn detect_flood_signature(cap: &Capture<Packet>, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    let mut attempts: BTreeMap<(Qpn, Qpn, u32), Vec<SimTime>> = BTreeMap::new();
    let mut responses: BTreeMap<(Qpn, Qpn, u32), u64> = BTreeMap::new();
    let mut order: Vec<(Qpn, Qpn, u32)> = Vec::new();

    for r in cap {
        let p = &r.payload;
        match r.direction {
            Direction::Tx if p.kind.is_request() => {
                let key = (p.src_qp, p.dst_qp, p.psn.value());
                let entry = attempts.entry(key).or_default();
                if entry.is_empty() {
                    order.push(key);
                }
                entry.push(r.time);
            }
            Direction::Rx => {
                if let PacketKind::ReadResponse { req_psn, .. } = &p.kind {
                    *responses
                        .entry((p.dst_qp, p.src_qp, req_psn.value()))
                        .or_default() += 1;
                }
            }
            Direction::Tx => {}
        }
    }

    let (lo, hi) = cfg.flood_cadence;
    for key in order {
        let times = &attempts[&key];
        let n = times.len() as u64;
        if n < cfg.flood_min_transmissions {
            continue;
        }
        let mut gaps: Vec<SimTime> = times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        if median < lo || median > hi {
            continue;
        }
        let (src_qp, dst_qp, psn) = key;
        let resp = responses.get(&key).copied().unwrap_or(0);
        let span = *times
            .last()
            .expect("invariant: times non-empty, key has at least one event")
            - times[0];
        report.findings.push(Finding {
            rule: RuleId::FloodSignature,
            severity: Severity::Violation,
            at: times[0],
            flow: Some((src_qp, dst_qp)),
            psn: Some(psn),
            message: format!(
                "request transmitted {n} times over {span} at ~{median} cadence \
                 ({resp} response(s) received and discarded meanwhile)"
            ),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{nak_rnr, read_req, read_resp, rx, tx, tx_ghost, tx_retx};

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn ghost_then_long_silence_is_damming() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        // ~500 ms of nothing, then the timeout retransmission.
        tx_retx(&mut cap, 500_000_000, read_req(0, 1));
        let report = detect_damming_signature(&cap, &cfg());
        assert_eq!(report.count(RuleId::DammingSignature), 1, "{report}");
        let f = report.by_rule(RuleId::DammingSignature).next().unwrap();
        assert!(f.message.contains("dammed"), "{}", f.message);
    }

    #[test]
    fn unrecovered_ghost_is_damming_too() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        // Keep the capture horizon far past the loss via another flow's
        // healthy request.
        let mut other = read_req(0, 1);
        other.src_qp = ibsim_verbs::Qpn(99);
        tx(&mut cap, 300_000_000, other);
        let report = detect_damming_signature(&cap, &cfg());
        assert_eq!(report.count(RuleId::DammingSignature), 1, "{report}");
        assert!(report.findings[0].message.contains("never retransmitted"));
    }

    #[test]
    fn rnr_wait_is_not_damming() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        rx(&mut cap, 2_000_000, nak_rnr());
        tx_retx(&mut cap, 500_000_000, read_req(0, 1));
        let report = detect_damming_signature(&cap, &cfg());
        assert_eq!(report.count(RuleId::DammingSignature), 0, "{report}");
    }

    #[test]
    fn short_gap_is_not_damming() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        tx_retx(&mut cap, 2_000_000, read_req(0, 1)); // 1 ms: below threshold
        let report = detect_damming_signature(&cap, &cfg());
        assert!(report.is_clean());
    }

    #[test]
    fn blind_cadence_storm_is_flood() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 0, read_req(0, 1));
        for i in 1..8u64 {
            // 0.5 ms cadence with the response arriving (and discarded).
            rx(&mut cap, i * 500_000 - 100_000, read_resp(0, 0));
            tx_retx(&mut cap, i * 500_000, read_req(0, 1));
        }
        let report = detect_flood_signature(&cap, &cfg());
        assert_eq!(report.count(RuleId::FloodSignature), 1, "{report}");
        let f = &report.findings[0];
        assert!(f.message.contains("8 times"), "{}", f.message);
        assert!(f.message.contains("7 response(s)"), "{}", f.message);
    }

    #[test]
    fn few_retransmissions_are_not_flood() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 0, read_req(0, 1));
        for i in 1..4u64 {
            tx_retx(&mut cap, i * 500_000, read_req(0, 1));
        }
        assert!(detect_flood_signature(&cap, &cfg()).is_clean());
    }

    #[test]
    fn slow_timeout_retries_are_not_flood() {
        // Eight retries at 100 ms cadence: persistent loss, not the blind
        // ODP timer.
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 0, read_req(0, 1));
        for i in 1..8u64 {
            tx_retx(&mut cap, i * 100_000_000, read_req(0, 1));
        }
        assert!(detect_flood_signature(&cap, &cfg()).is_clean());
    }
}
