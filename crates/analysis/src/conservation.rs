//! Packet conservation between two capture points.
//!
//! With captures running on both ends of a link, every frame transmitted
//! by one host and not marked dropped must appear in the peer's receive
//! capture, and every received frame must have a matching transmission.
//! Violations mean the simulator (or a capture tool) lost or invented
//! packets between the two observation points — the transport layer can
//! never legitimately do either.

use std::collections::{BTreeMap, BTreeSet};

use ibsim_fabric::{Capture, Captured, Direction, Lid};
use ibsim_verbs::Packet;

use crate::finding::{Finding, LintReport, RuleId};

/// Identity of a frame for conservation matching. Timestamps are
/// deliberately excluded (propagation shifts them); everything else must
/// match exactly.
type FrameKey = (Lid, Lid, u32, u32, u32, &'static str, bool);

fn key(r: &Captured<Packet>) -> FrameKey {
    let p = &r.payload;
    (
        p.src,
        p.dst,
        p.src_qp.0,
        p.dst_qp.0,
        p.psn.value(),
        p.kind.opcode(),
        p.retransmit,
    )
}

/// LIDs a capture shows as local to its host: sources of its Tx frames
/// and destinations of its Rx frames.
fn local_lids(cap: &Capture<Packet>) -> BTreeSet<Lid> {
    cap.iter()
        .map(|r| match r.direction {
            Direction::Tx => r.payload.src,
            Direction::Rx => r.payload.dst,
        })
        .collect()
}

/// Checks conservation in one direction: `tx_cap`'s host to `rx_cap`'s.
fn one_direction(tx_cap: &Capture<Packet>, rx_cap: &Capture<Packet>) -> LintReport {
    let mut report = LintReport::default();
    let rx_lids = local_lids(rx_cap);
    let tx_lids = local_lids(tx_cap);
    if rx_lids.is_empty() {
        // The peer captured nothing at all; there is nothing to match
        // against, so stay silent rather than flag every frame.
        return report;
    }

    // Multiset of expected arrivals: transmitted toward the peer and not
    // dropped in the fabric (ghosts are recorded with `dropped` set).
    let mut expected: BTreeMap<FrameKey, (u64, ibsim_event::SimTime)> = BTreeMap::new();
    for r in tx_cap {
        if r.direction == Direction::Tx && !r.dropped && rx_lids.contains(&r.payload.dst) {
            let e = expected.entry(key(r)).or_insert((0, r.time));
            e.0 += 1;
        }
    }

    for r in rx_cap {
        if r.direction != Direction::Rx || !tx_lids.contains(&r.payload.src) {
            continue;
        }
        let k = key(r);
        match expected.get_mut(&k) {
            Some(e) if e.0 > 0 => e.0 -= 1,
            _ => report.findings.push(Finding::violation(
                RuleId::RxWithoutTx,
                r.time,
                (r.payload.dst_qp, r.payload.src_qp),
                r.payload.psn.value(),
                format!(
                    "{} {} received from {} with no matching transmission",
                    r.payload.kind.opcode(),
                    r.payload.psn,
                    r.payload.src
                ),
            )),
        }
    }

    let mut lost: Vec<(FrameKey, (u64, ibsim_event::SimTime))> =
        expected.into_iter().filter(|(_, (n, _))| *n > 0).collect();
    lost.sort_unstable_by_key(|(_, (_, t))| *t);
    for ((src, dst, src_qp, dst_qp, psn, opcode, _), (n, first)) in lost {
        report.findings.push(Finding::violation(
            RuleId::TxNotDelivered,
            first,
            (ibsim_verbs::Qpn(src_qp), ibsim_verbs::Qpn(dst_qp)),
            psn,
            format!(
                "{n} transmission(s) of {opcode} psn{psn} {src} -> {dst} never \
                 reached the receiver's capture"
            ),
        ));
    }
    report
}

/// Checks packet conservation in both directions between two hosts'
/// captures: `a`'s non-dropped transmissions toward `b` must all appear
/// in `b`'s receive records (and vice versa), and neither side may
/// receive a frame the other never sent.
///
/// Both captures must have been enabled for the whole run; a peer capture
/// with no records at all disables matching in that direction rather than
/// flagging every frame.
pub fn check_conservation(a: &Capture<Packet>, b: &Capture<Packet>) -> LintReport {
    let mut report = one_direction(a, b);
    report.merge(one_direction(b, a));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{read_req, read_resp, rx, tx, tx_dropped};

    #[test]
    fn matched_captures_are_clean() {
        let mut a = Capture::new();
        let mut b = Capture::new();
        a.enable();
        b.enable();
        tx(&mut a, 1_000, read_req(0, 1));
        rx(&mut b, 2_000, read_req(0, 1));
        // Response comes back the other way.
        tx(&mut b, 3_000, read_resp(0, 0));
        rx(&mut a, 4_000, read_resp(0, 0));
        let report = check_conservation(&a, &b);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn dropped_frames_are_exempt() {
        let mut a = Capture::new();
        let mut b = Capture::new();
        a.enable();
        b.enable();
        tx_dropped(&mut a, 1_000, read_req(0, 1));
        // Give b a record so its local LIDs are known.
        tx(&mut b, 3_000, read_resp(0, 0));
        rx(&mut a, 4_000, read_resp(0, 0));
        let report = check_conservation(&a, &b);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn lost_frame_is_flagged() {
        let mut a = Capture::new();
        let mut b = Capture::new();
        a.enable();
        b.enable();
        tx(&mut a, 1_000, read_req(0, 1)); // not dropped, never arrives
        tx(&mut b, 3_000, read_resp(0, 0));
        rx(&mut a, 4_000, read_resp(0, 0));
        let report = check_conservation(&a, &b);
        assert_eq!(report.count(RuleId::TxNotDelivered), 1, "{report}");
        assert!(report.findings[0].message.contains("never"));
    }

    #[test]
    fn invented_frame_is_flagged() {
        let mut a = Capture::new();
        let mut b = Capture::new();
        a.enable();
        b.enable();
        tx(&mut a, 1_000, read_req(0, 1));
        rx(&mut b, 2_000, read_req(0, 1));
        rx(&mut b, 5_000, read_req(3, 1)); // never transmitted by a
        let report = check_conservation(&a, &b);
        assert_eq!(report.count(RuleId::RxWithoutTx), 1, "{report}");
    }

    #[test]
    fn empty_peer_capture_stays_silent() {
        let mut a = Capture::new();
        a.enable();
        tx(&mut a, 1_000, read_req(0, 1));
        let b: Capture<Packet> = Capture::new();
        assert!(check_conservation(&a, &b).is_clean());
    }

    #[test]
    fn duplicate_deliveries_are_flagged() {
        let mut a = Capture::new();
        let mut b = Capture::new();
        a.enable();
        b.enable();
        tx(&mut a, 1_000, read_req(0, 1));
        rx(&mut b, 2_000, read_req(0, 1));
        rx(&mut b, 2_500, read_req(0, 1)); // delivered twice, sent once
        let report = check_conservation(&a, &b);
        assert_eq!(report.count(RuleId::RxWithoutTx), 1, "{report}");
    }
}
