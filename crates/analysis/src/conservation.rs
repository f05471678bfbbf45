//! Packet conservation between two capture points.
//!
//! With captures running on both ends of a link, every frame transmitted
//! by one host and not marked dropped must appear in the peer's receive
//! capture, and every received frame must have a matching transmission.
//! Violations mean the simulator (or a capture tool) lost or invented
//! packets between the two observation points — the transport layer can
//! never legitimately do either.

use ibsim_fabric::{Capture, Direction, Lid};
use ibsim_verbs::Packet;

use crate::finding::{Finding, LintReport, RuleId};

/// Identity of a frame for conservation matching: source and
/// destination LID, source and destination QP, PSN (24 bits), opcode id
/// (below 2^7) and the retransmit mark, packed high to low so keys order
/// as those fields do. Timestamps are deliberately excluded (propagation
/// shifts them); everything else must match exactly.
fn key(p: &Packet) -> u128 {
    u128::from(p.src.0) << 112
        | u128::from(p.dst.0) << 96
        | u128::from(p.src_qp.0) << 64
        | u128::from(p.dst_qp.0) << 32
        | u128::from(p.psn.value()) << 8
        | u128::from(p.kind.opcode_id()) << 1
        | u128::from(p.retransmit)
}

/// LIDs a capture shows as local to its host, sorted: sources of its Tx
/// frames and destinations of its Rx frames.
fn local_lids(cap: &Capture<Packet>) -> Vec<Lid> {
    let mut lids = Vec::new();
    for r in cap {
        let lid = match r.direction {
            Direction::Tx => r.payload.src,
            Direction::Rx => r.payload.dst,
        };
        if let Err(at) = lids.binary_search(&lid) {
            lids.insert(at, lid);
        }
    }
    lids
}

/// A capture and its [`local_lids`].
type Side<'a> = (&'a Capture<Packet>, &'a [Lid]);

/// Checks conservation in one direction: `tx`'s host to `rx`'s.
fn one_direction((tx_cap, tx_lids): Side<'_>, (rx_cap, rx_lids): Side<'_>) -> LintReport {
    let mut report = LintReport::default();
    if rx_lids.is_empty() {
        // The peer captured nothing at all; there is nothing to match
        // against, so stay silent rather than flag every frame.
        return report;
    }
    let local = |lids: &[Lid], lid: Lid| lids.binary_search(&lid).is_ok();
    // Expected arrivals: transmitted toward the peer and not dropped in
    // the fabric (ghosts are recorded with `dropped` set).
    let sent_records = tx_cap.records();
    let sent = || {
        sent_records.iter().enumerate().filter(|(_, r)| {
            r.direction == Direction::Tx && !r.dropped && local(rx_lids, r.payload.dst)
        })
    };
    let received = || {
        rx_cap
            .iter()
            .filter(|r| r.direction == Direction::Rx && local(tx_lids, r.payload.src))
    };
    // A link delivers in order, so the peer usually received exactly
    // what was sent, in the order it was sent: equal as sequences, equal
    // as multisets.
    if sent()
        .map(|(_, r)| key(&r.payload))
        .eq(received().map(|r| key(&r.payload)))
    {
        return report;
    }

    // Otherwise match the multiset, sorted by key. Each entry counts its
    // key's transmissions and keeps the index of the first one, which
    // leads its run.
    let mut sent: Vec<(u128, usize)> = sent().map(|(i, r)| (key(&r.payload), i)).collect();
    sent.sort_unstable();
    let mut expected: Vec<(u128, (u64, usize))> = Vec::with_capacity(sent.len());
    for (k, i) in sent {
        match expected.last_mut() {
            Some((last, (n, _))) if *last == k => *n += 1,
            _ => expected.push((k, (1, i))),
        }
    }

    for r in received() {
        match expected.binary_search_by_key(&key(&r.payload), |&(k, _)| k) {
            Ok(i) if expected[i].1 .0 > 0 => expected[i].1 .0 -= 1,
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

    // The lost keys reach the unstable sort in key order, so ties in
    // first transmission keep the order findings have always had.
    expected.retain(|(_, (n, _))| *n > 0);
    expected.sort_unstable_by_key(|&(_, (_, i))| sent_records[i].time);
    for (_, (n, i)) in expected {
        let (first, p) = (&sent_records[i], &sent_records[i].payload);
        let psn = p.psn.value();
        report.findings.push(Finding::violation(
            RuleId::TxNotDelivered,
            first.time,
            (p.src_qp, p.dst_qp),
            psn,
            format!(
                "{n} transmission(s) of {} psn{psn} {} -> {} never \
                 reached the receiver's capture",
                p.kind.opcode(),
                p.src,
                p.dst
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
    let (a_lids, b_lids) = (local_lids(a), local_lids(b));
    let mut report = one_direction((a, &a_lids), (b, &b_lids));
    report.merge(one_direction((b, &b_lids), (a, &a_lids)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{read_req, read_resp, rx, tx, tx_dropped};

    /// The `BTreeMap` implementation `check_conservation` replaced, kept
    /// verbatim as the oracle.
    mod old {
        use std::collections::{BTreeMap, BTreeSet};

        use ibsim_fabric::{Capture, Captured, Direction, Lid};
        use ibsim_verbs::Packet;

        use crate::finding::{Finding, LintReport, RuleId};

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

        fn local_lids(cap: &Capture<Packet>) -> BTreeSet<Lid> {
            cap.iter()
                .map(|r| match r.direction {
                    Direction::Tx => r.payload.src,
                    Direction::Rx => r.payload.dst,
                })
                .collect()
        }

        fn one_direction(tx_cap: &Capture<Packet>, rx_cap: &Capture<Packet>) -> LintReport {
            let mut report = LintReport::default();
            let rx_lids = local_lids(rx_cap);
            let tx_lids = local_lids(tx_cap);
            if rx_lids.is_empty() {
                return report;
            }
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

        pub fn check_conservation(a: &Capture<Packet>, b: &Capture<Packet>) -> LintReport {
            let mut report = one_direction(a, b);
            report.merge(one_direction(b, a));
            report
        }
    }

    /// Every opcode, so keys that differ only in opcode meet.
    fn any_kind(rng: &mut ibsim_event::SplitMix64) -> ibsim_verbs::PacketKind {
        use ibsim_verbs::{AtomicOp, MrKey, NakKind, PacketKind, Payload, Psn, SegPos};
        let seg =
            [SegPos::Only, SegPos::First, SegPos::Middle, SegPos::Last][rng.next_below(4) as usize];
        let (rkey, data) = (MrKey(1), Payload::default());
        match rng.next_below(11) {
            0 => PacketKind::ReadRequest {
                rkey,
                addr: 0,
                len: 8,
                resp_packets: 1,
            },
            1 => PacketKind::ReadResponse {
                seg,
                data,
                req_psn: Psn::new(0),
                offset: 0,
            },
            2 => PacketKind::WriteRequest {
                seg,
                rkey,
                addr: 0,
                data,
            },
            3 => PacketKind::Send { seg, data },
            4 => PacketKind::AtomicRequest {
                op: AtomicOp::FetchAdd { add: 1 },
                rkey,
                addr: 0,
            },
            5 => PacketKind::AtomicRequest {
                op: AtomicOp::CompareSwap {
                    compare: 0,
                    swap: 1,
                },
                rkey,
                addr: 0,
            },
            6 => PacketKind::AtomicResponse {
                original: 0,
                req_psn: Psn::new(0),
            },
            7 => PacketKind::Ack,
            8 => PacketKind::Nak(NakKind::Rnr {
                delay: ibsim_event::SimTime::from_us(1),
            }),
            9 => PacketKind::Nak(NakKind::SequenceError { epsn: Psn::new(0) }),
            _ => PacketKind::Nak(NakKind::RemoteAccess),
        }
    }

    /// A frame from `from` to `to` with a seeded QP pair, PSN, opcode and
    /// retransmit mark. Few values per field, each field's top bit among
    /// them, so keys repeat and every packed field is exercised.
    fn frame(rng: &mut ibsim_event::SplitMix64, from: u16, to: u16) -> Packet {
        use ibsim_verbs::{Psn, Qpn};
        let qpns = [0, 1, 2, 1 << 31, u32::MAX];
        let psns = [0, 1, 2, 3, 1 << 23, Psn::MODULUS - 1];
        Packet {
            src: Lid(from),
            dst: Lid(to),
            src_qp: Qpn(qpns[rng.next_below(5) as usize]),
            dst_qp: Qpn(qpns[rng.next_below(5) as usize]),
            psn: Psn::new(psns[rng.next_below(6) as usize]),
            kind: any_kind(rng),
            ghost: false,
            ecn: false,
            retransmit: rng.next_below(4) == 0,
        }
    }

    /// `frames` transmissions from `from` toward `to` (and now and then
    /// toward LID 65535, which no capture owns), each delivered, lost,
    /// dropped, delivered twice or retransmitted, plus receptions never
    /// sent. Few times, so first-transmit times tie.
    fn traffic(
        rng: &mut ibsim_event::SplitMix64,
        tx_cap: &mut Capture<Packet>,
        rx_cap: &mut Capture<Packet>,
        (from, to): (u16, u16),
        frames: usize,
    ) {
        for _ in 0..frames {
            let dst = if rng.next_below(16) == 0 {
                u16::MAX
            } else {
                to
            };
            let mut p = frame(rng, from, dst);
            let t = rng.next_below(12) * 1_000;
            match rng.next_below(8) {
                0 | 1 => tx(tx_cap, t, p),
                2 => tx_dropped(tx_cap, t, p),
                3 => {
                    tx(tx_cap, t, p.clone());
                    rx(rx_cap, t + 500, p.clone());
                    rx(rx_cap, t + 700, p);
                }
                4 => rx(rx_cap, t + 500, p),
                _ => {
                    tx(tx_cap, t, p.clone());
                    p.ecn = rng.next_below(2) == 0;
                    rx(rx_cap, t + 500, p);
                }
            }
        }
    }

    fn assert_matches_the_map_implementation(a: &Capture<Packet>, b: &Capture<Packet>) {
        assert_eq!(check_conservation(a, b), old::check_conservation(a, b));
        assert_eq!(check_conservation(b, a), old::check_conservation(b, a));
    }

    #[test]
    fn matches_the_map_implementation_on_seeded_pairs() {
        let mut rng = ibsim_event::SplitMix64::new(0xc0_5e);
        let (mut lost, mut invented) = (0, 0);
        for round in 0..400 {
            let mut a = Capture::new();
            let mut b = Capture::new();
            a.enable();
            b.enable();
            let frames = [0, 1, 5, 20, 40, 120, 400][round % 7];
            traffic(&mut rng, &mut a, &mut b, (1, 0x8001), frames);
            if round % 5 != 0 {
                // Every fifth pair keeps the peer's capture empty.
                traffic(&mut rng, &mut b, &mut a, (0x8001, 1), frames / 2);
            }
            assert_matches_the_map_implementation(&a, &b);
            let report = check_conservation(&a, &b);
            lost += report.count(RuleId::TxNotDelivered);
            invented += report.count(RuleId::RxWithoutTx);
        }
        // The corpus is not vacuous: many findings of both rules.
        assert!(lost > 5_000 && invented > 5_000, "{lost} {invented}");
    }

    /// Complete deliveries, in order and shuffled, then with one
    /// reception missing: both implementations agree on each.
    #[test]
    fn matches_the_map_implementation_on_complete_deliveries() {
        let mut rng = ibsim_event::SplitMix64::new(0xd0_e5);
        for round in 0..200u64 {
            let sent: Vec<Packet> = (0..round % 50)
                .map(|_| frame(&mut rng, 1, 0x8001))
                .collect();
            let mut order: Vec<usize> = (0..sent.len()).collect();
            if round % 2 == 1 {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            let mut a = Capture::new();
            let mut b = Capture::new();
            a.enable();
            b.enable();
            for (t, p) in (0..).zip(&sent) {
                tx(&mut a, t * 1_000, p.clone());
            }
            for (t, &i) in (0..).zip(&order) {
                rx(&mut b, t * 1_000 + 500, sent[i].clone());
            }
            assert_matches_the_map_implementation(&a, &b);
            assert!(check_conservation(&a, &b).is_clean());
            if round % 3 == 0 {
                // The same pair with one reception missing.
                let mut b = Capture::new();
                b.enable();
                for (t, &i) in (0..).zip(order.iter().skip(1)) {
                    rx(&mut b, t * 1_000 + 500, sent[i].clone());
                }
                assert_matches_the_map_implementation(&a, &b);
            }
        }
    }

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
