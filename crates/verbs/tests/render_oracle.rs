//! The capture timeline and the `Display` texts rendered by `Line` are
//! byte for byte the `core::fmt` texts they replaced. The old renderers
//! are kept below verbatim as the oracle, their `SimTime` as the float
//! formula that defines it.

use std::fmt::{self, Write as _};

use ibsim_event::{Line, SimTime, SplitMix64};
use ibsim_fabric::{Capture, Captured, Direction, Lid};
use ibsim_verbs::{
    AtomicOp, MrKey, NakKind, Packet, PacketKind, Payload, Psn, Qpn, SegPos, WcOpcode, WcStatus,
};

/// `{:.3}` of the quotient in the unit, trailing zeros and a bare point
/// trimmed.
fn old_time(ns: u64) -> String {
    let trim = |v: f64| {
        let s = format!("{v:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    };
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}us", trim(ns as f64 / 1e3))
    } else if ns < 1_000_000_000 {
        format!("{}ms", trim(ns as f64 / 1e6))
    } else {
        format!("{}s", trim(ns as f64 / 1e9))
    }
}

fn old_opcode(kind: &PacketKind) -> &'static str {
    match kind {
        PacketKind::ReadRequest { .. } => "RDMA_READ_REQ",
        PacketKind::ReadResponse { seg, .. } => match seg {
            SegPos::Only => "RDMA_READ_RESP_ONLY",
            SegPos::First => "RDMA_READ_RESP_FIRST",
            SegPos::Middle => "RDMA_READ_RESP_MID",
            SegPos::Last => "RDMA_READ_RESP_LAST",
        },
        PacketKind::WriteRequest { seg, .. } => match seg {
            SegPos::Only => "RDMA_WRITE_ONLY",
            SegPos::First => "RDMA_WRITE_FIRST",
            SegPos::Middle => "RDMA_WRITE_MID",
            SegPos::Last => "RDMA_WRITE_LAST",
        },
        PacketKind::Send { seg, .. } => match seg {
            SegPos::Only => "SEND_ONLY",
            SegPos::First => "SEND_FIRST",
            SegPos::Middle => "SEND_MID",
            SegPos::Last => "SEND_LAST",
        },
        PacketKind::AtomicRequest {
            op: AtomicOp::FetchAdd { .. },
            ..
        } => "FETCH_ADD",
        PacketKind::AtomicRequest {
            op: AtomicOp::CompareSwap { .. },
            ..
        } => "CMP_SWAP",
        PacketKind::AtomicResponse { .. } => "ATOMIC_ACK",
        PacketKind::Ack => "ACK",
        PacketKind::Nak(NakKind::Rnr { .. }) => "RNR_NAK",
        PacketKind::Nak(NakKind::SequenceError { .. }) => "NAK_SEQ_ERR",
        PacketKind::Nak(NakKind::RemoteAccess) => "NAK_REM_ACCESS",
    }
}

struct OldPsn(Psn);

impl fmt::Display for OldPsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "psn{}", self.0.value())
    }
}

struct OldNak(NakKind);

impl fmt::Display for OldNak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            NakKind::Rnr { delay } => write!(f, "RNR({})", old_time(delay.as_ns())),
            NakKind::SequenceError { epsn } => write!(f, "SEQ_ERR(exp {})", OldPsn(epsn)),
            NakKind::RemoteAccess => write!(f, "REM_ACCESS_ERR"),
        }
    }
}

struct OldPacket<'a>(&'a Packet);

impl fmt::Display for OldPacket<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        write!(f, "{} {}", old_opcode(&p.kind), OldPsn(p.psn))?;
        match &p.kind {
            PacketKind::ReadRequest { addr, len, .. } => {
                write!(f, " addr=0x{addr:x} len={len}")?;
            }
            PacketKind::ReadResponse { req_psn, data, .. } => {
                write!(f, " req={} len={}", OldPsn(*req_psn), data.len())?;
            }
            PacketKind::WriteRequest { addr, data, .. } => {
                write!(f, " addr=0x{addr:x} len={}", data.len())?;
            }
            PacketKind::Send { data, .. } => write!(f, " len={}", data.len())?,
            PacketKind::AtomicRequest { op, addr, .. } => match op {
                AtomicOp::FetchAdd { add } => write!(f, " addr=0x{addr:x} add={add}")?,
                AtomicOp::CompareSwap { compare, swap } => {
                    write!(f, " addr=0x{addr:x} cmp={compare} swap={swap}")?
                }
            },
            PacketKind::AtomicResponse { original, req_psn } => {
                write!(f, " orig={original} req={}", OldPsn(*req_psn))?
            }
            PacketKind::Ack => {}
            PacketKind::Nak(k) => write!(f, " {}", OldNak(*k))?,
        }
        if p.retransmit {
            write!(f, " [RETX]")?;
        }
        if p.ghost {
            write!(f, " [GHOST]")?;
        }
        if p.ecn {
            write!(f, " [ECN]")?;
        }
        Ok(())
    }
}

fn old_direction(d: Direction) -> &'static str {
    match d {
        Direction::Tx => "TX",
        Direction::Rx => "RX",
    }
}

/// One timeline line as `Capture::write_timeline` wrote it with
/// `writeln!`.
fn old_line(r: &Captured<Packet>) -> String {
    let drop_mark = if r.dropped { "  [LOST IN FABRIC]" } else { "" };
    format!(
        "{:>12}  {}  {} -> {}  {:>5}B  {}{drop_mark}\n",
        old_time(r.time.as_ns()),
        old_direction(r.direction),
        format_args!("lid{}", r.src.0),
        format_args!("lid{}", r.dst.0),
        r.bytes,
        OldPacket(&r.payload)
    )
}

/// A word spread over every magnitude.
fn spread(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> rng.next_below(64)
}

/// Every packet kind: each `SegPos` of the segmented ones, both atomic
/// operations and every NAK, with seeded fields.
fn every_kind(rng: &mut SplitMix64, time: SimTime) -> Vec<PacketKind> {
    let data = Payload::from(&vec![0u8; rng.next_below(4_097) as usize][..]);
    let psn = |rng: &mut SplitMix64| Psn::new(rng.next_u64() as u32);
    let segs = [SegPos::Only, SegPos::First, SegPos::Middle, SegPos::Last];
    let mut kinds = vec![
        PacketKind::ReadRequest {
            rkey: MrKey(1),
            addr: spread(rng),
            len: spread(rng) as u32,
            resp_packets: 1,
        },
        PacketKind::AtomicRequest {
            op: AtomicOp::FetchAdd { add: spread(rng) },
            rkey: MrKey(1),
            addr: spread(rng),
        },
        PacketKind::AtomicRequest {
            op: AtomicOp::CompareSwap {
                compare: spread(rng),
                swap: spread(rng),
            },
            rkey: MrKey(1),
            addr: spread(rng),
        },
        PacketKind::AtomicResponse {
            original: spread(rng),
            req_psn: psn(rng),
        },
        PacketKind::Ack,
        PacketKind::Nak(NakKind::Rnr { delay: time }),
        PacketKind::Nak(NakKind::SequenceError { epsn: psn(rng) }),
        PacketKind::Nak(NakKind::RemoteAccess),
    ];
    for seg in segs {
        kinds.push(PacketKind::ReadResponse {
            seg,
            data: data.clone(),
            req_psn: psn(rng),
            offset: 0,
        });
        kinds.push(PacketKind::WriteRequest {
            seg,
            rkey: MrKey(1),
            addr: spread(rng),
            data: data.clone(),
        });
        kinds.push(PacketKind::Send {
            seg,
            data: data.clone(),
        });
    }
    kinds
}

/// Times below 1 us, at and beside every unit change, on `ms` and `s`
/// ties, from 2^53 ns, and spread.
fn times(rng: &mut SplitMix64) -> Vec<u64> {
    let mut t: Vec<u64> = (0..1_000).step_by(37).collect();
    for edge in [1_000, 1_000_000, 1_000_000_000, 1 << 53] {
        t.extend([edge - 1, edge, edge + 1]);
    }
    for _ in 0..50 {
        let ms_tie = 1_000 * (1_000 + rng.next_below(999_000)) + 500;
        let s_tie = 1_000_000 * (1_000 + rng.next_below((1 << 53) / 1_000_000 - 1_000)) + 500_000;
        t.extend([ms_tie - 1, ms_tie, ms_tie + 1, s_tie - 1, s_tie, s_tie + 1]);
    }
    t.extend([1_062_500, 1_187_500, 999_999_999, u64::MAX]);
    t.extend((0..200).map(|_| spread(rng)));
    t
}

#[test]
fn timeline_matches_the_format_text() {
    let mut rng = SplitMix64::new(0x0dd_1ce);
    let mut cap: Capture<Packet> = Capture::new();
    cap.enable();
    for ns in times(&mut rng) {
        let time = SimTime::from_ns(ns);
        for kind in every_kind(&mut rng, time) {
            for flags in 0..16u32 {
                let lid = |rng: &mut SplitMix64| match rng.next_below(4) {
                    0 => Lid(u16::MAX),
                    _ => Lid(rng.next_u64() as u16),
                };
                let packet = Packet {
                    src: lid(&mut rng),
                    dst: lid(&mut rng),
                    dst_qp: Qpn(rng.next_u64() as u32),
                    src_qp: Qpn(rng.next_u64() as u32),
                    psn: Psn::new(rng.next_u64() as u32),
                    kind: kind.clone(),
                    retransmit: flags & 1 != 0,
                    ghost: flags & 2 != 0,
                    ecn: flags & 4 != 0,
                };
                // One to six digits.
                let digits = 1 + rng.next_below(6) as u32;
                let bytes = rng.next_below(10u64.pow(digits)) as u32;
                let (src, dst, dir) = (packet.src, packet.dst, Direction::Tx);
                cap.record(time, dir, src, dst, bytes, flags & 8 != 0, packet);
            }
        }
    }
    let expected: String = cap.iter().map(old_line).collect();
    assert_eq!(cap.timeline(), expected);
    // And each `Display` on its own.
    for r in cap.iter() {
        assert_eq!(r.payload.to_string(), OldPacket(&r.payload).to_string());
        assert_eq!(r.time.to_string(), old_time(r.time.as_ns()));
        assert_eq!(r.src.to_string(), format!("lid{}", r.src.0));
        assert_eq!(r.payload.psn.to_string(), OldPsn(r.payload.psn).to_string());
        if let PacketKind::Nak(k) = r.payload.kind {
            assert_eq!(k.to_string(), OldNak(k).to_string());
        }
    }
}

/// The longest line the timeline renders fits a `Line`.
#[test]
fn worst_case_line_fits() {
    let mut cap: Capture<Packet> = Capture::new();
    cap.enable();
    let packet = Packet {
        src: Lid(u16::MAX),
        dst: Lid(u16::MAX),
        dst_qp: Qpn(u32::MAX),
        src_qp: Qpn(u32::MAX),
        psn: Psn::new(u32::MAX),
        kind: PacketKind::AtomicRequest {
            op: AtomicOp::CompareSwap {
                compare: u64::MAX,
                swap: u64::MAX,
            },
            rkey: MrKey(u32::MAX),
            addr: u64::MAX,
        },
        ghost: true,
        retransmit: true,
        ecn: true,
    };
    let (src, dst) = (packet.src, packet.dst);
    cap.record(
        SimTime::MAX,
        Direction::Rx,
        src,
        dst,
        u32::MAX,
        true,
        packet,
    );
    let text = cap.timeline();
    assert_eq!(text, old_line(&cap.records()[0]));
    assert!(text.len() <= Line::CAPACITY, "{} bytes", text.len());
    assert!(text.len() > 180, "the worst case is {} bytes", text.len());
}

const STATUSES: [(WcStatus, &str); 6] = [
    (WcStatus::Success, "IBV_WC_SUCCESS"),
    (WcStatus::RetryExcErr, "IBV_WC_RETRY_EXC_ERR"),
    (WcStatus::RnrRetryExcErr, "IBV_WC_RNR_RETRY_EXC_ERR"),
    (WcStatus::RemoteAccessErr, "IBV_WC_REM_ACCESS_ERR"),
    (WcStatus::WrFlushErr, "IBV_WC_WR_FLUSH_ERR"),
    (WcStatus::LocalProtErr, "IBV_WC_LOC_PROT_ERR"),
];

const OPCODES: [(WcOpcode, &str); 6] = [
    (WcOpcode::Read, "READ"),
    (WcOpcode::Write, "WRITE"),
    (WcOpcode::Send, "SEND"),
    (WcOpcode::Recv, "RECV"),
    (WcOpcode::FetchAdd, "FETCH_ADD"),
    (WcOpcode::CompareSwap, "CMP_SWAP"),
];

#[test]
fn completion_names_match_the_format_text() {
    for (status, name) in STATUSES {
        assert_eq!(status.to_string(), name);
        assert_eq!(Line::new().put(&status).as_str(), name);
    }
    for (opcode, name) in OPCODES {
        assert_eq!(opcode.to_string(), name);
        assert_eq!(Line::new().put(&opcode).as_str(), name);
    }
}

/// Width, fill and alignment reach every `Display` that renders a name,
/// as they always reached `SimTime`'s.
#[test]
fn display_pads_to_width() {
    assert_eq!(
        format!("{:<24}", WcStatus::Success),
        "IBV_WC_SUCCESS          "
    );
    assert_eq!(format!("{:>6}", Direction::Tx), "    TX");
    assert_eq!(format!("{:^8}", WcOpcode::Read), "  READ  ");
    assert_eq!(format!("{:>5}", SegPos::Middle), "  MID");
    assert_eq!(
        format!("{:*<18}", NakKind::RemoteAccess),
        "REM_ACCESS_ERR****"
    );
    assert_eq!(format!("{:>8}", Lid(7)), "    lid7");
    assert_eq!(format!("{:>8}", Psn::new(3)), "    psn3");
    let mut s = String::new();
    write!(
        s,
        "{:>10}|",
        Packet {
            src: Lid(1),
            dst: Lid(2),
            dst_qp: Qpn(1),
            src_qp: Qpn(1),
            psn: Psn::new(0),
            kind: PacketKind::Ack,
            ghost: false,
            retransmit: false,
            ecn: false,
        }
    )
    .unwrap();
    assert_eq!(s, "  ACK psn0|");
}
