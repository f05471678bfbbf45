//! Hand-built packet and capture constructors shared by the unit tests.
//!
//! The canonical fixture is a client (lid 1, qp 10) talking to a server
//! (lid 2, qp 20); requests flow 1→2 and acknowledgements 2→1.

use ibsim_event::SimTime;
use ibsim_fabric::{Capture, Direction, Lid};
use ibsim_verbs::{MrKey, NakKind, Packet, PacketKind, Payload, Psn, Qpn, RecoveryKind, SegPos};

use crate::record::{walk, Record};

/// Replays `cap` against the reference walks, then returns its record.
pub fn replayed(cap: &Capture<Packet>, recovery: RecoveryKind) -> Record {
    crate::reference::replay(cap, recovery);
    walk(cap, recovery)
}

/// A READ request from the client consuming `resp_packets` PSNs.
pub fn read_req(psn: u32, resp_packets: u32) -> Packet {
    Packet {
        src: Lid(1),
        dst: Lid(2),
        src_qp: Qpn(10),
        dst_qp: Qpn(20),
        psn: Psn::new(psn),
        kind: PacketKind::ReadRequest {
            rkey: MrKey(1),
            addr: 0,
            len: resp_packets * 256,
            resp_packets,
        },
        ghost: false,
        ecn: false,
        retransmit: false,
    }
}

/// A single-segment READ response from the server for request `req_psn`.
pub fn read_resp(req_psn: u32, psn: u32) -> Packet {
    Packet {
        src: Lid(2),
        dst: Lid(1),
        src_qp: Qpn(20),
        dst_qp: Qpn(10),
        psn: Psn::new(psn),
        kind: PacketKind::ReadResponse {
            seg: SegPos::Only,
            data: Payload::from(&[0u8; 256][..]),
            req_psn: Psn::new(req_psn),
            offset: 0,
        },
        ghost: false,
        ecn: false,
        retransmit: false,
    }
}

/// An ACK from the server covering `psn`.
pub fn ack(psn: u32) -> Packet {
    Packet {
        src: Lid(2),
        dst: Lid(1),
        src_qp: Qpn(20),
        dst_qp: Qpn(10),
        psn: Psn::new(psn),
        kind: PacketKind::Ack,
        ghost: false,
        ecn: false,
        retransmit: false,
    }
}

/// A sequence-error NAK from the server expecting `epsn`.
pub fn nak_seq(epsn: u32) -> Packet {
    Packet {
        src: Lid(2),
        dst: Lid(1),
        src_qp: Qpn(20),
        dst_qp: Qpn(10),
        psn: Psn::new(epsn),
        kind: PacketKind::Nak(NakKind::SequenceError {
            epsn: Psn::new(epsn),
        }),
        ghost: false,
        ecn: false,
        retransmit: false,
    }
}

/// An RNR NAK from the server.
pub fn nak_rnr() -> Packet {
    Packet {
        src: Lid(2),
        dst: Lid(1),
        src_qp: Qpn(20),
        dst_qp: Qpn(10),
        psn: Psn::new(0),
        kind: PacketKind::Nak(NakKind::Rnr {
            delay: SimTime::from_us(500),
        }),
        ghost: false,
        ecn: false,
        retransmit: false,
    }
}

fn record(cap: &mut Capture<Packet>, t_ns: u64, dir: Direction, dropped: bool, p: Packet) {
    let bytes = p.wire_bytes();
    let (src, dst) = (p.src, p.dst);
    cap.record(SimTime::from_ns(t_ns), dir, src, dst, bytes, dropped, p);
}

/// Records a delivered transmission at `t_ns` nanoseconds.
pub fn tx(cap: &mut Capture<Packet>, t_ns: u64, p: Packet) {
    record(cap, t_ns, Direction::Tx, false, p);
}

/// Records a transmission the fabric dropped.
pub fn tx_dropped(cap: &mut Capture<Packet>, t_ns: u64, p: Packet) {
    record(cap, t_ns, Direction::Tx, true, p);
}

/// Records a ghost transmission (damming quirk: seen at the sender's
/// capture point, never put on the wire).
pub fn tx_ghost(cap: &mut Capture<Packet>, t_ns: u64, mut p: Packet) {
    p.ghost = true;
    record(cap, t_ns, Direction::Tx, true, p);
}

/// Records a retransmission.
pub fn tx_retx(cap: &mut Capture<Packet>, t_ns: u64, mut p: Packet) {
    p.retransmit = true;
    record(cap, t_ns, Direction::Tx, false, p);
}

/// Records a reception.
pub fn rx(cap: &mut Capture<Packet>, t_ns: u64, p: Packet) {
    record(cap, t_ns, Direction::Rx, false, p);
}
