//! Wire packet formats.
//!
//! The simulator models packets at the granularity `ibdump` shows them:
//! opcode, PSN, addressing, and payload bytes (a [`Payload`] snapshot of
//! the sender's pages). Multi-MTU messages are segmented into
//! FIRST/MIDDLE/LAST packets each carrying its own PSN, exactly as RC
//! does on the wire.

use core::fmt;

use crate::mem::Payload;
use crate::types::{MrKey, Psn, Qpn, AETH_BYTES, ATOMIC_ETH_BYTES, BASE_HEADER_BYTES, RETH_BYTES};
use ibsim_event::{Line, Render};
use ibsim_fabric::Lid;

/// Position of a packet within a segmented message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegPos {
    /// The message fits in one packet.
    Only,
    /// First packet of a multi-packet message.
    First,
    /// Interior packet.
    Middle,
    /// Final packet of a multi-packet message.
    Last,
}

impl SegPos {
    /// Computes the position of segment `idx` out of `total`.
    pub fn of(idx: u32, total: u32) -> SegPos {
        match (idx, total) {
            (_, 1) => SegPos::Only,
            (0, _) => SegPos::First,
            (i, t) if i + 1 == t => SegPos::Last,
            _ => SegPos::Middle,
        }
    }

    /// True for `Only` and `Last`: the packet completes a message.
    pub fn is_final(self) -> bool {
        matches!(self, SegPos::Only | SegPos::Last)
    }
}

impl fmt::Display for SegPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            SegPos::Only => "ONLY",
            SegPos::First => "FIRST",
            SegPos::Middle => "MID",
            SegPos::Last => "LAST",
        })
    }
}

/// NAK subtypes the simulator distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakKind {
    /// Receiver Not Ready: retry after at least the advertised delay.
    Rnr {
        /// Minimum delay before retrying (decoded from the 5-bit field).
        delay: ibsim_event::SimTime,
    },
    /// PSN sequence error: the responder expected `epsn`.
    SequenceError {
        /// The PSN the responder expects next.
        epsn: Psn,
    },
    /// The request named an invalid rkey or an out-of-bounds range.
    RemoteAccess,
}

impl Render for NakKind {
    fn render(&self, out: &mut Line) {
        match self {
            NakKind::Rnr { delay } => out.push(b"RNR(").time(*delay).push(b")"),
            NakKind::SequenceError { epsn } => out.push(b"SEQ_ERR(exp ").put(epsn).push(b")"),
            NakKind::RemoteAccess => out.push(b"REM_ACCESS_ERR"),
        };
    }
}

impl fmt::Display for NakKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Line::pad(self, f)
    }
}

/// The two InfiniBand atomic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// Fetch-and-add: returns the original value, stores `original + add`.
    FetchAdd {
        /// The addend.
        add: u64,
    },
    /// Compare-and-swap: returns the original value, stores `swap` only
    /// if the original equals `compare`.
    CompareSwap {
        /// Expected value.
        compare: u64,
        /// Replacement value.
        swap: u64,
    },
}

/// Every opcode mnemonic, in byte order, at its [`PacketKind::opcode_id`].
const OPCODES: [&str; 20] = [
    "ACK",
    "ATOMIC_ACK",
    "CMP_SWAP",
    "FETCH_ADD",
    "NAK_REM_ACCESS",
    "NAK_SEQ_ERR",
    "RDMA_READ_REQ",
    "RDMA_READ_RESP_FIRST",
    "RDMA_READ_RESP_LAST",
    "RDMA_READ_RESP_MID",
    "RDMA_READ_RESP_ONLY",
    "RDMA_WRITE_FIRST",
    "RDMA_WRITE_LAST",
    "RDMA_WRITE_MID",
    "RDMA_WRITE_ONLY",
    "RNR_NAK",
    "SEND_FIRST",
    "SEND_LAST",
    "SEND_MID",
    "SEND_ONLY",
];

/// Transport-level content of a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// RDMA READ request: asks the responder to return `len` bytes from
    /// `(rkey, addr)`. Consumes `resp_packets` PSNs (one per response
    /// segment).
    ReadRequest {
        /// Remote key of the target memory region.
        rkey: MrKey,
        /// Byte offset within the target region.
        addr: u64,
        /// Number of bytes to read.
        len: u32,
        /// Number of response packets (and PSNs) this READ spans.
        resp_packets: u32,
    },
    /// One segment of an RDMA READ response carrying `data`.
    ReadResponse {
        /// Segment position.
        seg: SegPos,
        /// Payload bytes of this segment.
        data: Payload,
        /// PSN of the request packet this responds to.
        req_psn: Psn,
        /// Byte offset of this segment within the whole READ.
        offset: u32,
    },
    /// One segment of an RDMA WRITE request.
    WriteRequest {
        /// Segment position.
        seg: SegPos,
        /// Remote key of the target memory region.
        rkey: MrKey,
        /// Byte offset of this segment's destination within the region.
        addr: u64,
        /// Payload bytes of this segment.
        data: Payload,
    },
    /// One segment of a two-sided SEND.
    Send {
        /// Segment position.
        seg: SegPos,
        /// Payload bytes of this segment.
        data: Payload,
    },
    /// An 8-byte atomic request.
    AtomicRequest {
        /// The operation.
        op: AtomicOp,
        /// Remote key of the target memory region.
        rkey: MrKey,
        /// Byte offset of the 8-byte target within the region.
        addr: u64,
    },
    /// The original 64-bit value returned by an atomic.
    AtomicResponse {
        /// Value at the target before the operation.
        original: u64,
        /// PSN of the request this responds to.
        req_psn: Psn,
    },
    /// Positive acknowledgment of everything up to and including `psn`
    /// (the PSN is carried in the BTH; field kept explicit for clarity).
    Ack,
    /// Negative acknowledgment.
    Nak(NakKind),
}

impl PacketKind {
    /// Short opcode mnemonic, as a capture tool would print.
    pub fn opcode(&self) -> &'static str {
        OPCODES[usize::from(self.opcode_id())]
    }

    /// The opcode as a small integer: its mnemonic's index among all
    /// mnemonics in byte order, so ids compare as [`PacketKind::opcode`]
    /// names do.
    pub fn opcode_id(&self) -> u8 {
        // Segment names in byte order: FIRST, LAST, MID, ONLY.
        let seg = |s: &SegPos| match s {
            SegPos::First => 0,
            SegPos::Last => 1,
            SegPos::Middle => 2,
            SegPos::Only => 3,
        };
        match self {
            PacketKind::Ack => 0,
            PacketKind::AtomicResponse { .. } => 1,
            PacketKind::AtomicRequest {
                op: AtomicOp::CompareSwap { .. },
                ..
            } => 2,
            PacketKind::AtomicRequest {
                op: AtomicOp::FetchAdd { .. },
                ..
            } => 3,
            PacketKind::Nak(NakKind::RemoteAccess) => 4,
            PacketKind::Nak(NakKind::SequenceError { .. }) => 5,
            PacketKind::ReadRequest { .. } => 6,
            PacketKind::ReadResponse { seg: s, .. } => 7 + seg(s),
            PacketKind::WriteRequest { seg: s, .. } => 11 + seg(s),
            PacketKind::Nak(NakKind::Rnr { .. }) => 15,
            PacketKind::Send { seg: s, .. } => 16 + seg(s),
        }
    }

    /// True for requester→responder packets that consume a request PSN.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            PacketKind::ReadRequest { .. }
                | PacketKind::WriteRequest { .. }
                | PacketKind::Send { .. }
                | PacketKind::AtomicRequest { .. }
        )
    }
}

/// A packet on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Source port LID.
    pub src: Lid,
    /// Destination port LID.
    pub dst: Lid,
    /// Destination QP number (BTH field).
    pub dst_qp: Qpn,
    /// Source QP number (for capture readability; RC peers know each other).
    pub src_qp: Qpn,
    /// Packet sequence number.
    pub psn: Psn,
    /// Transport content.
    pub kind: PacketKind,
    /// Damming-quirk marker: the packet appears in the sender-side capture
    /// but is never delivered (see `DeviceProfile::damming`).
    pub ghost: bool,
    /// True if this transmission is a retransmission.
    pub retransmit: bool,
    /// Congestion-experienced mark set by a congested fabric hop (the
    /// IB FECN / RoCE ECN-CE analogue). Always false on transmit; the
    /// fabric sets it in flight, so only receive-side captures show it.
    pub ecn: bool,
}

/// The class a packet is counted under. One mapping serves the send-side
/// counts ([`ClusterStats`](crate::ClusterStats) and the host-labelled
/// `packets.*` counters) and a capture's traffic summary, so a count
/// means the same thing wherever it is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketClass {
    /// A request's first transmission.
    Request,
    /// A retransmitted request.
    Retransmit,
    /// A READ response segment or an `ATOMIC_ACK`.
    Response,
    /// A positive acknowledgment.
    Ack,
    /// A Receiver Not Ready NAK.
    RnrNak,
    /// A PSN sequence error NAK.
    SeqNak,
    /// Any other NAK (a remote access error).
    OtherNak,
}

impl Packet {
    /// The class this packet is counted under.
    pub fn class(&self) -> PacketClass {
        match &self.kind {
            PacketKind::ReadRequest { .. }
            | PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. } => {
                if self.retransmit {
                    PacketClass::Retransmit
                } else {
                    PacketClass::Request
                }
            }
            PacketKind::ReadResponse { .. } | PacketKind::AtomicResponse { .. } => {
                PacketClass::Response
            }
            PacketKind::Ack => PacketClass::Ack,
            PacketKind::Nak(NakKind::Rnr { .. }) => PacketClass::RnrNak,
            PacketKind::Nak(NakKind::SequenceError { .. }) => PacketClass::SeqNak,
            PacketKind::Nak(NakKind::RemoteAccess) => PacketClass::OtherNak,
        }
    }

    /// Total wire size in bytes (headers + payload).
    pub fn wire_bytes(&self) -> u32 {
        let payload = match &self.kind {
            PacketKind::ReadRequest { .. } | PacketKind::AtomicRequest { .. } => 0,
            PacketKind::ReadResponse { data, .. } => data.len() as u32,
            PacketKind::WriteRequest { data, .. } => data.len() as u32,
            PacketKind::Send { data, .. } => data.len() as u32,
            PacketKind::AtomicResponse { .. } => 8,
            PacketKind::Ack | PacketKind::Nak(_) => 0,
        };
        let ext = match &self.kind {
            PacketKind::ReadRequest { .. } | PacketKind::WriteRequest { .. } => RETH_BYTES,
            PacketKind::AtomicRequest { .. } => ATOMIC_ETH_BYTES,
            PacketKind::Ack
            | PacketKind::Nak(_)
            | PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. } => AETH_BYTES,
            PacketKind::Send { .. } => 0,
        };
        BASE_HEADER_BYTES + ext + payload
    }
}

impl Render for Packet {
    fn render(&self, out: &mut Line) {
        out.push(self.kind.opcode().as_bytes())
            .push(b" ")
            .put(&self.psn);
        match &self.kind {
            PacketKind::ReadRequest { addr, len, .. } => {
                out.push(b" addr=0x").hex(*addr);
                out.push(b" len=").uint(u64::from(*len));
            }
            PacketKind::ReadResponse { req_psn, data, .. } => {
                out.push(b" req=").put(req_psn);
                out.push(b" len=").uint(data.len() as u64);
            }
            PacketKind::WriteRequest { addr, data, .. } => {
                out.push(b" addr=0x").hex(*addr);
                out.push(b" len=").uint(data.len() as u64);
            }
            PacketKind::Send { data, .. } => {
                out.push(b" len=").uint(data.len() as u64);
            }
            PacketKind::AtomicRequest { op, addr, .. } => {
                out.push(b" addr=0x").hex(*addr);
                match op {
                    AtomicOp::FetchAdd { add } => out.push(b" add=").uint(*add),
                    AtomicOp::CompareSwap { compare, swap } => out
                        .push(b" cmp=")
                        .uint(*compare)
                        .push(b" swap=")
                        .uint(*swap),
                };
            }
            PacketKind::AtomicResponse { original, req_psn } => {
                out.push(b" orig=").uint(*original);
                out.push(b" req=").put(req_psn);
            }
            PacketKind::Ack => {}
            PacketKind::Nak(k) => {
                out.push(b" ").put(k);
            }
        }
        if self.retransmit {
            out.push(b" [RETX]");
        }
        if self.ghost {
            out.push(b" [GHOST]");
        }
        if self.ecn {
            out.push(b" [ECN]");
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Line::pad(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(kind: PacketKind) -> Packet {
        Packet {
            src: Lid(1),
            dst: Lid(2),
            dst_qp: Qpn(5),
            src_qp: Qpn(4),
            psn: Psn::new(9),
            kind,
            ghost: false,
            retransmit: false,
            ecn: false,
        }
    }

    #[test]
    fn seg_pos_of() {
        assert_eq!(SegPos::of(0, 1), SegPos::Only);
        assert_eq!(SegPos::of(0, 3), SegPos::First);
        assert_eq!(SegPos::of(1, 3), SegPos::Middle);
        assert_eq!(SegPos::of(2, 3), SegPos::Last);
        assert!(SegPos::Only.is_final());
        assert!(SegPos::Last.is_final());
        assert!(!SegPos::First.is_final());
    }

    #[test]
    fn wire_bytes_counts_headers() {
        let req = packet(PacketKind::ReadRequest {
            rkey: MrKey(1),
            addr: 0,
            len: 100,
            resp_packets: 1,
        });
        assert_eq!(req.wire_bytes(), BASE_HEADER_BYTES + RETH_BYTES);
        let resp = packet(PacketKind::ReadResponse {
            seg: SegPos::Only,
            data: Payload::from(&[0u8; 100][..]),
            req_psn: Psn::new(9),
            offset: 0,
        });
        assert_eq!(resp.wire_bytes(), BASE_HEADER_BYTES + AETH_BYTES + 100);
        let ack = packet(PacketKind::Ack);
        assert_eq!(ack.wire_bytes(), BASE_HEADER_BYTES + AETH_BYTES);
    }

    #[test]
    fn opcodes_match_segments() {
        let p = packet(PacketKind::Send {
            seg: SegPos::First,
            data: Payload::default(),
        });
        assert_eq!(p.kind.opcode(), "SEND_FIRST");
        assert!(p.kind.is_request());
        let r = packet(PacketKind::ReadResponse {
            seg: SegPos::Last,
            data: Payload::default(),
            req_psn: Psn::new(0),
            offset: 0,
        });
        assert_eq!(r.kind.opcode(), "RDMA_READ_RESP_LAST");
        assert!(!r.kind.is_request());
    }

    /// Opcode ids order as the names do: the table is in byte order.
    #[test]
    fn opcode_table_is_in_byte_order() {
        assert!(OPCODES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_includes_markers() {
        let mut p = packet(PacketKind::Ack);
        p.retransmit = true;
        p.ghost = true;
        let s = p.to_string();
        assert!(s.contains("[RETX]"));
        assert!(s.contains("[GHOST]"));
        assert!(s.contains("ACK"));
        // ECN renders only when set, so crossbar captures are unchanged.
        assert!(!s.contains("[ECN]"));
        p.ecn = true;
        assert!(p.to_string().contains("[ECN]"));
    }

    #[test]
    fn nak_display() {
        let p = packet(PacketKind::Nak(NakKind::SequenceError {
            epsn: Psn::new(3),
        }));
        assert!(p.to_string().contains("SEQ_ERR(exp psn3)"));
    }
}
