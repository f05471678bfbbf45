//! Request-packet construction: turning a send WQE segment into wire
//! format. Pure functions shared by the first-transmission and
//! retransmission paths of the requester engine.

use crate::mem::Payload;
use crate::packet::{Packet, PacketKind, SegPos};
use crate::wr::{SendWqe, WrOp};

use super::fault::Span;
use super::{QpCtx, QpEnv};

/// The local source range segment `seg` of a WRITE/SEND gathers its
/// payload from. `None` when nothing is gathered: READ and ATOMIC
/// requests carry no payload, and neither does an empty segment.
pub(super) fn source_segment(wqe: &SendWqe, seg: u32, mtu: u32) -> Option<Span> {
    if matches!(wqe.op, WrOp::Read { .. } | WrOp::Atomic { .. }) {
        return None;
    }
    let (key, off) = wqe.op.local();
    let len = wqe.op.len().saturating_sub(seg * mtu).min(mtu);
    (len > 0).then_some(Span {
        key,
        off: off + (seg * mtu) as u64,
        len,
    })
}

/// Builds the request packet for segment `seg` of `wqe`.
pub(super) fn build_request_packet(
    env: &mut QpEnv<'_>,
    ctx: &QpCtx,
    wqe: &SendWqe,
    seg: u32,
    retransmit: bool,
) -> Packet {
    let mtu = ctx.cfg.mtu;
    // The payload of this segment, a snapshot of local memory now.
    let payload = |env: &mut QpEnv<'_>| {
        let Some(src) = source_segment(wqe, seg, mtu) else {
            return Payload::default();
        };
        let base = env
            .mrs
            .get(&src.key)
            .expect("invariant: WQE admitted with a valid lkey")
            .base();
        env.mem.gather(base + src.off, src.len as usize)
    };
    let kind = match &wqe.op {
        WrOp::Read {
            rkey,
            remote_off,
            len,
            ..
        } => PacketKind::ReadRequest {
            rkey: *rkey,
            addr: *remote_off,
            len: *len,
            resp_packets: wqe.resp_packets,
        },
        WrOp::Write {
            rkey, remote_off, ..
        } => PacketKind::WriteRequest {
            seg: SegPos::of(seg, wqe.req_packets),
            rkey: *rkey,
            addr: *remote_off + (seg * mtu) as u64,
            data: payload(env),
        },
        WrOp::Send { .. } => PacketKind::Send {
            seg: SegPos::of(seg, wqe.req_packets),
            data: payload(env),
        },
        WrOp::Atomic {
            rkey,
            remote_off,
            op,
            ..
        } => PacketKind::AtomicRequest {
            op: *op,
            rkey: *rkey,
            addr: *remote_off,
        },
    };
    Packet {
        ghost: wqe.ghosted,
        retransmit,
        ..ctx.packet(wqe.psn_first.add(seg), kind)
    }
}
