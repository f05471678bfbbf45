//! The responder engine: ePSN tracking, duplicate and out-of-sequence
//! handling, RNR NAK generation, and ODP fault pendency.
//!
//! Everything here runs on the *target* side of a connection. The engine
//! owns no requester state; fault pendency (§III-B) — silently dropping
//! every packet on the QP until the faulted request is served again — is
//! the responder-side half of packet damming.

use std::collections::{BTreeMap, VecDeque};

use crate::mem::{MemRegion, Payload};
use crate::packet::{AtomicOp, NakKind, Packet, PacketKind, SegPos};
use crate::types::{MrKey, Psn};
use crate::wr::{Completion, RecvWr, WcOpcode, WcStatus};

use super::effects::Effects;
use super::fault::{self, GateStats, Span};
use super::{QpCtx, QpEnv};

/// Responder-side protocol counters (merged into the public
/// [`QpStats`](super::QpStats) by the facade).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct RespStats {
    /// RNR NAKs sent.
    pub(super) rnr_naks_sent: u64,
    /// Sequence-error NAKs sent.
    pub(super) seq_naks_sent: u64,
    /// Request packets silently dropped by fault pendency.
    pub(super) pendency_drops: u64,
    /// Faults raised and pages pinned by the page gate on this side.
    pub(super) gate: GateStats,
    /// Future requests executed out of order (`SelectiveRepeat` only).
    pub(super) ooo_executed: u64,
}

/// Responder-side reason for dropping everything on the floor.
#[derive(Debug, Clone)]
enum RespPend {
    /// An ODP fault on these pages is in flight; `psn` is the faulted
    /// request so its retransmission can be RNR-NAKed again if early.
    Fault {
        psn: Psn,
        pages: Vec<(MrKey, usize)>,
    },
    /// No receive was posted for an incoming SEND.
    NoRecv { psn: Psn },
}

/// The responder half of an RC queue pair.
#[derive(Debug)]
pub(super) struct Responder {
    epsn: Psn,
    nak_seq_sent: bool,
    resp_pend: Option<RespPend>,
    rq: VecDeque<RecvWr>,
    rq_written: u32,
    /// Results of recently executed atomics, keyed by PSN: duplicates
    /// must be *replayed*, never re-executed (atomics are not idempotent;
    /// the spec's atomic response resources, §9.4.5).
    atomic_replay: VecDeque<(Psn, u64)>,
    /// Selective repeat only: spans executed out of order, keyed by
    /// their first PSN value → PSN span length. When the hole fills, the
    /// ePSN jumps over every contiguous recorded span (see `drain_ooo`).
    /// Always empty under go-back-N and on-demand pinning.
    ooo_done: BTreeMap<u32, u32>,
    /// A request arrived ECN-marked; the next ACK echoes the mark back
    /// to the requester (the BECN half of FECN/BECN). Never set on a
    /// crossbar fabric, which has no marking hops.
    ecn_pending: bool,
    /// Protocol counters.
    pub(super) stats: RespStats,
}

impl Responder {
    /// A fresh responder expecting PSN 0.
    pub(super) fn new() -> Self {
        Responder {
            epsn: Psn::new(0),
            nak_seq_sent: false,
            resp_pend: None,
            rq: VecDeque::new(),
            rq_written: 0,
            atomic_replay: VecDeque::new(),
            ooo_done: BTreeMap::new(),
            ecn_pending: false,
            stats: RespStats::default(),
        }
    }

    /// Expected PSN (for debugging).
    pub(super) fn epsn(&self) -> Psn {
        self.epsn
    }

    /// Posts a receive buffer for an incoming SEND.
    pub(super) fn post_recv(&mut self, recv: RecvWr) {
        self.rq.push_back(recv);
        if matches!(self.resp_pend, Some(RespPend::NoRecv { .. })) {
            self.resp_pend = None;
        }
    }

    /// Handles an incoming request packet.
    pub(super) fn on_request(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
    ) {
        if pkt.ecn {
            self.ecn_pending = true;
        }
        let target = target(&pkt.kind);
        // Fault pendency: drop everything; re-RNR-NAK the faulted PSN
        // itself so an early retransmission keeps the requester waiting.
        if let Some(pend) = &self.resp_pend {
            let pend_psn = match pend {
                RespPend::Fault { psn, .. } | RespPend::NoRecv { psn } => *psn,
            };
            if pkt.psn == pend_psn {
                self.send_rnr_nak(ctx, fx, pkt.psn);
            } else {
                self.stats.pendency_drops += 1;
                // The NIC still queues page faults for the dropped
                // packets' target pages (under every backend) — by the
                // time the requester works its way back here, later
                // pages are already resolving.
                if let Some(span) = target {
                    if let Some(mr) = in_bounds(env.mrs, span) {
                        fault::raise(mr, span, &mut self.stats.gate, fx);
                    }
                }
            }
            return;
        }
        if pkt.psn == self.epsn {
            self.nak_seq_sent = false;
            // A hole filling with a duplicate of a span already executed
            // out of order consumes the recording instead of
            // re-executing (re-applying an older WRITE payload over a
            // newer out-of-order one would reorder memory).
            if !self.ooo_done.contains_key(&pkt.psn.value()) {
                self.execute_request(ctx, env, fx, pkt, target);
            }
            self.drain_ooo();
        } else if pkt.psn.precedes(self.epsn) {
            self.handle_duplicate(ctx, env, fx, pkt, target);
        } else {
            // Future PSN: something was lost in between.
            if !self.nak_seq_sent {
                self.nak_seq_sent = true;
                self.stats.seq_naks_sent += 1;
                let nak = NakKind::SequenceError { epsn: self.epsn };
                fx.packets.push(ctx.packet(pkt.psn, PacketKind::Nak(nak)));
            }
            if ctx.cfg.recovery.accepts_out_of_order() {
                self.execute_ooo(ctx, env, fx, pkt, target);
            }
        }
    }

    /// Advances the ePSN over every contiguous span recorded by
    /// out-of-order execution. A no-op (empty map) under go-back-N and
    /// on-demand pinning, keeping their traces byte-identical.
    fn drain_ooo(&mut self) {
        while let Some(len) = self.ooo_done.remove(&self.epsn.value()) {
            self.epsn = self.epsn.add(len);
        }
    }

    /// Selective repeat only: IRN-style out-of-order acceptance. A future
    /// READ or WRITE that passes the gate's non-faulting probe executes
    /// on arrival and its span is recorded so the ePSN can jump over it
    /// once the hole fills. Anything the probe refuses (bad rkey/range,
    /// unmapped ODP pages) drops silently — the in-order retransmission
    /// produces the proper NAK or fault pendency. SENDs stay in order
    /// (receive buffers are consumed in posting order) and atomics stay
    /// in order (reordering same-address atomics across WQEs would
    /// change final memory; the replay cache only guards re-execution,
    /// not cross-WQE order). Out-of-order execution never emits ACKs:
    /// acking a final segment while an earlier segment is still missing
    /// would retire the whole message under the requester's
    /// message-level acking and lose the hole. Liveness comes from the
    /// seq-NAK-driven message retransmission, whose duplicate final
    /// segment is re-ACKed.
    fn execute_ooo(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
        target: Option<Span>,
    ) {
        if self.ooo_done.contains_key(&pkt.psn.value()) {
            return; // duplicate of a span already executed out of order
        }
        let Some(at) = target.and_then(|t| probe(env.mrs, t)) else {
            return;
        };
        let psns = match &pkt.kind {
            PacketKind::ReadRequest {
                len, resp_packets, ..
            } => {
                push_read_responses(ctx, env, fx, pkt.psn, (at, *len, *resp_packets), false);
                *resp_packets
            }
            PacketKind::WriteRequest { data, .. } => {
                env.mem.write_payload(at, data);
                1
            }
            PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. }
            | PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => return,
        };
        self.ooo_done.insert(pkt.psn.value(), psns);
        self.stats.ooo_executed += 1;
    }

    fn send_rnr_nak(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        self.stats.rnr_naks_sent += 1;
        let delay = ctx.cfg.min_rnr_delay;
        fx.packets
            .push(ctx.packet(psn, PacketKind::Nak(NakKind::Rnr { delay })));
    }

    fn send_ack(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        let mut ack = ctx.packet(psn, PacketKind::Ack);
        // Echo a pending forward-path congestion mark back to the
        // requester; consumed so each mark is echoed once.
        ack.ecn = std::mem::take(&mut self.ecn_pending);
        fx.packets.push(ack);
    }

    fn nak_remote_access(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        fx.packets
            .push(ctx.packet(psn, PacketKind::Nak(NakKind::RemoteAccess)));
    }

    /// The one admission: may this QP touch `span` now, and where is it?
    /// An unknown key or a range outside the region is refused with a
    /// remote-access NAK. Otherwise the page gate runs, and pages still
    /// pending after it begin fault pendency (server-side ODP, §III-B):
    /// RNR-NAK the requester and drop everything until they resolve.
    /// Returns the host address of the span's first byte when the
    /// request may execute; `None` means it has been answered.
    fn admit(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        psn: Psn,
        span: Span,
    ) -> Option<u64> {
        let Some(mr) = in_bounds(env.mrs, span) else {
            self.nak_remote_access(ctx, fx, psn);
            return None;
        };
        let gated = fault::admit(ctx.cfg.recovery, mr, span, &mut self.stats.gate, fx);
        let pages: Vec<_> = gated.pending(mr).collect();
        if pages.is_empty() {
            return Some(mr.base() + span.off);
        }
        self.resp_pend = Some(RespPend::Fault { psn, pages });
        self.send_rnr_nak(ctx, fx, psn);
        None
    }

    /// Executes the in-sequence request `pkt` against its `target`.
    fn execute_request(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
        target: Option<Span>,
    ) {
        let psn = pkt.psn;
        if let PacketKind::Send { seg, data } = &pkt.kind {
            return self.execute_send(ctx, env, fx, psn, *seg, data);
        }
        let span = target.expect("invariant: every request but a SEND names its target");
        match &pkt.kind {
            PacketKind::ReadRequest {
                len, resp_packets, ..
            } => {
                if let Some(src) = self.admit(ctx, env, fx, psn, span) {
                    push_read_responses(ctx, env, fx, psn, (src, *len, *resp_packets), false);
                    self.epsn = psn.add(*resp_packets);
                }
            }
            PacketKind::WriteRequest { seg, data, .. } => {
                if let Some(dst) = self.admit(ctx, env, fx, psn, span) {
                    env.mem.write_payload(dst, data);
                    self.epsn = self.epsn.next();
                    if seg.is_final() {
                        self.send_ack(ctx, fx, psn);
                    }
                }
            }
            PacketKind::AtomicRequest { op, .. } => {
                if !span.off.is_multiple_of(8) {
                    self.nak_remote_access(ctx, fx, psn);
                } else if let Some(at) = self.admit(ctx, env, fx, psn, span) {
                    self.execute_atomic(ctx, env, fx, psn, *op, at);
                }
            }
            PacketKind::Send { .. }
            | PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => unreachable!("responder only sees requests"),
        }
    }

    /// A SEND targets the head posted receive, continuing where the
    /// message's earlier segments left off.
    fn execute_send(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        psn: Psn,
        seg: SegPos,
        data: &Payload,
    ) {
        let len = data.len() as u32;
        let Some(recv) = self.rq.front() else {
            self.resp_pend = Some(RespPend::NoRecv { psn });
            self.send_rnr_nak(ctx, fx, psn);
            return;
        };
        if self.rq_written + len > recv.max_len {
            self.nak_remote_access(ctx, fx, psn);
            return;
        }
        let span = Span {
            key: recv.mr,
            off: recv.offset + self.rq_written as u64,
            len,
        };
        let wr_id = recv.id;
        let Some(dst) = self.admit(ctx, env, fx, psn, span) else {
            return;
        };
        env.mem.write_payload(dst, data);
        self.rq_written += len;
        self.epsn = self.epsn.next();
        if seg.is_final() {
            self.send_ack(ctx, fx, psn);
            self.rq.pop_front();
            let c = Completion {
                wr_id,
                qpn: ctx.qpn,
                status: WcStatus::Success,
                opcode: WcOpcode::Recv,
                bytes: self.rq_written,
                at: env.now,
            };
            fx.completions.push((c, None));
            self.rq_written = 0;
        }
    }

    /// Applies the atomic `op` to the 8 admitted bytes at host address
    /// `at` and answers with the original value.
    fn execute_atomic(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        psn: Psn,
        op: AtomicOp,
        at: u64,
    ) {
        let mut word = [0; 8];
        env.mem.read_into(at, &mut word);
        let original = u64::from_le_bytes(word);
        let new = match op {
            AtomicOp::FetchAdd { add } => original.wrapping_add(add),
            AtomicOp::CompareSwap { compare, swap } => {
                if original == compare {
                    swap
                } else {
                    original
                }
            }
        };
        env.mem.write(at, &new.to_le_bytes());
        self.atomic_replay.push_back((psn, original));
        if self.atomic_replay.len() > 16 {
            self.atomic_replay.pop_front();
        }
        self.epsn = self.epsn.next();
        let kind = PacketKind::AtomicResponse {
            original,
            req_psn: psn,
        };
        fx.packets.push(ctx.packet(psn, kind));
    }

    /// Duplicate requests: re-execute READs (the blind-retransmission path
    /// of client-side ODP relies on this), replay ATOMICs, re-ACK final
    /// WRITE/SEND segments.
    fn handle_duplicate(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
        target: Option<Span>,
    ) {
        match &pkt.kind {
            PacketKind::ReadRequest {
                len, resp_packets, ..
            } => {
                // Refused by the probe only if a page got invalidated
                // again: drop, the requester's timeout re-drives it in
                // order.
                if let Some(src) = target.and_then(|t| probe(env.mrs, t)) {
                    push_read_responses(ctx, env, fx, pkt.psn, (src, *len, *resp_packets), true);
                }
            }
            PacketKind::AtomicRequest { .. } => self.duplicate_atomic(ctx, fx, pkt.psn),
            PacketKind::WriteRequest { seg, .. } | PacketKind::Send { seg, .. }
                if seg.is_final() =>
            {
                // Idempotent re-ACK; data is not re-applied.
                self.send_ack(ctx, fx, pkt.psn);
            }
            // Duplicate non-final WRITE/SEND segments are absorbed
            // silently; responses and (N)ACKs are not requests.
            PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => {}
        }
    }

    fn duplicate_atomic(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        // Never re-execute: replay the stored result if still in the
        // replay window; otherwise drop (the requester's timeout will
        // surface the loss).
        let replay = self.atomic_replay.iter().find(|(p, _)| *p == psn);
        if let Some(&(req_psn, original)) = replay {
            let kind = PacketKind::AtomicResponse { original, req_psn };
            fx.packets.push(Packet {
                retransmit: true,
                ..ctx.packet(psn, kind)
            });
        }
    }

    /// The faulted PSN and the pages fault pendency still waits on.
    #[cfg(test)]
    pub(super) fn fault_pendency(&self) -> Option<(Psn, &[(MrKey, usize)])> {
        match &self.resp_pend {
            Some(RespPend::Fault { psn, pages }) => Some((*psn, pages)),
            Some(RespPend::NoRecv { .. }) | None => None,
        }
    }

    /// True while fault pendency holds: the only state `page_ready` reads.
    pub(super) fn awaits_page(&self) -> bool {
        matches!(self.resp_pend, Some(RespPend::Fault { .. }))
    }

    /// A page became usable: clear it from any fault pendency; the last
    /// page resolving lifts the pendency.
    pub(super) fn page_ready(&mut self, mr: MrKey, page: usize) {
        if let Some(RespPend::Fault { pages, .. }) = &mut self.resp_pend {
            pages.retain(|&(m, p)| !(m == mr && p == page));
            if pages.is_empty() {
                self.resp_pend = None;
            }
        }
    }
}

/// The memory a request targets, derived once per packet: READ, WRITE
/// and ATOMIC name it by rkey. SENDs land in posted-receive buffers
/// (resolved at execution), and responses and (N)ACKs carry none.
fn target(kind: &PacketKind) -> Option<Span> {
    let (key, off, len) = match kind {
        PacketKind::ReadRequest {
            rkey, addr, len, ..
        } => (*rkey, *addr, *len),
        PacketKind::WriteRequest {
            rkey, addr, data, ..
        } => (*rkey, *addr, data.len() as u32),
        PacketKind::AtomicRequest { rkey, addr, .. } => (*rkey, *addr, 8),
        PacketKind::Send { .. }
        | PacketKind::ReadResponse { .. }
        | PacketKind::AtomicResponse { .. }
        | PacketKind::Ack
        | PacketKind::Nak(_) => return None,
    };
    Some(Span { key, off, len })
}

/// The region `span` names, if it is registered and holds the range.
fn in_bounds(mrs: &mut BTreeMap<MrKey, MemRegion>, span: Span) -> Option<&mut MemRegion> {
    mrs.get_mut(&span.key)
        .filter(|mr| mr.contains(span.off, span.len))
}

/// The admission's non-faulting form, for requests that may only execute
/// if nothing needs answering: the host address of `span` if its region
/// is registered, holds the range and has every page mapped.
fn probe(mrs: &BTreeMap<MrKey, MemRegion>, span: Span) -> Option<u64> {
    let mr = mrs.get(&span.key).filter(|mr| fault::usable(mr, span))?;
    Some(mr.base() + span.off)
}

/// Pushes the READ-response segments answering the request at `req_psn`
/// for `read = (host address, length, response packets)`, each segment's
/// payload a snapshot of host memory. A segment past the end of
/// the data is empty (a zero-length READ still answers with one).
fn push_read_responses(
    ctx: &QpCtx,
    env: &mut QpEnv<'_>,
    fx: &mut Effects,
    req_psn: Psn,
    read: (u64, u32, u32),
    retransmit: bool,
) {
    let (src, len, resp_packets) = read;
    let (mtu, len) = (ctx.cfg.mtu as usize, len as usize);
    for i in 0..resp_packets {
        let offset = i as usize * mtu;
        let lo = offset.min(len);
        let hi = (offset + mtu).min(len);
        let kind = PacketKind::ReadResponse {
            seg: SegPos::of(i, resp_packets),
            data: env.mem.gather(src + lo as u64, hi - lo),
            req_psn,
            offset: offset as u32,
        };
        let mut segment = ctx.packet(req_psn.add(i), kind);
        segment.retransmit = retransmit;
        fx.packets.push(segment);
    }
    // A responder with a smaller MTU than the requester's sends fewer
    // bytes than asked. The unsent tail is still materialised, so which
    // host pages a READ touches does not depend on its segmentation.
    let sent = (resp_packets as usize).saturating_mul(mtu).min(len);
    env.mem.materialize(src + sent as u64, len - sent);
}
