//! The responder engine: ePSN tracking, duplicate and out-of-sequence
//! handling, RNR NAK generation, and ODP fault pendency.
//!
//! Everything here runs on the *target* side of a connection. The engine
//! owns no requester state; fault pendency (§III-B) — silently dropping
//! every packet on the QP until the faulted request is served again — is
//! the responder-side half of packet damming.

use std::collections::{BTreeMap, VecDeque};

use crate::mem::{MemRegion, MrMode};
use crate::packet::{NakKind, Packet, PacketKind, SegPos};
use crate::types::{MrKey, Psn};
use crate::wr::{Completion, RecvWr, WcOpcode, WcStatus};

use super::effects::Effects;
use super::fault;
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
    /// Network page faults raised on this side.
    pub(super) faults_raised: u64,
    /// Pages pinned on first touch (`OnDemandPin` backend only).
    pub(super) pages_pinned: u64,
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
                // packets' target pages — by the time the requester works
                // its way back here, later pages are already resolving.
                self.queue_faults_for(env, fx, pkt);
            }
            return;
        }
        if pkt.psn == self.epsn {
            self.nak_seq_sent = false;
            if self.ooo_done.contains_key(&pkt.psn.value()) {
                // The hole just filled with a duplicate of a span we
                // already executed out of order: consume the recording
                // instead of re-executing (re-applying an older WRITE
                // payload over a newer out-of-order one would reorder
                // memory).
                self.drain_ooo();
            } else {
                self.execute_request(ctx, env, fx, pkt);
                self.drain_ooo();
            }
        } else if pkt.psn.precedes(self.epsn) {
            self.handle_duplicate(ctx, env, fx, pkt);
        } else {
            // Future PSN: something was lost in between.
            if !self.nak_seq_sent {
                self.nak_seq_sent = true;
                self.stats.seq_naks_sent += 1;
                let (peer_lid, peer_qpn) = ctx.peer_or_panic();
                fx.packets.push(Packet {
                    src: ctx.lid,
                    dst: peer_lid,
                    dst_qp: peer_qpn,
                    src_qp: ctx.qpn,
                    psn: pkt.psn,
                    kind: PacketKind::Nak(NakKind::SequenceError { epsn: self.epsn }),
                    ghost: false,
                    ecn: false,
                    retransmit: false,
                });
            }
            if ctx.cfg.recovery.accepts_out_of_order() {
                self.execute_ooo(ctx, env, fx, pkt);
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
    /// READ or WRITE that validates cleanly executes on arrival and its
    /// span is recorded so the ePSN can jump over it once the hole fills.
    /// Anything that fails validation (bad rkey/range, unmapped ODP pages)
    /// drops silently — the in-order retransmission produces the proper
    /// NAK or fault pendency. SENDs stay in order (receive buffers are
    /// consumed in posting order) and atomics stay in order (reordering
    /// same-address atomics across WQEs would change final memory; the
    /// replay cache only guards re-execution, not cross-WQE order).
    /// Out-of-order execution never emits ACKs: acking a final segment
    /// while an earlier segment is still missing would retire the whole
    /// message under the requester's message-level acking and lose the
    /// hole. Liveness comes from the seq-NAK-driven message
    /// retransmission, whose duplicate final segment is re-ACKed.
    fn execute_ooo(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        if self.ooo_done.contains_key(&pkt.psn.value()) {
            return; // duplicate of a span already executed out of order
        }
        match &pkt.kind {
            PacketKind::ReadRequest {
                rkey,
                addr,
                len,
                resp_packets,
            } => {
                let Some(mr) = env.mrs.get(rkey) else { return };
                if !mr.contains(*addr, *len)
                    || (mr.mode() == MrMode::Odp
                        && mr.first_unmapped(*addr, (*len).max(1)).is_some())
                {
                    return;
                }
                let src = mr.base() + addr;
                push_read_responses(ctx, env, fx, pkt.psn, (src, *len, *resp_packets), false);
                self.ooo_done.insert(pkt.psn.value(), *resp_packets);
                self.stats.ooo_executed += 1;
            }
            PacketKind::WriteRequest {
                rkey, addr, data, ..
            } => {
                let Some(mr) = env.mrs.get(rkey) else { return };
                if !mr.contains(*addr, data.len() as u32)
                    || (mr.mode() == MrMode::Odp
                        && mr
                            .first_unmapped(*addr, (data.len() as u32).max(1))
                            .is_some())
                {
                    return;
                }
                let base = mr.base();
                env.mem.write(base + addr, data);
                self.ooo_done.insert(pkt.psn.value(), 1);
                self.stats.ooo_executed += 1;
            }
            PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. }
            | PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => {}
        }
    }

    /// On-demand pinning: synchronously map the span's pages (NP-RDMA
    /// style) and continue serving — the fault window never opens.
    fn pin_span(
        &mut self,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        mr_key: MrKey,
        off: u64,
        len: u32,
    ) {
        let mr = env
            .mrs
            .get_mut(&mr_key)
            .expect("invariant: span validated by caller");
        let pinned = fault::pin_pages(mr, off, len);
        if pinned > 0 {
            self.stats.pages_pinned += pinned as u64;
            fx.pins += pinned;
        }
    }

    fn send_rnr_nak(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        self.stats.rnr_naks_sent += 1;
        let (peer_lid, peer_qpn) = ctx.peer_or_panic();
        fx.packets.push(Packet {
            src: ctx.lid,
            dst: peer_lid,
            dst_qp: peer_qpn,
            src_qp: ctx.qpn,
            psn,
            kind: PacketKind::Nak(NakKind::Rnr {
                delay: ctx.cfg.min_rnr_delay,
            }),
            ghost: false,
            ecn: false,
            retransmit: false,
        });
    }

    /// Starts page faults for the pages a dropped request targets, without
    /// processing the request itself.
    fn queue_faults_for(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        let (rkey, addr, len) = match &pkt.kind {
            PacketKind::ReadRequest {
                rkey, addr, len, ..
            } => (*rkey, *addr, (*len).max(1)),
            PacketKind::WriteRequest {
                rkey, addr, data, ..
            } => (*rkey, *addr, (data.len() as u32).max(1)),
            PacketKind::AtomicRequest { rkey, addr, .. } => (*rkey, *addr, 8),
            // SENDs fault through posted-receive buffers, not rkeys;
            // responses and (N)ACKs never carry a memory target.
            PacketKind::Send { .. }
            | PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => return,
        };
        let Some(mr) = env.mrs.get_mut(&rkey) else {
            return;
        };
        if mr.mode() != MrMode::Odp || !mr.contains(addr, len) {
            return;
        }
        if fault::raise_unmapped(mr, rkey, addr, len, fx) {
            self.stats.faults_raised += 1;
        }
    }

    fn send_ack(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        let (peer_lid, peer_qpn) = ctx.peer_or_panic();
        fx.packets.push(Packet {
            src: ctx.lid,
            dst: peer_lid,
            dst_qp: peer_qpn,
            src_qp: ctx.qpn,
            psn,
            kind: PacketKind::Ack,
            ghost: false,
            // Echo a pending forward-path congestion mark back to the
            // requester; consumed so each mark is echoed once.
            ecn: std::mem::take(&mut self.ecn_pending),
            retransmit: false,
        });
    }

    /// Begins ODP fault pendency for the `(mr_key, offset, len)` span
    /// (server-side ODP, §III-B): RNR-NAK the requester and drop
    /// everything until resolved.
    fn begin_fault_pendency(
        &mut self,
        ctx: &QpCtx,
        fx: &mut Effects,
        mrs: &mut BTreeMap<MrKey, MemRegion>,
        span: (MrKey, u64, u32),
        psn: Psn,
    ) {
        let (mr_key, offset, len) = span;
        let mr = mrs
            .get_mut(&mr_key)
            .expect("invariant: span validated by caller");
        let (pages, newly_faulted) = fault::collect_pendency_pages(mr, mr_key, offset, len, fx);
        if newly_faulted {
            self.stats.faults_raised += 1;
        }
        self.resp_pend = Some(RespPend::Fault { psn, pages });
        self.send_rnr_nak(ctx, fx, psn);
    }

    /// Executes the in-sequence request `pkt`, dispatching by opcode.
    fn execute_request(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
    ) {
        match &pkt.kind {
            PacketKind::ReadRequest { .. } => self.execute_read(ctx, env, fx, pkt),
            PacketKind::WriteRequest { .. } => self.execute_write(ctx, env, fx, pkt),
            PacketKind::Send { .. } => self.execute_send(ctx, env, fx, pkt),
            PacketKind::AtomicRequest { .. } => self.execute_atomic(ctx, env, fx, pkt),
            PacketKind::ReadResponse { .. }
            | PacketKind::AtomicResponse { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => {
                unreachable!("responder only sees requests")
            }
        }
    }

    fn execute_read(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        let PacketKind::ReadRequest {
            rkey,
            addr,
            len,
            resp_packets,
        } = &pkt.kind
        else {
            unreachable!("dispatched on kind");
        };
        let Some(mr) = env.mrs.get(rkey) else {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        };
        if !mr.contains(*addr, *len) {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        }
        if mr.mode() == MrMode::Odp && mr.first_unmapped(*addr, (*len).max(1)).is_some() {
            if ctx.cfg.recovery.pins_on_first_touch() {
                self.pin_span(env, fx, *rkey, *addr, *len);
            } else {
                self.begin_fault_pendency(ctx, fx, env.mrs, (*rkey, *addr, *len), pkt.psn);
                return;
            }
        }
        let base = env
            .mrs
            .get(rkey)
            .expect("invariant: rkey checked above")
            .base();
        push_read_responses(
            ctx,
            env,
            fx,
            pkt.psn,
            (base + addr, *len, *resp_packets),
            false,
        );
        self.epsn = pkt.psn.add(*resp_packets);
    }

    fn execute_write(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        let PacketKind::WriteRequest {
            seg,
            rkey,
            addr,
            data,
        } = &pkt.kind
        else {
            unreachable!("dispatched on kind");
        };
        let Some(mr) = env.mrs.get(rkey) else {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        };
        if !mr.contains(*addr, data.len() as u32) {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        }
        if mr.mode() == MrMode::Odp
            && mr
                .first_unmapped(*addr, (data.len() as u32).max(1))
                .is_some()
        {
            if ctx.cfg.recovery.pins_on_first_touch() {
                self.pin_span(env, fx, *rkey, *addr, data.len() as u32);
            } else {
                self.begin_fault_pendency(
                    ctx,
                    fx,
                    env.mrs,
                    (*rkey, *addr, data.len() as u32),
                    pkt.psn,
                );
                return;
            }
        }
        let base = env
            .mrs
            .get(rkey)
            .expect("invariant: rkey checked above")
            .base();
        env.mem.write(base + addr, data);
        self.epsn = self.epsn.next();
        if seg.is_final() {
            self.send_ack(ctx, fx, pkt.psn);
        }
    }

    fn execute_send(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        let PacketKind::Send { seg, data } = &pkt.kind else {
            unreachable!("dispatched on kind");
        };
        let Some(recv) = self.rq.front().cloned() else {
            self.resp_pend = Some(RespPend::NoRecv { psn: pkt.psn });
            self.send_rnr_nak(ctx, fx, pkt.psn);
            return;
        };
        if self.rq_written + data.len() as u32 > recv.max_len {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        }
        let mr = env
            .mrs
            .get(&recv.mr)
            .expect("invariant: recv posted with a valid lkey");
        let dst_off = recv.offset + self.rq_written as u64;
        if mr.mode() == MrMode::Odp
            && mr
                .first_unmapped(dst_off, (data.len() as u32).max(1))
                .is_some()
        {
            if ctx.cfg.recovery.pins_on_first_touch() {
                self.pin_span(env, fx, recv.mr, dst_off, data.len() as u32);
            } else {
                self.begin_fault_pendency(
                    ctx,
                    fx,
                    env.mrs,
                    (recv.mr, dst_off, data.len() as u32),
                    pkt.psn,
                );
                return;
            }
        }
        let base = env
            .mrs
            .get(&recv.mr)
            .expect("invariant: recv lkey checked above")
            .base();
        env.mem.write(base + dst_off, data);
        self.rq_written += data.len() as u32;
        self.epsn = self.epsn.next();
        if seg.is_final() {
            self.send_ack(ctx, fx, pkt.psn);
            let recv = self
                .rq
                .pop_front()
                .expect("invariant: rq front cloned above");
            fx.completions.push(Completion {
                wr_id: recv.id,
                qpn: ctx.qpn,
                status: WcStatus::Success,
                opcode: WcOpcode::Recv,
                bytes: self.rq_written,
                at: env.now,
            });
            self.rq_written = 0;
        }
    }

    fn execute_atomic(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        let PacketKind::AtomicRequest { op, rkey, addr } = &pkt.kind else {
            unreachable!("dispatched on kind");
        };
        let Some(mr) = env.mrs.get(rkey) else {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        };
        if !mr.contains(*addr, 8) || addr % 8 != 0 {
            self.nak_remote_access(ctx, fx, pkt.psn);
            return;
        }
        if mr.mode() == MrMode::Odp && mr.first_unmapped(*addr, 8).is_some() {
            if ctx.cfg.recovery.pins_on_first_touch() {
                self.pin_span(env, fx, *rkey, *addr, 8);
            } else {
                self.begin_fault_pendency(ctx, fx, env.mrs, (*rkey, *addr, 8), pkt.psn);
                return;
            }
        }
        let base = env
            .mrs
            .get(rkey)
            .expect("invariant: rkey checked above")
            .base();
        let bytes = env.mem.read(base + addr, 8);
        let original = u64::from_le_bytes(
            bytes
                .try_into()
                .expect("invariant: an 8-byte read yields 8 bytes"),
        );
        let new = match op {
            crate::packet::AtomicOp::FetchAdd { add } => original.wrapping_add(*add),
            crate::packet::AtomicOp::CompareSwap { compare, swap } => {
                if original == *compare {
                    *swap
                } else {
                    original
                }
            }
        };
        env.mem.write(base + addr, &new.to_le_bytes());
        self.atomic_replay.push_back((pkt.psn, original));
        if self.atomic_replay.len() > 16 {
            self.atomic_replay.pop_front();
        }
        self.epsn = self.epsn.next();
        let (peer_lid, peer_qpn) = ctx.peer_or_panic();
        fx.packets.push(Packet {
            src: ctx.lid,
            dst: peer_lid,
            dst_qp: peer_qpn,
            src_qp: ctx.qpn,
            psn: pkt.psn,
            kind: PacketKind::AtomicResponse {
                original,
                req_psn: pkt.psn,
            },
            ghost: false,
            ecn: false,
            retransmit: false,
        });
    }

    fn nak_remote_access(&mut self, ctx: &QpCtx, fx: &mut Effects, psn: Psn) {
        let (peer_lid, peer_qpn) = ctx.peer_or_panic();
        fx.packets.push(Packet {
            src: ctx.lid,
            dst: peer_lid,
            dst_qp: peer_qpn,
            src_qp: ctx.qpn,
            psn,
            kind: PacketKind::Nak(NakKind::RemoteAccess),
            ghost: false,
            ecn: false,
            retransmit: false,
        });
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
    ) {
        match &pkt.kind {
            PacketKind::ReadRequest { .. } => self.duplicate_read(ctx, env, fx, pkt),
            PacketKind::AtomicRequest { .. } => self.duplicate_atomic(ctx, fx, pkt),
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

    fn duplicate_read(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        let PacketKind::ReadRequest {
            rkey,
            addr,
            len,
            resp_packets,
        } = &pkt.kind
        else {
            unreachable!("dispatched on kind");
        };
        let Some(mr) = env.mrs.get(rkey) else { return };
        if !mr.contains(*addr, *len)
            || (mr.mode() == MrMode::Odp && mr.first_unmapped(*addr, (*len).max(1)).is_some())
        {
            // Rare: page got invalidated again. Drop; the requester's
            // timeout will re-drive it in order.
            return;
        }
        let src = mr.base() + addr;
        push_read_responses(ctx, env, fx, pkt.psn, (src, *len, *resp_packets), true);
    }

    fn duplicate_atomic(&mut self, ctx: &QpCtx, fx: &mut Effects, pkt: &Packet) {
        // Never re-execute: replay the stored result if still in the
        // replay window; otherwise drop (the requester's timeout will
        // surface the loss).
        let replay = self
            .atomic_replay
            .iter()
            .find(|(p, _)| *p == pkt.psn)
            .map(|&(_, original)| original);
        if let Some(original) = replay {
            let (peer_lid, peer_qpn) = ctx.peer_or_panic();
            fx.packets.push(Packet {
                src: ctx.lid,
                dst: peer_lid,
                dst_qp: peer_qpn,
                src_qp: ctx.qpn,
                psn: pkt.psn,
                kind: PacketKind::AtomicResponse {
                    original,
                    req_psn: pkt.psn,
                },
                ghost: false,
                ecn: false,
                retransmit: true,
            });
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

/// Pushes the READ-response segments answering the request at `req_psn`
/// for `read = (host address, length, response packets)`, each segment's
/// payload read straight from host memory. A segment past the end of
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
    let (peer_lid, peer_qpn) = ctx.peer_or_panic();
    let (mtu, len) = (ctx.cfg.mtu as usize, len as usize);
    for i in 0..resp_packets {
        let offset = i as usize * mtu;
        let lo = offset.min(len);
        let hi = (offset + mtu).min(len);
        fx.packets.push(Packet {
            src: ctx.lid,
            dst: peer_lid,
            dst_qp: peer_qpn,
            src_qp: ctx.qpn,
            psn: req_psn.add(i),
            kind: PacketKind::ReadResponse {
                seg: SegPos::of(i, resp_packets),
                data: env.mem.read(src + lo as u64, hi - lo),
                req_psn,
                offset: offset as u32,
            },
            ghost: false,
            ecn: false,
            retransmit,
        });
    }
    // A responder with a smaller MTU than the requester's sends fewer
    // bytes than asked. The unsent tail is still read, so which host
    // pages a READ materialises does not depend on its segmentation.
    let sent = (resp_packets as usize).saturating_mul(mtu).min(len);
    env.mem.read(src + sent as u64, len - sent);
}
