//! The requester's receive path: ACK processing, READ/ATOMIC response
//! consumption behind the client-side ODP gate, and NAK handling.
//!
//! Split from the transmit-side machinery in the parent module purely by
//! direction of flow; both halves operate on the same [`Requester`]
//! state and emit into the same [`Effects`] pipeline.

use crate::mem::MrMode;
use crate::packet::{NakKind, Packet, PacketKind};
use crate::types::{MrKey, Psn};
use crate::wr::{Completion, WcStatus, WrOp};

use super::super::effects::Effects;
use super::super::fault::{self, FaultTracker, OdpStall, RnrWait};
use super::super::state::Lifecycle;
use super::super::{QpCtx, QpEnv};
use super::{sq_index, Requester};

impl Requester {
    /// Marks acknowledged messages. Under a cumulative backend
    /// (go-back-N semantics) every fully-covered message up to `psn` is
    /// acknowledged: those form a prefix of the PSN-ordered queue, so the
    /// walk resumes at `ack_cursor` and stops at the first message `psn`
    /// does not cover. Under selective repeat only the message whose
    /// final PSN is exactly `psn` — earlier losses are repaired by their
    /// own retransmissions, not implied by later acknowledgments.
    fn advance_acked(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        psn: Psn,
        fx: &mut Effects,
        env: &QpEnv<'_>,
    ) {
        let mut progressed = false;
        if ctx.cfg.recovery.cumulative_ack() {
            while let Some(wqe) = self.sq.get_mut(self.ack_cursor) {
                if !wqe.psn_last.at_or_before(psn) {
                    break;
                }
                wqe.acked = true;
                self.backend
                    .note_message_delivered(wqe.psn_first, wqe.psn_last);
                self.ack_cursor += 1;
                progressed = true;
            }
        } else if let Some(wqe) = sq_index(&self.sq, psn).map(|i| &mut self.sq[i]) {
            if wqe.psn_last == psn && !wqe.acked {
                wqe.acked = true;
                self.backend
                    .note_message_delivered(wqe.psn_first, wqe.psn_last);
                progressed = true;
            }
        }
        if progressed {
            self.retire(ctx, fx, env);
            self.note_progress(ctx, life, fx);
        }
    }

    /// Retires contiguously finished WQEs from the SQ head (CQEs are
    /// delivered in posting order, like hardware).
    fn retire(&mut self, ctx: &QpCtx, fx: &mut Effects, env: &QpEnv<'_>) {
        while let Some(front) = self.sq.front() {
            if !front.is_done() {
                break;
            }
            let wqe = self
                .sq
                .pop_front()
                .expect("invariant: front checked non-empty above");
            // A done message is fully sent and, under a cumulative
            // backend, acknowledged; saturate for the selective backend,
            // whose `ack_cursor` stays 0.
            self.tx_cursor = self.tx_cursor.saturating_sub(1);
            self.ack_cursor = self.ack_cursor.saturating_sub(1);
            if self.recovery.stalls.iter().any(|s| s.psn == wqe.psn_first) {
                // The stalled message completed: take its pending blind
                // retransmit tick out of the event heap instead of leaving
                // it to fire as a no-op up to 0.5 ms later.
                fx.timers.cancel_stalls.push(wqe.psn_first);
                self.recovery.stalls.retain(|s| s.psn != wqe.psn_first);
            }
            fx.completions.push(Completion {
                wr_id: wqe.id,
                qpn: ctx.qpn,
                status: WcStatus::Success,
                opcode: wqe.wc_opcode(),
                bytes: wqe.op.len(),
                at: env.now,
            });
        }
        // Everything before the new head is retired: the backend may
        // prune its loss-tracking state (the SACK bitmap stays bounded
        // by the outstanding window).
        let up_to = self
            .sq
            .front()
            .map(|w| w.psn_first)
            .unwrap_or(self.next_psn);
        self.backend.note_retired(up_to);
    }

    /// Handles a bare transport ACK.
    pub(in crate::qp) fn on_ack(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        psn: Psn,
    ) {
        self.backend.note_delivered(psn);
        self.advance_acked(ctx, life, psn, fx, env);
        self.rearm_timer_if_needed(ctx, life, fx);
        self.pump_after_progress(ctx, life, env, fx);
    }

    /// Registers a client-side ODP stall for `msg_psn`, or counts the
    /// interrupt work of a discarded duplicate if already stalled — the
    /// per-response cost that feeds the packet flood. Whether the stall
    /// gets a blind 0.5 ms retransmit tick is the backend's call:
    /// go-back-N arms it (§IV-A); selective repeat leaves the stall
    /// quiescent until the fault-resolution event resumes it.
    fn stall_or_irq(
        &mut self,
        ctx: &QpCtx,
        env: &QpEnv<'_>,
        fx: &mut Effects,
        msg_psn: Psn,
        blocked_on: Option<(MrKey, usize)>,
    ) {
        if let Some(stall) = self.recovery.stalls.iter_mut().find(|s| s.psn == msg_psn) {
            fx.irqs += 1;
            // A re-discard after a resume means a *different* page now
            // blocks the message; track the fresh one so the next
            // event-driven resume waits for the right resolution.
            stall.blocked_on = blocked_on;
        } else {
            let gen = self.next_gen();
            let delay = env.profile.odp_client_retx;
            self.recovery.stalls.push(OdpStall {
                psn: msg_psn,
                ghost_until: env.now + delay,
                gen,
                blocked_on,
            });
            if ctx.cfg.recovery.blind_stall_tick() {
                fx.timers.arm_stalls.push((msg_psn, delay, gen));
            }
        }
    }

    /// Consumes one READ response segment, or discards it behind the
    /// client-side ODP gate.
    pub(in crate::qp) fn on_read_response(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        tracker: &FaultTracker,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
    ) {
        let PacketKind::ReadResponse {
            seg, data, offset, ..
        } = &pkt.kind
        else {
            unreachable!("dispatch guarantees a read response");
        };
        // ConnectX-4 discards responses arriving during an RNR wait
        // ("while discarding responses sent back during the waiting
        // time", §IV-A) — a quirk of the go-back-N recovery engine.
        if env.profile.damming
            && ctx.cfg.recovery.ghost_quirks()
            && self.recovery.rnr_wait.is_some()
        {
            self.stats.responses_discarded += 1;
            return;
        }
        let Some(wqe_idx) = sq_index(&self.sq, pkt.psn)
            .filter(|&i| matches!(self.sq[i].op, WrOp::Read { .. }) && !self.sq[i].is_done())
        else {
            // Stale duplicate of an already-completed message.
            self.stats.responses_discarded += 1;
            return;
        };
        let (expected_psn, local_mr, local_off, seg_done_bytes) = {
            let w = &self.sq[wqe_idx];
            let WrOp::Read {
                local_mr,
                local_off,
                ..
            } = w.op
            else {
                unreachable!()
            };
            (
                w.psn_first.add(w.recv_segments),
                local_mr,
                local_off,
                w.recv_segments * ctx.cfg.mtu,
            )
        };
        if pkt.psn != expected_psn {
            // Duplicate of an already-consumed segment, or a gap left by a
            // drop; recovery retransmission will resolve either.
            self.stats.responses_discarded += 1;
            return;
        }
        debug_assert_eq!(*offset, seg_done_bytes, "segment offset mismatch");

        // Client-side ODP gate: destination pages must be NIC-mapped AND
        // propagated to this QP.
        let dest_off = local_off + *offset as u64;
        let dest_len = (data.len() as u32).max(1);
        let mr = env
            .mrs
            .get_mut(&local_mr)
            .expect("invariant: READ admitted with a valid lkey");
        let mut usable = true;
        let mut blocking = None;
        if mr.mode() == MrMode::Odp {
            if ctx.cfg.recovery.pins_on_first_touch() {
                // NP-RDMA model: pin the landing pages on first touch —
                // the response is always usable, so neither the stall
                // nor the per-QP staleness machinery ever engages.
                let pinned = fault::pin_pages(mr, dest_off, dest_len);
                if pinned > 0 {
                    self.stats.pages_pinned += pinned as u64;
                    fx.pins += pinned;
                }
            } else {
                let gate = fault::gate_dest_pages(tracker, mr, local_mr, dest_off, dest_len, fx);
                usable = gate.usable;
                blocking = gate.blocking;
                if gate.newly_faulted {
                    self.stats.faults_raised += 1;
                }
            }
        }
        if !usable {
            self.stats.responses_discarded += 1;
            let msg_psn = self.sq[wqe_idx].psn_first;
            self.stall_or_irq(ctx, env, fx, msg_psn, blocking);
            return;
        }

        // Accept the segment.
        let base = mr.base();
        env.mem.write(base + dest_off, data);
        let w = &mut self.sq[wqe_idx];
        w.recv_segments += 1;
        if seg.is_final() {
            debug_assert_eq!(w.recv_segments, w.resp_packets, "final segment count");
        }
        if w.is_done() {
            self.outstanding_rd -= 1;
        }
        let done_psn = pkt.psn;
        self.backend.note_delivered(done_psn);
        // A response implicitly acknowledges all earlier requests (only
        // under cumulative backends; see advance_acked).
        self.advance_acked(ctx, life, done_psn, fx, env);
        self.retire(ctx, fx, env);
        self.note_progress(ctx, life, fx);
        self.pump_after_progress(ctx, life, env, fx);
    }

    /// Consumes the original value returned by an atomic. Same client-side
    /// ODP gate as READ responses: the 8-byte landing pad must be usable.
    pub(in crate::qp) fn on_atomic_response(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        tracker: &FaultTracker,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
    ) {
        let PacketKind::AtomicResponse { original, .. } = &pkt.kind else {
            unreachable!("dispatch guarantees an atomic response");
        };
        if env.profile.damming
            && ctx.cfg.recovery.ghost_quirks()
            && self.recovery.rnr_wait.is_some()
        {
            self.stats.responses_discarded += 1;
            return;
        }
        let Some(wqe_idx) = sq_index(&self.sq, pkt.psn)
            .filter(|&i| matches!(self.sq[i].op, WrOp::Atomic { .. }) && !self.sq[i].is_done())
        else {
            self.stats.responses_discarded += 1;
            return;
        };
        let (local_mr, local_off) = {
            let WrOp::Atomic {
                local_mr,
                local_off,
                ..
            } = self.sq[wqe_idx].op
            else {
                unreachable!()
            };
            (local_mr, local_off)
        };
        let mr = env
            .mrs
            .get_mut(&local_mr)
            .expect("invariant: atomic admitted with a valid lkey");
        let mut usable = true;
        let mut blocking = None;
        if mr.mode() == MrMode::Odp {
            if ctx.cfg.recovery.pins_on_first_touch() {
                let pinned = fault::pin_pages(mr, local_off, 8);
                if pinned > 0 {
                    self.stats.pages_pinned += pinned as u64;
                    fx.pins += pinned;
                }
            } else {
                let gate = fault::gate_dest_pages(tracker, mr, local_mr, local_off, 8, fx);
                usable = gate.usable;
                blocking = gate.blocking;
                if gate.newly_faulted {
                    self.stats.faults_raised += 1;
                }
            }
        }
        if !usable {
            self.stats.responses_discarded += 1;
            let msg_psn = self.sq[wqe_idx].psn_first;
            self.stall_or_irq(ctx, env, fx, msg_psn, blocking);
            return;
        }
        let base = mr.base();
        env.mem.write(base + local_off, &original.to_le_bytes());
        self.sq[wqe_idx].recv_segments = 1;
        self.outstanding_rd -= 1;
        let done_psn = pkt.psn;
        self.backend.note_delivered(done_psn);
        self.advance_acked(ctx, life, done_psn, fx, env);
        self.retire(ctx, fx, env);
        self.note_progress(ctx, life, fx);
        self.pump_after_progress(ctx, life, env, fx);
    }

    /// Handles a NAK addressed to this requester.
    pub(in crate::qp) fn on_nak(
        &mut self,
        ctx: &QpCtx,
        life: &mut Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        psn: Psn,
        kind: NakKind,
    ) {
        match kind {
            NakKind::Rnr { delay } => {
                self.stats.rnr_naks_received += 1;
                // Ignore stale RNR NAKs for finished messages.
                let Some(nak_idx) = sq_index(&self.sq, psn).filter(|&i| !self.sq[i].is_done())
                else {
                    return;
                };
                if ctx.cfg.rnr_retry != 7 {
                    if self.rnr_budget == 0 {
                        self.error_out(ctx, life, env, fx, WcStatus::RnrRetryExcErr);
                        return;
                    }
                    self.rnr_budget -= 1;
                }
                let gen = self.next_gen();
                self.recovery.rnr_wait = Some(RnrWait { psn, gen });
                fx.timers.arm_rnr = Some((env.profile.rnr_actual(delay), gen));
                if self.ack_gen != 0 {
                    self.ack_gen = 0;
                    fx.timers.cancel_ack = true;
                }
                // Doorbell latency: requests that left the pipeline just
                // before this NAK were still queued behind it in hardware;
                // the flawed recovery forgets them too (they are dropped
                // at the responder's fault pendency either way). Another
                // go-back-N engine quirk.
                if env.profile.damming && ctx.cfg.recovery.ghost_quirks() {
                    let lookback = env.profile.ghost_lookback;
                    // The transmitted successors of the refused message.
                    let successors = self
                        .sq
                        .range_mut(nak_idx + 1..)
                        .take_while(|w| w.sent_segments > 0);
                    for wqe in successors.filter(|w| !w.is_done()) {
                        if let Some(tx) = wqe.first_tx {
                            if env.now.saturating_sub(tx) <= lookback {
                                wqe.ghosted = true;
                            }
                        }
                    }
                }
            }
            NakKind::SequenceError { epsn } => {
                // The rescue path of Fig. 8: the backend decides what the
                // hole at `epsn` costs — go-back-N retransmits everything
                // from the responder's expected PSN; selective repeat
                // only what it has no evidence was delivered.
                if self.recovery.rnr_wait.take().is_some() {
                    fx.timers.cancel_rnr = true;
                }
                self.recover_from(ctx, env, fx, epsn, false);
                self.rearm_timer_if_needed(ctx, life, fx);
            }
            NakKind::RemoteAccess => {
                self.error_out(ctx, life, env, fx, WcStatus::RemoteAccessErr);
            }
        }
    }
}
