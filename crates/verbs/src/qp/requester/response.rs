//! The requester's receive path: ACK processing, READ/ATOMIC response
//! consumption behind the client-side ODP gate, and NAK handling.
//!
//! Split from the transmit-side machinery in the parent module purely by
//! direction of flow; both halves operate on the same [`Requester`]
//! state and emit into the same [`Effects`] pipeline.

use crate::packet::{NakKind, Packet, PacketKind};
use crate::types::{MrKey, Psn};
use crate::wr::{Completion, WcStatus, WrOp};

use super::super::effects::Effects;
use super::super::fault::{self, FaultTracker, OdpStall, Span};
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
            let c = Completion {
                wr_id: wqe.id,
                qpn: ctx.qpn,
                status: WcStatus::Success,
                opcode: wqe.op.wc_opcode(),
                bytes: wqe.op.len(),
                at: env.now,
            };
            fx.completions.push((c, Some(wqe.posted_at)));
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
            let delay = env.profile.odp_client_retx;
            self.recovery.stalls.push(OdpStall {
                psn: msg_psn,
                ghost_until: env.now + delay,
                blocked_on,
            });
            if ctx.cfg.recovery.blind_stall_tick() {
                fx.timers.arm_stalls.push((msg_psn, delay));
            }
        }
    }

    /// Consumes one READ response segment or the original value an
    /// atomic returns — or discards it: ConnectX-4 discards responses
    /// arriving during an RNR wait ("while discarding responses sent back
    /// during the waiting time", §IV-A; a quirk of the go-back-N recovery
    /// engine), a response no unfinished message expects next is a stale
    /// duplicate or sits behind a gap recovery will close, and the
    /// client-side page gate refuses a landing range this QP cannot use.
    pub(in crate::qp) fn on_response(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        tracker: &FaultTracker,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        pkt: &Packet,
    ) {
        let rnr_quirk = env.profile.damming
            && ctx.cfg.recovery.ghost_quirks()
            && self.recovery.rnr_wait.is_some();
        let (payload, word, seg_off) = match &pkt.kind {
            PacketKind::ReadResponse { data, offset, .. } => {
                (Some(data), [0; 8], u64::from(*offset))
            }
            PacketKind::AtomicResponse { original, .. } => (None, original.to_le_bytes(), 0),
            PacketKind::ReadRequest { .. }
            | PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. }
            | PacketKind::Ack
            | PacketKind::Nak(_) => unreachable!("dispatch guarantees a response"),
        };
        let is_read = payload.is_some();
        // Only an unfinished message of the response's own kind expects
        // it, and a READ only its next segment in order.
        let landing = sq_index(&self.sq, pkt.psn).and_then(|idx| {
            let w = &self.sq[idx];
            let expected = match w.op {
                WrOp::Read { .. } => is_read && pkt.psn == w.psn_first.add(w.recv_segments),
                WrOp::Atomic { .. } => !is_read,
                WrOp::Write { .. } | WrOp::Send { .. } => false,
            };
            let (key, off) = w.op.local();
            (expected && !rnr_quirk && !w.is_done()).then_some((idx, key, off + seg_off))
        });
        let Some((idx, key, off)) = landing else {
            self.stats.responses_discarded += 1;
            return;
        };

        // Client-side ODP: the landing pages must be NIC-mapped AND
        // propagated to this QP. A response that finds one unusable is
        // discarded: every pending page registers this QP's wait, and
        // the first unusable one is what the stall waits on.
        let len = payload.map_or(8, |data| data.len() as u32);
        let mr = env
            .mrs
            .get_mut(&key)
            .expect("invariant: READ/ATOMIC admitted with a valid lkey");
        let span = Span { key, off, len };
        let gated = fault::admit(ctx.cfg.recovery, mr, span, &mut self.stats.gate, fx);
        if let Some(blocking) = gated.blocking(mr, tracker) {
            fx.fault_waits.extend(gated.pending(mr));
            self.stats.responses_discarded += 1;
            let msg_psn = self.sq[idx].psn_first;
            self.stall_or_irq(ctx, env, fx, msg_psn, Some(blocking));
            return;
        }

        // Accept the segment.
        let at = mr.base() + off;
        match payload {
            Some(data) => env.mem.write_payload(at, data),
            None => env.mem.write(at, &word),
        }
        let w = &mut self.sq[idx];
        w.recv_segments += 1;
        if w.is_done() {
            self.outstanding_rd -= 1;
        }
        self.backend.note_delivered(pkt.psn);
        // A response implicitly acknowledges all earlier requests (only
        // under cumulative backends; see advance_acked).
        self.advance_acked(ctx, life, pkt.psn, fx, env);
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
                self.recovery.rnr_wait = Some(psn);
                fx.timers.arm_rnr = Some(env.profile.rnr_actual(delay));
                self.disarm_ack(fx);
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
                        if env.now.saturating_sub(wqe.first_tx) <= lookback {
                            wqe.ghosted = true;
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
