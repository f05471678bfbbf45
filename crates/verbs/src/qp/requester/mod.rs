//! The requester engine: send queue, PSN assignment, ACK timeout, RNR
//! wait, ODP response stalls, and loss recovery.
//!
//! Everything here runs on the *initiating* side of a connection. The
//! engine owns no responder state; the only cross-role input is a
//! read-only view of the [`FaultTracker`](super::fault::FaultTracker)
//! page map, consulted by the client-side ODP gate. This file holds the
//! transmit-side machinery; [`response`] holds the ACK/response/NAK
//! receive path.
//!
//! What loss recovery resends is not decided here. An ACK timeout, an
//! RNR-wait expiry and a sequence-error NAK are the same pass,
//! [`Requester::recover_from`]: one walk of the send queue that resends
//! each message the QP's [`Backend`] selects, in queue order by
//! construction. How an ODP stall resumes — a blind tick, or the
//! fault-resolution event — is one bit of the configured
//! [`RecoveryKind`].
//!
//! ## The send queue is PSN-ordered
//!
//! [`Requester::post`] is the only producer and hands each message the
//! PSN span right after its predecessor's, so spans are contiguous and
//! ascending from the head, and each is at least one PSN wide: the owner
//! of a PSN at distance `d` from the head sits at index `d` or lower.
//! Every "which message owns this PSN" question (responses, stall ticks,
//! RNR NAKs) is therefore one probe at that index, then a bisection below
//! it only if the probe overshoots ([`sq_index`]) — a queue of one-PSN
//! READs, the §VI flood's, never bisects. The three facts a handler turn
//! needs about the rest of the queue are kept as it changes instead of
//! recounted: how far transmission got (`tx_cursor`), how far cumulative
//! acknowledgment got (`ack_cursor`) and how many READ/ATOMICs are in
//! flight (`outstanding_rd`). A turn costs the same behind a stalled head
//! with one completed successor or a thousand.

mod response;

use std::collections::{BTreeSet, VecDeque};

use ibsim_event::SimTime;

use crate::types::{MrKey, Psn, WrId};
use crate::wr::{Completion, SendWqe, WcStatus, WorkRequest, WrOp};

use super::effects::Effects;
use super::fault::{self, GateStats, Recovery};
use super::recovery::{Backend, RecoveryKind};
use super::state::{Lifecycle, QpState};
use super::wire::{build_request_packet, source_segment};
use super::{QpCtx, QpEnv};

/// Requester-side protocol counters (merged into the public
/// [`QpStats`](super::QpStats) by the facade).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ReqStats {
    /// Request packets retransmitted.
    pub(super) retransmissions: u64,
    /// ACK timeouts fired.
    pub(super) timeouts: u64,
    /// RNR NAKs received.
    pub(super) rnr_naks_received: u64,
    /// READ/ATOMIC responses discarded by client-side ODP.
    pub(super) responses_discarded: u64,
    /// Faults raised and pages pinned by the page gate on this side.
    pub(super) gate: GateStats,
    /// ACKs received carrying an ECN echo (congested forward path).
    pub(super) ecn_echoes: u64,
}

/// Index of the message whose PSN span contains `psn`, found from the
/// distance `d` from the head's first PSN (the send queue is PSN-ordered
/// with contiguous spans; see the module docs). Every span is at least
/// one PSN, so message `i` starts at distance `i` or later and the owner
/// sits at index `d` or lower: probe `min(d, len − 1)` first — the answer
/// whenever every message before it is one PSN — and bisect below it
/// only when that probe starts past `d`. PSNs behind the head — already
/// retired — wrap to a distance beyond the tail and, like PSNs not yet
/// assigned, find nothing. Serial-number arithmetic throughout, so a
/// window straddling `0xFF_FFFF → 0` is no special case.
pub(super) fn sq_index(sq: &VecDeque<SendWqe>, psn: Psn) -> Option<usize> {
    let base = sq.front()?.psn_first;
    let d = psn.distance_from(base);
    let start = |i: usize| sq[i].psn_first.distance_from(base);
    let probe = (d as usize).min(sq.len() - 1);
    let idx = if start(probe) <= d {
        probe
    } else {
        // Keeps `start(lo) <= d < start(hi)`; the head starts at 0.
        let (mut lo, mut hi) = (0, probe);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if start(mid) <= d {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    (d <= sq[idx].psn_last.distance_from(base)).then_some(idx)
}

/// The requester half of an RC queue pair.
#[derive(Debug)]
pub(super) struct Requester {
    /// Unretired messages in posting order, which is PSN order.
    sq: VecDeque<SendWqe>,
    /// SQ index of the first message with segments still to transmit;
    /// `pump` transmits in order, so everything before it is fully sent.
    tx_cursor: usize,
    /// SQ index of the first unacknowledged message under a cumulative
    /// backend, where acknowledged messages form a prefix (stays 0 under
    /// selective repeat).
    ack_cursor: usize,
    /// Transmitted READ/ATOMICs still missing response data: the
    /// `max_rd_atomic` window.
    outstanding_rd: usize,
    next_psn: Psn,
    retry_budget: u8,
    rnr_budget: u8,
    /// True while this QP's ACK-timeout slot holds a live event.
    ack_armed: bool,
    recovery: Recovery,
    /// The loss-recovery backend's state and selection rule.
    backend: Backend,
    /// Local source pages whose faults block further transmission.
    tx_blocked: BTreeSet<(MrKey, usize)>,
    /// Protocol counters.
    pub(super) stats: ReqStats,
}

impl Requester {
    /// A fresh requester with full retry budgets running the `kind`
    /// loss-recovery backend.
    pub(super) fn new(retry_count: u8, rnr_retry: u8, kind: RecoveryKind) -> Self {
        Requester {
            sq: VecDeque::new(),
            tx_cursor: 0,
            ack_cursor: 0,
            outstanding_rd: 0,
            next_psn: Psn::new(0),
            retry_budget: retry_count,
            rnr_budget: rnr_retry,
            ack_armed: false,
            recovery: Recovery::default(),
            backend: Backend::new(kind),
            tx_blocked: BTreeSet::new(),
            stats: ReqStats::default(),
        }
    }

    /// Number of send WQEs not yet retired.
    pub(super) fn pending_sends(&self) -> usize {
        self.sq.len()
    }

    /// True if the work request `id` is still in the send queue.
    pub(super) fn is_wr_pending(&self, id: WrId) -> bool {
        self.sq.iter().any(|w| w.id == id)
    }

    /// Next PSN to be assigned (for debugging).
    pub(super) fn next_psn(&self) -> Psn {
        self.next_psn
    }

    /// Number of active ODP stalls (for debugging).
    pub(super) fn stall_count(&self) -> usize {
        self.recovery.stalls.len()
    }

    /// See [`Recovery::in_window`].
    pub(super) fn in_recovery_window(&self, now: SimTime) -> bool {
        self.recovery.in_window(now)
    }

    /// See [`Recovery::active`].
    pub(super) fn in_recovery(&self) -> bool {
        self.recovery.active()
    }

    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Posts a send work request and transmits as far as possible. A
    /// request whose local range — a READ/ATOMIC landing range, a
    /// WRITE/SEND source — names no region of this NIC or overruns it is
    /// refused here, so every queued WQE has a valid lkey and an in-bounds
    /// local span: it completes `IBV_WC_LOC_PROT_ERR` behind the flush of
    /// what was queued, and the QP is in error.
    ///
    /// # Panics
    ///
    /// Panics if the QP was never connected.
    pub(super) fn post(
        &mut self,
        ctx: &QpCtx,
        life: &mut Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        wr: WorkRequest,
    ) {
        let (lkey, off) = wr.op.local();
        let local_ok = env
            .mrs
            .get(&lkey)
            .is_some_and(|mr| mr.contains(off, wr.op.len()));
        let refused = if life.is_error() {
            Some(WcStatus::WrFlushErr)
        } else if local_ok {
            None
        } else {
            self.error_out(ctx, life, env, fx, WcStatus::WrFlushErr);
            Some(WcStatus::LocalProtErr)
        };
        if let Some(status) = refused {
            let c = Completion {
                wr_id: wr.id,
                qpn: ctx.qpn,
                status,
                opcode: wr.op.wc_opcode(),
                bytes: 0,
                at: env.now,
            };
            fx.completions.push((c, Some(env.now)));
            return;
        }
        let span = wr.op.psn_span(ctx.cfg.mtu);
        let req_packets = wr.op.request_packets(ctx.cfg.mtu);
        let resp_packets = match wr.op {
            WrOp::Read { len, .. } => crate::types::packets_for(len, ctx.cfg.mtu),
            WrOp::Atomic { .. } => 1,
            WrOp::Write { .. } | WrOp::Send { .. } => 0,
        };
        let wqe = SendWqe {
            id: wr.id,
            op: wr.op,
            posted_at: env.now,
            psn_first: self.next_psn,
            psn_last: self.next_psn.add(span - 1),
            req_packets,
            resp_packets,
            sent_segments: 0,
            recv_segments: 0,
            acked: false,
            ghosted: false,
            first_tx: SimTime::ZERO,
        };
        self.next_psn = self.next_psn.add(span);
        self.sq.push_back(wqe);
        self.pump(ctx, life, env, fx);
    }

    /// Transmits every not-yet-sent segment, in SQ order, stopping at a
    /// send-side ODP fault on a local source page.
    pub(super) fn pump(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
    ) {
        if life.is_error() || !self.tx_blocked.is_empty() {
            return;
        }
        let ghost_window = env.profile.damming
            && ctx.cfg.recovery.ghost_quirks()
            && self.recovery.in_window(env.now);
        let mtu = ctx.cfg.mtu;
        while let Some(wqe) = self.sq.get_mut(self.tx_cursor) {
            // max_rd_atomic: hardware bounds outstanding READ/ATOMIC
            // requests; later WQEs wait in the send queue.
            if matches!(wqe.op, WrOp::Read { .. } | WrOp::Atomic { .. }) && wqe.sent_segments == 0 {
                if self.outstanding_rd >= ctx.cfg.max_rd_atomic {
                    break;
                }
                self.outstanding_rd += 1;
            }
            while wqe.sent_segments < wqe.req_packets {
                // Send-side ODP: WRITE/SEND payloads are DMA-read from
                // local memory, so the source span passes the page gate
                // first and every page still pending blocks the queue.
                if let Some(span) = source_segment(wqe, wqe.sent_segments, mtu) {
                    let mr = env
                        .mrs
                        .get_mut(&span.key)
                        .expect("invariant: WQE admitted with a valid lkey");
                    let gated = fault::admit(ctx.cfg.recovery, mr, span, &mut self.stats.gate, fx);
                    self.tx_blocked.extend(gated.pending(mr));
                    if !self.tx_blocked.is_empty() {
                        return; // head-of-line blocked
                    }
                }
                let seg = wqe.sent_segments;
                if seg == 0 {
                    wqe.first_tx = env.now;
                    if ghost_window {
                        wqe.ghosted = true;
                    }
                }
                fx.packets
                    .push(build_request_packet(env, ctx, wqe, seg, false));
                wqe.sent_segments += 1;
            }
            self.tx_cursor += 1;
        }
        self.rearm_timer_if_needed(ctx, life, fx);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// True if some transmitted work still awaits acknowledgment or data.
    /// `retire` runs whenever a message finishes, so the head is never
    /// done; and transmission is in order, so if the head has not been
    /// sent nothing has.
    fn has_outstanding(&self) -> bool {
        let head = self.sq.front();
        debug_assert!(head.is_none_or(|w| !w.is_done()), "head left unretired");
        head.is_some_and(|w| w.sent_segments > 0)
    }

    fn rearm_timer_if_needed(&mut self, ctx: &QpCtx, life: &Lifecycle, fx: &mut Effects) {
        if ctx.cfg.cack == 0 || life.is_error() {
            return;
        }
        // The RNR timer replaces the ACK timer while waiting.
        if self.recovery.rnr_wait.is_none() && self.has_outstanding() {
            self.ack_armed = true;
            fx.timers.arm_ack = true;
        } else {
            self.disarm_ack(fx);
        }
    }

    /// Disarms the ACK timer: cancels its slot if armed, and withdraws an
    /// arm an earlier handler left in this same effects batch — the cancel
    /// must win or a no-op event lingers in the queue for a full `T_o`.
    fn disarm_ack(&mut self, fx: &mut Effects) {
        if self.ack_armed {
            self.ack_armed = false;
            fx.timers.cancel_ack = true;
        }
        fx.timers.arm_ack = false;
    }

    /// Notes forward progress: refills the retry budget and restarts the
    /// ACK timer.
    fn note_progress(&mut self, ctx: &QpCtx, life: &Lifecycle, fx: &mut Effects) {
        self.retry_budget = ctx.cfg.retry_count;
        self.rnr_budget = ctx.cfg.rnr_retry;
        self.rearm_timer_if_needed(ctx, life, fx);
    }

    /// Progress may have freed `max_rd_atomic` slots: transmit waiting
    /// READs/ATOMICs.
    fn pump_after_progress(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
    ) {
        if self.tx_cursor < self.sq.len() {
            self.pump(ctx, life, env, fx);
        }
    }

    /// Handles the ACK timeout firing. A fire on a disarmed QP (every
    /// disarm cancels the slot, and `error_out` disarms) does nothing.
    pub(super) fn on_ack_timeout(
        &mut self,
        ctx: &QpCtx,
        life: &mut Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
    ) {
        if !self.ack_armed {
            return;
        }
        self.ack_armed = false;
        if !self.has_outstanding() {
            return;
        }
        self.stats.timeouts += 1;
        if self.retry_budget == 0 {
            self.error_out(ctx, life, env, fx, WcStatus::RetryExcErr);
            return;
        }
        self.retry_budget -= 1;
        // The oldest pending message is the head (see `has_outstanding`).
        let from = self.sq[0].psn_first;
        self.recover_from(ctx, env, fx, from, false);
        self.rearm_timer_if_needed(ctx, life, fx);
    }

    /// Handles the RNR wait expiring; with no wait in progress (ended by
    /// a sequence-error NAK or `error_out`) a fire does nothing.
    pub(super) fn on_rnr_fire(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
    ) {
        let Some(from) = self.recovery.rnr_wait.take() else {
            return;
        };
        // On damming devices the go-back-N backend reproduces the
        // ConnectX-4 flaw here: recovery retransmits the requests that
        // were in flight when the RNR NAK arrived, but *forgets* the
        // ghosts — successors first transmitted during the wait
        // (→ packet damming). Back-to-back posts that beat the NAK onto
        // the wire are recovered fine, which is why Fig. 6a's timeout
        // probability is zero at near-zero intervals.
        self.recover_from(ctx, env, fx, from, env.profile.damming);
        self.rearm_timer_if_needed(ctx, life, fx);
    }

    /// Handles one blind ODP retransmission tick for the stalled message
    /// with first PSN `psn`; with no such stall (`retire` and `error_out`
    /// drop a stall and cancel its slot together) a tick does nothing.
    pub(super) fn on_stall_tick(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        psn: Psn,
    ) {
        let Some(idx) = self.recovery.stalls.iter().position(|s| s.psn == psn) else {
            return;
        };
        let Some(wqe_idx) = self.unfinished_at(psn) else {
            self.recovery.stalls.swap_remove(idx);
            return;
        };
        // Blind retransmission "regardless of the resolution of the page
        // fault" (§IV-A): resend the request and keep ticking. An
        // event-driven backend never arms these ticks.
        if ctx.cfg.recovery.blind_stall_tick() {
            self.retransmit_at(ctx, env, fx, wqe_idx);
            let delay = env.profile.odp_client_retx;
            fx.timers.arm_stalls.push((psn, delay));
        }
    }

    // ------------------------------------------------------------------
    // Retransmission
    // ------------------------------------------------------------------

    /// Resends every transmitted segment of the message at SQ index
    /// `idx` (clearing its damming ghost flag — a recovery retransmission
    /// really goes on the wire) and accounts the retransmissions. Done
    /// and never-sent messages have nothing to resend.
    fn retransmit_at(&mut self, ctx: &QpCtx, env: &mut QpEnv<'_>, fx: &mut Effects, idx: usize) {
        let wqe = &mut self.sq[idx];
        if wqe.is_done() || wqe.sent_segments == 0 {
            return;
        }
        wqe.ghosted = false;
        for seg in 0..wqe.sent_segments {
            fx.packets
                .push(build_request_packet(env, ctx, wqe, seg, true));
        }
        self.stats.retransmissions += u64::from(wqe.sent_segments);
    }

    /// One loss-recovery pass from PSN `from`: resends every message the
    /// backend selects (see [`Backend::resends`]; `forget_ghosts` is the
    /// RNR expiry on a damming profile). The walk follows the PSN-ordered
    /// queue, so packets leave in send-queue order, each message once.
    fn recover_from(
        &mut self,
        ctx: &QpCtx,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        from: Psn,
        forget_ghosts: bool,
    ) {
        for idx in 0..self.sq.len() {
            if self.backend.resends(&self.sq[idx], from, forget_ghosts) {
                self.retransmit_at(ctx, env, fx, idx);
            }
        }
    }

    /// SQ index of the unfinished message whose first PSN is `psn`: what
    /// a stall registered for `psn` still has to resume, if anything.
    fn unfinished_at(&self, psn: Psn) -> Option<usize> {
        sq_index(&self.sq, psn).filter(|&i| self.sq[i].psn_first == psn && !self.sq[i].is_done())
    }

    /// Fails all outstanding work and moves the QP to the error state.
    fn error_out(
        &mut self,
        ctx: &QpCtx,
        life: &mut Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        status: WcStatus,
    ) {
        life.set(QpState::Error);
        let mut first = true;
        self.tx_cursor = 0;
        self.ack_cursor = 0;
        self.outstanding_rd = 0;
        while let Some(wqe) = self.sq.pop_front() {
            let (status, bytes) = if wqe.is_done() {
                (WcStatus::Success, wqe.op.len())
            } else if std::mem::take(&mut first) {
                (status, 0)
            } else {
                (WcStatus::WrFlushErr, 0)
            };
            let c = Completion {
                wr_id: wqe.id,
                qpn: ctx.qpn,
                status,
                opcode: wqe.op.wc_opcode(),
                bytes,
                at: env.now,
            };
            fx.completions.push((c, Some(wqe.posted_at)));
        }
        for s in &self.recovery.stalls {
            fx.timers.cancel_stalls.push(s.psn);
        }
        self.recovery.stalls.clear();
        if self.recovery.rnr_wait.take().is_some() {
            fx.timers.cancel_rnr = true;
        }
        self.tx_blocked.clear();
        self.disarm_ack(fx);
    }

    // ------------------------------------------------------------------
    // Page events
    // ------------------------------------------------------------------

    /// True with a blocked source page or an ODP stall: `page_ready`
    /// returns untouched when both collections are empty.
    pub(super) fn awaits_page(&self) -> bool {
        !self.tx_blocked.is_empty() || !self.recovery.stalls.is_empty()
    }

    /// A local page became usable: unblock transmission if this was the
    /// last blocking source page, then resume the ODP stalls it unblocks
    /// unless the backend ticks blindly (go-back-N hardware is deaf to
    /// resolution — the tick is its only resume path — so this stays a
    /// no-op on the golden traces). Resuming here, event-driven, is what
    /// removes the flood's blind-retransmit amplification under
    /// selective repeat.
    pub(super) fn page_ready(
        &mut self,
        ctx: &QpCtx,
        life: &Lifecycle,
        env: &mut QpEnv<'_>,
        fx: &mut Effects,
        mr: MrKey,
        page: usize,
    ) {
        if self.tx_blocked.remove(&(mr, page)) && self.tx_blocked.is_empty() {
            self.pump(ctx, life, env, fx);
        }
        if self.recovery.stalls.is_empty() || ctx.cfg.recovery.blind_stall_tick() {
            return;
        }
        // Only the stalls this resolution actually unblocks: a stall
        // waiting on a different page would just be discarded and
        // re-stalled if resent now. Stalls with no recorded page (the
        // gate could not tell) always resume. A message that finished
        // since stalling has nothing to resend; its stall goes when it
        // retires. Stalls come in stall order, one per message, and
        // packets must leave in queue order: hence the sort.
        let mut resumed: Vec<usize> = self
            .recovery
            .stalls
            .iter()
            .filter(|s| s.blocked_on.is_none_or(|b| b == (mr, page)))
            .filter_map(|s| self.unfinished_at(s.psn))
            .collect();
        if resumed.is_empty() {
            return;
        }
        resumed.sort_unstable();
        let sq = &self.sq;
        self.recovery
            .stalls
            .retain(|s| !resumed.iter().any(|&i| sq[i].psn_first == s.psn));
        for idx in resumed {
            self.retransmit_at(ctx, env, fx, idx);
        }
        self.rearm_timer_if_needed(ctx, life, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_event::SplitMix64;

    /// The lookup against a linear scan, on seeded random queues:
    /// multi-packet messages, all-one-PSN queues (the first probe is the
    /// owner), one-PSN runs broken by two-PSN messages (the probe
    /// overshoots by a little), runs of done-but-unretired messages
    /// behind a pending head, and windows straddling the 24-bit PSN wrap.
    /// Probes cover the whole window, its two edges, distances past the
    /// tail (the probe clamps to the last message) and random PSNs from
    /// anywhere in the space.
    #[test]
    fn sq_index_equals_the_linear_scan_on_random_queues() {
        for case in 0..576u64 {
            let mut rng = SplitMix64::new(0x5EED_5000 + case);
            let len = rng.next_below(48);
            let base = match case % 3 {
                // Head just below the wrap, so the window straddles it.
                0 => Psn::new(Psn::MODULUS - 1 - rng.next_below(4 * len + 1) as u32),
                _ => Psn::new(rng.next_u64() as u32),
            };
            let widest = [5, 1, 2][(case / 3 % 3) as usize];
            let mut sq = VecDeque::new();
            let mut next = base;
            let mut done = false;
            for i in 0..len {
                let span = 1 + rng.next_below(widest) as u32;
                // Flip rarely so done messages come in runs; the head of
                // a live queue is never done.
                if rng.next_below(4) == 0 {
                    done = !done;
                }
                sq.push_back(SendWqe::read_for_test(next, span, true, done && i > 0));
                next = next.add(span);
            }
            let width = next.distance_from(base);
            let window = (0..width + 16).map(|d| base.add(d).add(Psn::MODULUS - 8));
            let anywhere = (0..32)
                .map(|_| Psn::new(rng.next_u64() as u32))
                .collect::<Vec<_>>();
            for psn in window.chain(anywhere) {
                assert_eq!(
                    sq_index(&sq, psn),
                    sq.iter().position(|w| w.covers(psn)),
                    "case {case}: owner of {psn} in a {len}-deep queue from {base}"
                );
                assert_eq!(
                    sq_index(&sq, psn).filter(|&i| !sq[i].is_done()),
                    sq.iter().position(|w| w.covers(psn) && !w.is_done()),
                    "case {case}: pending owner of {psn}"
                );
            }
        }
    }
}
