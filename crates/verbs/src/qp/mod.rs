//! The layered Reliable Connection transport core.
//!
//! One [`Qp`] is a thin facade (`ctx`, `life`, `req`, `resp`, `fault`)
//! over one module per concern:
//!
//! * `state` — the QP lifecycle enum and the single exhaustive
//!   transition-legality table.
//! * `requester` — send queue, PSN assignment, the transmit pump, the
//!   ACK / RNR / stall timers, the loss-recovery pass and error-out;
//!   `requester::response` is its receive path (ACK advance, READ and
//!   atomic response landing, NAK handling).
//! * `responder` — ePSN tracking, duplicate and out-of-sequence
//!   handling, the one admission, RNR NAK generation, ODP fault
//!   pendency, the atomic replay cache.
//! * `fault` — the page gate ("may this QP touch this span now?")
//!   both engines ask, per-QP page staleness, recovery windows.
//! * `recovery` — [`RecoveryKind`], the loss-recovery backend: what a
//!   recovery pass resends and how an ODP stall resumes.
//! * `effects` — the [`Effects`] value every engine emits into;
//!   the cluster router interprets it (`wire` holds the pure
//!   packet-construction helpers).
//!
//! The engines are engine-agnostic in the event-loop sense: handlers
//! receive a [`QpEnv`] view of the host (memory, memory regions, device
//! profile, current time) and emit everything they want to happen —
//! packets, timer arms/cancels, faults, completions — into an
//! [`Effects`] value. This keeps every protocol rule unit-testable
//! without an event loop.
//!
//! ## Timers
//!
//! A timer's identity is its keyed slot ([`TimerFamily::key`]); a
//! handler that clears a wait cancels its key in the same turn; nothing
//! else guards a stale fire. What the QP keeps per family is the wait
//! itself — `ack_armed`, `rnr_wait`, one `OdpStall` per stalled message
//! — and a fire that finds no wait ([`Qp::on_ack_timeout`],
//! [`Qp::on_rnr_fire`], [`Qp::on_stall_tick`]) is quiet.
//!
//! ## Where the paper's pitfalls live
//!
//! * Responder-side fault pendency silently drops every packet on the QP
//!   until the faulted request is served again (§III-B).
//! * On `damming` devices, fault-recovery retransmission resends *only*
//!   the faulted message (not go-back-N), and requests first transmitted
//!   inside a recovery window are ghosts that never reach the wire —
//!   together these reproduce packet damming (§V) exactly as captured in
//!   Figures 5 and 8.
//! * Client-side ODP discards READ responses whose destination pages are
//!   not usable *by this QP* and blindly retransmits every ~0.5 ms
//!   (Fig. 1); per-QP staleness after a fault resolution is what turns
//!   many QPs into a packet flood (§VI).

mod effects;
mod fault;
#[cfg(test)]
mod gate_tests;
mod recovery;
mod requester;
mod responder;
mod state;
mod wire;

pub use effects::{Effects, TimerEffects, TimerFamily};
pub use recovery::{RecoveryKind, SackBitmap};
pub use state::QpState;

use std::collections::BTreeMap;
use std::fmt;

use ibsim_event::SimTime;
use ibsim_fabric::Lid;

use crate::device::DeviceProfile;
use crate::mem::{MemRegion, Memory};
use crate::packet::{Packet, PacketKind};
use crate::types::{MrKey, Psn, Qpn, WrId};
use crate::wr::{RecvWr, WorkRequest};

use fault::FaultTracker;
use requester::Requester;
use responder::Responder;
use state::Lifecycle;

/// Connection-time QP attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QpConfig {
    /// Requested Local ACK Timeout field `C_ack` (vendor-clamped to the
    /// device minimum; 0 disables the transport timer).
    pub cack: u8,
    /// Transport retry budget `C_retry`.
    pub retry_count: u8,
    /// RNR retry budget; 7 means unlimited (InfiniBand convention).
    pub rnr_retry: u8,
    /// Minimal RNR NAK delay this QP advertises as a responder.
    pub min_rnr_delay: SimTime,
    /// Path MTU in bytes: one of IBTA's 256, 512, 1024, 2048 or 4096
    /// ([`Qp::new`] panics on anything else).
    pub mtu: u32,
    /// Maximum outstanding READ/ATOMIC requests (`max_rd_atomic`); the
    /// usual hardware limit is 16.
    pub max_rd_atomic: usize,
    /// Loss-recovery backend this QP runs (see [`RecoveryKind`]).
    pub recovery: RecoveryKind,
}

impl Default for QpConfig {
    /// The paper's micro-benchmark settings (§V): `C_ack = 1` (clamped to
    /// the vendor floor), `C_retry = 7`, minimal RNR NAK delay 1.28 ms.
    fn default() -> Self {
        QpConfig {
            cack: 1,
            retry_count: 7,
            rnr_retry: 7,
            min_rnr_delay: SimTime::from_us(1_280),
            mtu: crate::types::DEFAULT_MTU,
            max_rd_atomic: 16,
            recovery: RecoveryKind::GoBackN,
        }
    }
}

/// Per-QP protocol counters, assembled by [`Qp::stats`] from the
/// per-engine counters (requester, responder, lifecycle guard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpStats {
    /// Request packets retransmitted.
    pub retransmissions: u64,
    /// ACK timeouts fired.
    pub timeouts: u64,
    /// RNR NAKs received (requester side).
    pub rnr_naks_received: u64,
    /// RNR NAKs sent (responder side).
    pub rnr_naks_sent: u64,
    /// Sequence-error NAKs sent (responder side).
    pub seq_naks_sent: u64,
    /// READ responses discarded by client-side ODP.
    pub responses_discarded: u64,
    /// Network page faults this QP triggered (either side).
    pub faults_raised: u64,
    /// Request packets silently dropped by responder fault pendency.
    pub pendency_drops: u64,
    /// Pages pinned on first touch (either side); only the
    /// [`RecoveryKind::OnDemandPin`] backend ever pins, so this stays
    /// zero under go-back-N and selective repeat.
    pub pages_pinned: u64,
    /// Protocol-invariant violations detected at runtime: illegal QP
    /// state transitions per [`QpState::transition_allowed`].
    pub invariant_violations: u64,
    /// ACKs received carrying an ECN echo (requester side). Nonzero only
    /// on routed topologies with congestion marking enabled.
    pub ecn_echoes: u64,
}

/// Everything a QP handler may touch on its host.
pub struct QpEnv<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Host memory.
    pub mem: &'a mut Memory,
    /// This NIC's registered memory regions.
    pub mrs: &'a mut BTreeMap<MrKey, MemRegion>,
    /// This NIC's device profile.
    pub profile: &'a DeviceProfile,
}

/// Immutable connection identity shared (read-only) by both engines.
struct QpCtx {
    qpn: Qpn,
    lid: Lid,
    peer: Option<(Lid, Qpn)>,
    cfg: QpConfig,
}

impl QpCtx {
    /// The one packet constructor: `kind` at `psn` from this QP to its
    /// connected peer, on the wire (no ghost), unmarked, not a
    /// retransmission. Callers that mean otherwise say so on the result.
    ///
    /// # Panics
    ///
    /// Panics if the QP was never connected.
    fn packet(&self, psn: Psn, kind: PacketKind) -> Packet {
        let (dst, dst_qp) = self
            .peer
            .expect("invariant: QP connected before carrying traffic");
        Packet {
            src: self.lid,
            dst,
            dst_qp,
            src_qp: self.qpn,
            psn,
            kind,
            ghost: false,
            ecn: false,
            retransmit: false,
        }
    }
}

/// A Reliable Connection queue pair: the requester and responder engines
/// plus the shared fault layer, behind the pre-refactor public API.
pub struct Qp {
    ctx: QpCtx,
    life: Lifecycle,
    req: Requester,
    resp: Responder,
    fault: FaultTracker,
}

impl fmt::Debug for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Qp")
            .field("qpn", &self.ctx.qpn)
            .field("state", &self.life.get())
            .field("sq_depth", &self.req.pending_sends())
            .field("next_psn", &self.req.next_psn())
            .field("epsn", &self.resp.epsn())
            .field("stalls", &self.req.stall_count())
            .finish()
    }
}

impl Qp {
    /// Creates a QP owned by the port `lid` with number `qpn`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mtu` is not an IBTA path MTU (256, 512, 1024, 2048
    /// or 4096 bytes): a segment may span at most the two pages a
    /// [`Payload`](crate::Payload) holds.
    pub fn new(qpn: Qpn, lid: Lid, cfg: QpConfig) -> Self {
        assert!(
            [256, 512, 1024, 2048, 4096].contains(&cfg.mtu),
            "QpConfig::mtu {} is not an IBTA path MTU (256, 512, 1024, 2048 or 4096)",
            cfg.mtu
        );
        Qp {
            req: Requester::new(cfg.retry_count, cfg.rnr_retry, cfg.recovery),
            resp: Responder::new(),
            fault: FaultTracker::new(),
            life: Lifecycle::new(),
            ctx: QpCtx {
                qpn,
                lid,
                peer: None,
                cfg,
            },
        }
    }

    /// This QP's number.
    pub fn qpn(&self) -> Qpn {
        self.ctx.qpn
    }

    /// Connection attributes.
    pub fn config(&self) -> &QpConfig {
        &self.ctx.cfg
    }

    /// Operational state.
    pub fn state(&self) -> QpState {
        self.life.get()
    }

    /// The connected peer `(lid, qpn)`, if any.
    pub fn peer(&self) -> Option<(Lid, Qpn)> {
        self.ctx.peer
    }

    /// Connects this QP to a remote peer, walking the RC lifecycle
    /// (`Reset → Init → Rtr → Rts`) exactly as a chain of `ibv_modify_qp`
    /// calls would. The paper's Fig. 2 experiment deliberately passes a
    /// wrong LID here to provoke packet loss.
    pub fn connect(&mut self, peer_lid: Lid, peer_qpn: Qpn) {
        self.ctx.peer = Some((peer_lid, peer_qpn));
        self.life.set(QpState::Init);
        self.life.set(QpState::Rtr);
        self.life.set(QpState::Rts);
    }

    /// Number of send WQEs not yet retired.
    pub fn pending_sends(&self) -> usize {
        self.req.pending_sends()
    }

    /// True if the work request `id` is still in the send queue (posted
    /// but not yet completed).
    pub fn is_wr_pending(&self, id: WrId) -> bool {
        self.req.is_wr_pending(id)
    }

    /// True while the QP is inside a fault-recovery window (RNR wait, or
    /// the pre-first-retransmit phase of an ODP stall): on `damming`
    /// devices, requests first transmitted now become ghosts.
    pub fn in_recovery_window(&self, now: SimTime) -> bool {
        self.req.in_recovery_window(now)
    }

    /// True if this QP currently has an active ODP stall or RNR wait
    /// (used by the NIC to estimate timer-management load, §VI-C).
    pub fn in_recovery(&self) -> bool {
        self.req.in_recovery()
    }

    /// True if a page becoming usable could change anything here: the QP
    /// holds a stale page, its responder is in fault pendency, or its
    /// requester has blocked source pages or ODP stalls. Conservative —
    /// *any* page, so a stall that recorded no page stays covered. While
    /// this is false [`Qp::on_page_ready`] is a no-op, which lets the
    /// cluster wake only the QPs that await a page.
    pub fn awaits_page(&self) -> bool {
        !self.fault.is_empty() || self.resp.awaits_page() || self.req.awaits_page()
    }

    /// The public counter snapshot, assembled from the per-engine
    /// counters. `faults_raised` sums both sides.
    pub fn stats(&self) -> QpStats {
        QpStats {
            retransmissions: self.req.stats.retransmissions,
            timeouts: self.req.stats.timeouts,
            rnr_naks_received: self.req.stats.rnr_naks_received,
            rnr_naks_sent: self.resp.stats.rnr_naks_sent,
            seq_naks_sent: self.resp.stats.seq_naks_sent,
            responses_discarded: self.req.stats.responses_discarded,
            faults_raised: self.req.stats.gate.faults_raised + self.resp.stats.gate.faults_raised,
            pendency_drops: self.resp.stats.pendency_drops,
            pages_pinned: self.req.stats.gate.pages_pinned + self.resp.stats.gate.pages_pinned,
            invariant_violations: self.life.violations(),
            ecn_echoes: self.req.stats.ecn_echoes,
        }
    }

    /// Posts a send work request and transmits as far as possible.
    ///
    /// # Panics
    ///
    /// Panics if the QP was never connected.
    pub fn post(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects, wr: WorkRequest) {
        self.req.post(&self.ctx, &mut self.life, env, fx, wr);
    }

    /// Posts a receive buffer for an incoming SEND.
    pub fn post_recv(&mut self, recv: RecvWr) {
        self.resp.post_recv(recv);
    }

    /// Handles a packet addressed to this QP, routing it to the engine
    /// for its role: requests to the responder, responses/ACKs/NAKs to
    /// the requester.
    pub fn on_packet(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects, pkt: &Packet) {
        if self.life.is_error() {
            return;
        }
        match &pkt.kind {
            PacketKind::ReadRequest { .. }
            | PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. } => self.resp.on_request(&self.ctx, env, fx, pkt),
            PacketKind::ReadResponse { .. } | PacketKind::AtomicResponse { .. } => self
                .req
                .on_response(&self.ctx, &self.life, &self.fault, env, fx, pkt),
            PacketKind::Ack => {
                if pkt.ecn {
                    // Counted only: no backend reacts to an ECN echo, so
                    // congestion marking never perturbs timing.
                    self.req.stats.ecn_echoes += 1;
                }
                self.req.on_ack(&self.ctx, &self.life, env, fx, pkt.psn)
            }
            PacketKind::Nak(kind) => {
                self.req
                    .on_nak(&self.ctx, &mut self.life, env, fx, pkt.psn, *kind)
            }
        }
    }

    /// Handles the ACK timeout firing; quiet unless the timer is armed.
    pub fn on_ack_timeout(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects) {
        self.req.on_ack_timeout(&self.ctx, &mut self.life, env, fx);
    }

    /// Handles the RNR wait expiring; quiet unless a wait is in progress.
    pub fn on_rnr_fire(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects) {
        self.req.on_rnr_fire(&self.ctx, &self.life, env, fx);
    }

    /// Handles one blind ODP retransmission tick for the stalled message
    /// with first PSN `psn`; quiet unless that message is still stalled.
    pub fn on_stall_tick(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects, psn: Psn) {
        self.req.on_stall_tick(&self.ctx, env, fx, psn);
    }

    /// Called when a page becomes usable for this QP (fault resolved, or a
    /// per-QP flood resume finished): clears staleness, lifts responder
    /// fault pendency, and unblocks send-side transmission, in that order.
    pub fn on_page_ready(&mut self, env: &mut QpEnv<'_>, fx: &mut Effects, mr: MrKey, page: usize) {
        self.fault.page_ready(mr, page);
        self.resp.page_ready(mr, page);
        self.req
            .page_ready(&self.ctx, &self.life, env, fx, mr, page);
    }

    /// Marks a mapped page as not yet propagated to this QP (the packet
    /// flood root cause: "update failure of page statuses", §VI-B).
    pub fn mark_page_stale(&mut self, mr: MrKey, page: usize) {
        self.fault.mark_stale(mr, page);
    }
}
