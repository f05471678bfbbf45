//! Pluggable loss-recovery backends behind the requester engine.
//!
//! The paper's pitfalls are consequences of *one point* in the design
//! space — go-back-N recovery colliding with the ODP fault window — so
//! the recovery decision logic is a trait, [`RecoveryPolicy`], instead
//! of code inlined in the requester. A policy sees loss / NAK / timeout
//! / fault-resolution events plus a narrow [`RetransmitCtx`] view of the
//! outstanding work requests, and returns a [`RecoveryPlan`] naming the
//! messages to put back on the wire. The view is borrowed from the live
//! send queue and lazy: a decision that never looks at the queue (every
//! blind stall tick) reads none of it, and nothing is copied up front.
//! The requester *executes* the plan (building packets in send-queue
//! order and pushing them through the existing `Effects` pipeline), so
//! packet order, retransmission counters and timer sequencing stay
//! byte-identical for the extracted [`GoBackN`] backend.
//!
//! Three backends ship:
//!
//! * [`GoBackN`] — today's hardware, extracted verbatim: cumulative
//!   acking, everything from the hole retransmitted, blind 0.5 ms ODP
//!   stall ticks, and the ConnectX-4 ghost-forgetting quirk on damming
//!   profiles.
//! * [`SelectiveRepeat`] — IRN-style (Mittal et al., *Revisiting
//!   Network Support for RDMA*): per-message selective acking backed by
//!   a 24-bit-wraparound-safe [`SackBitmap`], retransmission only of
//!   messages with evidence of non-delivery, and event-driven resume of
//!   ODP stalls instead of blind ticks.
//! * [`OnDemandPin`] — NP-RDMA-style fault model: loss recovery
//!   delegates to go-back-N, but faulting pages are pinned on first
//!   touch (see `fault::pin_pages`), so the fault window never opens and
//!   neither pitfall can occur.

use core::fmt;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::str::FromStr;

use ibsim_event::SimTime;

use crate::types::Psn;
use crate::wr::SendWqe;

use super::requester::sq_index;

/// Which loss-recovery backend a QP runs. Carried in
/// [`QpConfig`](super::QpConfig); defaults to [`RecoveryKind::GoBackN`],
/// the hardware the paper measured.
///
/// `Display` and `FromStr` round-trip exactly (`gbn`, `irn`, `pin`);
/// the scenario spec and benches rely on that.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::RecoveryKind;
///
/// assert_eq!(RecoveryKind::default(), RecoveryKind::GoBackN);
/// for k in RecoveryKind::ALL {
///     assert_eq!(k.to_string().parse::<RecoveryKind>(), Ok(k));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RecoveryKind {
    /// Go-back-N, as ConnectX-class hardware implements it.
    #[default]
    GoBackN,
    /// IRN-style selective repeat with SACK-bitmap loss tracking.
    SelectiveRepeat,
    /// NP-RDMA-style on-demand pinning: go-back-N loss recovery, but
    /// pages pin on first touch so the fault window never opens.
    OnDemandPin,
}

impl RecoveryKind {
    /// Every backend, in ablation order.
    pub const ALL: [RecoveryKind; 3] = [
        RecoveryKind::GoBackN,
        RecoveryKind::SelectiveRepeat,
        RecoveryKind::OnDemandPin,
    ];

    /// The spec/CLI token (`gbn`, `irn`, `pin`).
    pub fn token(self) -> &'static str {
        match self {
            RecoveryKind::GoBackN => "gbn",
            RecoveryKind::SelectiveRepeat => "irn",
            RecoveryKind::OnDemandPin => "pin",
        }
    }
}

impl fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for RecoveryKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gbn" => Ok(RecoveryKind::GoBackN),
            "irn" => Ok(RecoveryKind::SelectiveRepeat),
            "pin" => Ok(RecoveryKind::OnDemandPin),
            other => Err(format!(
                "unknown recovery kind `{other}` (expected gbn, irn or pin)"
            )),
        }
    }
}

// ----------------------------------------------------------------------
// SACK bitmap
// ----------------------------------------------------------------------

/// A selective-acknowledgment bitmap over the 24-bit PSN space.
///
/// Tracks which PSNs at or ahead of a moving `base` have been delivered.
/// All arithmetic is modulo 2^24 with the standard half-range horizon,
/// so windows walking across `0xFF_FFFF → 0` behave exactly like windows
/// in the middle of the space. Storage is a sparse word map keyed by
/// absolute PSN word index; [`SackBitmap::advance_to`] prunes retired
/// words so a wrapped-around PSN can never alias a stale mark from the
/// previous epoch.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::{Psn, SackBitmap};
///
/// let mut sack = SackBitmap::new(Psn::new(0xFF_FFFE));
/// sack.mark(Psn::new(0xFF_FFFF));
/// sack.mark(Psn::new(1)); // wrapped
/// assert!(!sack.is_marked(Psn::new(0xFF_FFFE)));
/// assert!(sack.is_marked(Psn::new(0xFF_FFFF)));
/// assert!(sack.is_marked(Psn::new(1)));
/// assert!(!sack.all_marked(Psn::new(0xFF_FFFE), Psn::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct SackBitmap {
    base: Psn,
    /// Absolute word index (`psn >> 6`) → delivered bits.
    words: BTreeMap<u32, u64>,
}

impl SackBitmap {
    /// Marks further than half the PSN space ahead of the base are
    /// rejected: they are indistinguishable from marks *behind* it.
    pub const WINDOW: u32 = Psn::MODULUS >> 1;

    /// An empty bitmap with everything before `base` considered retired
    /// (and therefore delivered).
    pub fn new(base: Psn) -> Self {
        SackBitmap {
            base,
            words: BTreeMap::new(),
        }
    }

    /// The current window base.
    pub fn base(&self) -> Psn {
        self.base
    }

    /// Records `psn` as delivered. Returns `true` if the mark is new;
    /// PSNs behind the base (already retired) or beyond the half-range
    /// window are ignored.
    pub fn mark(&mut self, psn: Psn) -> bool {
        if psn.distance_from(self.base) >= Self::WINDOW {
            return false;
        }
        let bit = 1u64 << (psn.value() & 63);
        let word = self.words.entry(psn.value() >> 6).or_insert(0);
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// True if `psn` was delivered: explicitly marked, or retired behind
    /// the base.
    pub fn is_marked(&self, psn: Psn) -> bool {
        if psn.precedes(self.base) {
            return true;
        }
        self.words
            .get(&(psn.value() >> 6))
            .is_some_and(|w| w & (1u64 << (psn.value() & 63)) != 0)
    }

    /// True if every PSN of the inclusive span `[first, last]` is
    /// delivered. Spans wider than the half-range window report a hole.
    pub fn all_marked(&self, first: Psn, last: Psn) -> bool {
        if last.distance_from(first) >= Self::WINDOW {
            return false;
        }
        let mut p = first;
        loop {
            if !self.is_marked(p) {
                return false;
            }
            if p == last {
                return true;
            }
            p = p.next();
        }
    }

    /// Advances the base to `new_base` (a retire point), pruning every
    /// mark that falls behind it. Moving backwards is a no-op.
    pub fn advance_to(&mut self, new_base: Psn) {
        if new_base.precedes(self.base) || new_base == self.base {
            return;
        }
        self.base = new_base;
        // Words are 64 aligned PSNs and never straddle the 2^24 wrap
        // (the modulus is word-aligned), so a word is prunable iff its
        // last PSN precedes the new base.
        self.words
            .retain(|&widx, _| !Psn::new(widx * 64 + 63).precedes(new_base));
        // Partial boundary word: clear the retired low bits so an epoch
        // later (2^24 PSNs from now) they cannot alias fresh marks.
        if let Some(word) = self.words.get_mut(&(new_base.value() >> 6)) {
            *word &= u64::MAX << (new_base.value() & 63);
            if *word == 0 {
                self.words.remove(&(new_base.value() >> 6));
            }
        }
    }

    /// Number of words currently held (diagnostics: stays proportional
    /// to the outstanding window, not to total traffic).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }
}

// ----------------------------------------------------------------------
// The narrow requester view and the decision types
// ----------------------------------------------------------------------

/// One outstanding work request as a recovery policy sees it: PSN span
/// plus delivery progress, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrView {
    /// First PSN of the message.
    pub psn_first: Psn,
    /// Last PSN of the message (inclusive).
    pub psn_last: Psn,
    /// At least one segment has been transmitted.
    pub sent: bool,
    /// The message can retire (acked / all response data consumed).
    pub done: bool,
    /// The remote side acknowledged the message.
    pub acked: bool,
    /// Damming quirk: first transmitted inside a fault-recovery window.
    pub ghosted: bool,
}

impl WrView {
    /// True if the message still needs the wire: transmitted but not
    /// finished.
    pub fn pending(&self) -> bool {
        self.sent && !self.done
    }
}

/// The read-only context a policy decides over: the outstanding work
/// requests and the current simulation time. It borrows the requester's
/// live send queue and builds a [`WrView`] only for the entries a policy
/// actually reads, so asking for a decision costs nothing by itself.
/// Only the requester constructs one.
#[derive(Debug)]
pub struct RetransmitCtx<'a> {
    sq: &'a VecDeque<SendWqe>,
    /// Current simulation time.
    pub now: SimTime,
    views_built: Cell<usize>,
}

impl<'a> RetransmitCtx<'a> {
    pub(super) fn new(sq: &'a VecDeque<SendWqe>, now: SimTime) -> Self {
        RetransmitCtx {
            sq,
            now,
            views_built: Cell::new(0),
        }
    }

    fn view(&self, w: &SendWqe) -> WrView {
        self.views_built.set(self.views_built.get() + 1);
        WrView {
            psn_first: w.psn_first,
            psn_last: w.psn_last,
            sent: w.sent_segments > 0,
            done: w.is_done(),
            acked: w.acked,
            ghosted: w.ghosted,
        }
    }

    /// The outstanding work requests in send-queue (= PSN) order, each
    /// view built as the iterator reaches it.
    pub fn wrs(&self) -> impl Iterator<Item = WrView> + '_ {
        self.sq.iter().map(|w| self.view(w))
    }

    /// The work request whose first PSN is `psn_first`, found by
    /// bisection on the PSN-ordered queue.
    pub fn wr(&self, psn_first: Psn) -> Option<WrView> {
        let w = &self.sq[sq_index(self.sq, psn_first)?];
        (w.psn_first == psn_first).then(|| self.view(w))
    }

    /// How many [`WrView`]s this decision has read so far: the work the
    /// backend made the requester do.
    pub fn views_built(&self) -> usize {
        self.views_built.get()
    }
}

/// A retransmission decision: the first PSNs of the messages to resend.
/// The requester resends every transmitted segment of each named message
/// (clearing its damming ghost flag) in send-queue order, whatever order
/// they are named in, and accounts the retransmissions — preserving the
/// exact packet order the golden traces pin. The empty plan holds no
/// allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// `psn_first` of each message to retransmit.
    pub retransmit: Vec<Psn>,
}

impl RecoveryPlan {
    /// The empty plan: retransmit nothing.
    pub fn none() -> Self {
        RecoveryPlan::default()
    }

    /// A plan retransmitting the given messages.
    pub fn messages(retransmit: Vec<Psn>) -> Self {
        RecoveryPlan { retransmit }
    }

    /// True if the plan does nothing.
    pub fn is_empty(&self) -> bool {
        self.retransmit.is_empty()
    }
}

/// Decision for one blind ODP stall tick: whether to resend the stalled
/// message now, and whether to re-arm the tick timer (the arm/cancel
/// half of the recovery contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallVerdict {
    /// Resend the stalled message this tick.
    pub retransmit: bool,
    /// Re-arm the blind tick timer for another round.
    pub rearm: bool,
}

// ----------------------------------------------------------------------
// The trait
// ----------------------------------------------------------------------

/// A pluggable loss-recovery backend.
///
/// Implementations must be deterministic: decisions may depend only on
/// the event arguments, the [`RetransmitCtx`] view and state accumulated
/// from earlier `note_*` calls — never on wall clock, randomness or
/// iteration order of unordered containers. Every method is object-safe;
/// the requester owns a `Box<dyn RecoveryPolicy>`.
///
/// Event flow: the requester feeds delivery bookkeeping through
/// [`note_delivered`](RecoveryPolicy::note_delivered) /
/// [`note_message_delivered`](RecoveryPolicy::note_message_delivered) /
/// [`note_retired`](RecoveryPolicy::note_retired), and asks for
/// decisions on ACK timeout, RNR-wait expiry, sequence-error NAKs,
/// blind stall ticks and fault resolution. Returned plans are executed
/// by the requester against the live send queue and drained through the
/// `Effects` pipeline.
pub trait RecoveryPolicy: fmt::Debug + Send {
    /// Which backend this is.
    fn kind(&self) -> RecoveryKind;

    /// True if the ConnectX-4 damming quirks apply: ghost windows, the
    /// ghost lookback on RNR NAKs and response discard during RNR waits.
    /// They are artifacts of the hardware go-back-N engine, so only
    /// [`GoBackN`] returns true.
    fn ghost_quirks(&self) -> bool;

    /// True if a discarded client-ODP response arms the blind 0.5 ms
    /// retransmit tick ("regardless of the resolution of the page
    /// fault", §IV-A). Selective repeat resumes on the fault-resolution
    /// event instead.
    fn arms_blind_stall(&self) -> bool;

    /// True if ACKs and responses acknowledge cumulatively (go-back-N
    /// semantics). When false, an ACK for `psn` acknowledges only the
    /// message whose final PSN is `psn`.
    fn cumulative_ack(&self) -> bool;

    /// One PSN was delivered (a response segment consumed, or an ACK
    /// received).
    fn note_delivered(&mut self, psn: Psn);

    /// A whole message span was acknowledged.
    fn note_message_delivered(&mut self, psn_first: Psn, psn_last: Psn);

    /// Everything before `up_to` retired; loss state may be pruned.
    fn note_retired(&mut self, up_to: Psn);

    /// The ACK timeout fired; `from` is the first PSN of the oldest
    /// pending message.
    fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan;

    /// The RNR wait for the message at `psn` expired. `damming` is true
    /// on profiles with the ConnectX-4 recovery flaw.
    fn on_rnr_expire(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn, damming: bool) -> RecoveryPlan;

    /// A NAK(SequenceError) arrived: the responder expected `epsn` and
    /// saw `at` instead.
    fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, at: Psn) -> RecoveryPlan;

    /// One blind stall tick fired for the stalled message at `psn`.
    fn on_stall_tick(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn) -> StallVerdict;

    /// A faulted page became usable while messages are stalled;
    /// `stalled` yields the first PSNs of the stalls that page unblocks,
    /// in stall order (possibly none), and like the context is only
    /// walked if the backend pulls from it. Returned messages are resumed
    /// (retransmitted) and their stalls cleared.
    fn on_fault_resolved(
        &mut self,
        ctx: &RetransmitCtx<'_>,
        stalled: &mut dyn Iterator<Item = Psn>,
    ) -> RecoveryPlan;

    /// An ACK arrived carrying an ECN echo: some hop of the forward path
    /// was congested when this message's packets crossed it. Backends
    /// may use it to moderate retransmission aggressiveness; the default
    /// ignores it, so congestion marking never perturbs timing for
    /// backends that don't opt in.
    fn on_ecn_echo(&mut self, _now: SimTime) {}
}

/// Constructs the backend for `kind`.
pub fn policy_for(kind: RecoveryKind) -> Box<dyn RecoveryPolicy> {
    match kind {
        RecoveryKind::GoBackN => Box::new(GoBackN),
        RecoveryKind::SelectiveRepeat => Box::new(SelectiveRepeat::new()),
        RecoveryKind::OnDemandPin => Box::new(OnDemandPin),
    }
}

// ----------------------------------------------------------------------
// Go-back-N
// ----------------------------------------------------------------------

/// The hardware go-back-N engine, extracted bit-identically from the
/// pre-trait requester: retransmit every transmitted, unfinished message
/// whose span reaches the hole or beyond; on damming profiles the RNR
/// recovery pass forgets ghosts (the ConnectX-4 flaw, §IV-A).
#[derive(Debug, Clone, Copy, Default)]
pub struct GoBackN;

impl GoBackN {
    fn from_psn(ctx: &RetransmitCtx<'_>, from: Psn, skip_ghosts: bool) -> RecoveryPlan {
        RecoveryPlan::messages(
            ctx.wrs()
                .filter(|w| w.pending() && !w.psn_last.precedes(from))
                .filter(|w| !(skip_ghosts && w.ghosted))
                .map(|w| w.psn_first)
                .collect(),
        )
    }
}

impl RecoveryPolicy for GoBackN {
    fn kind(&self) -> RecoveryKind {
        RecoveryKind::GoBackN
    }

    fn ghost_quirks(&self) -> bool {
        true
    }

    fn arms_blind_stall(&self) -> bool {
        true
    }

    fn cumulative_ack(&self) -> bool {
        true
    }

    fn note_delivered(&mut self, _psn: Psn) {}

    fn note_message_delivered(&mut self, _psn_first: Psn, _psn_last: Psn) {}

    fn note_retired(&mut self, _up_to: Psn) {}

    fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
        Self::from_psn(ctx, from, false)
    }

    fn on_rnr_expire(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn, damming: bool) -> RecoveryPlan {
        // The ConnectX-4 flaw: recovery retransmits the requests that
        // were in flight when the RNR NAK arrived but forgets the
        // ghosts — successors first transmitted during the wait.
        Self::from_psn(ctx, psn, damming)
    }

    fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, _at: Psn) -> RecoveryPlan {
        Self::from_psn(ctx, epsn, false)
    }

    fn on_stall_tick(&mut self, _ctx: &RetransmitCtx<'_>, _psn: Psn) -> StallVerdict {
        // Blind retransmission "regardless of the resolution of the
        // page fault" (§IV-A): resend and keep ticking.
        StallVerdict {
            retransmit: true,
            rearm: true,
        }
    }

    fn on_fault_resolved(
        &mut self,
        _ctx: &RetransmitCtx<'_>,
        _stalled: &mut dyn Iterator<Item = Psn>,
    ) -> RecoveryPlan {
        // Go-back-N hardware is deaf to resolution: the blind tick is
        // the only resume path.
        RecoveryPlan::none()
    }
}

// ----------------------------------------------------------------------
// Selective repeat (IRN)
// ----------------------------------------------------------------------

/// IRN-style selective repeat: per-message acknowledgment, a SACK
/// bitmap of delivered PSNs, and retransmission only of messages with
/// evidence of non-delivery. ODP stalls resume when the fault resolves
/// instead of on a blind cadence, which is what removes the packet
/// flood's retransmit amplification.
#[derive(Debug)]
pub struct SelectiveRepeat {
    delivered: SackBitmap,
}

impl SelectiveRepeat {
    /// A fresh backend with an empty delivery bitmap based at PSN 0.
    pub fn new() -> Self {
        SelectiveRepeat {
            delivered: SackBitmap::new(Psn::new(0)),
        }
    }

    /// The messages that still need the wire: transmitted, unfinished,
    /// unacknowledged and with at least one undelivered PSN.
    fn undelivered<'a>(&'a self, ctx: &'a RetransmitCtx<'_>) -> impl Iterator<Item = WrView> + 'a {
        ctx.wrs().filter(|w| {
            w.pending() && !w.acked && !self.delivered.all_marked(w.psn_first, w.psn_last)
        })
    }
}

impl Default for SelectiveRepeat {
    fn default() -> Self {
        Self::new()
    }
}

impl RecoveryPolicy for SelectiveRepeat {
    fn kind(&self) -> RecoveryKind {
        RecoveryKind::SelectiveRepeat
    }

    fn ghost_quirks(&self) -> bool {
        false
    }

    fn arms_blind_stall(&self) -> bool {
        false
    }

    fn cumulative_ack(&self) -> bool {
        false
    }

    fn note_delivered(&mut self, psn: Psn) {
        self.delivered.mark(psn);
    }

    fn note_message_delivered(&mut self, psn_first: Psn, psn_last: Psn) {
        let mut p = psn_first;
        loop {
            self.delivered.mark(p);
            if p == psn_last {
                break;
            }
            p = p.next();
        }
    }

    fn note_retired(&mut self, up_to: Psn) {
        self.delivered.advance_to(up_to);
    }

    fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
        RecoveryPlan::messages(
            self.undelivered(ctx)
                .filter(|w| !w.psn_last.precedes(from))
                .map(|w| w.psn_first)
                .collect(),
        )
    }

    fn on_rnr_expire(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn, _damming: bool) -> RecoveryPlan {
        // The refused message and every undelivered successor: the
        // responder's fault pendency dropped whatever followed the
        // refused PSN, and waiting for per-message timeouts instead
        // would stretch recovery by a full T_o each.
        RecoveryPlan::messages(
            self.undelivered(ctx)
                .filter(|w| !w.psn_last.precedes(psn))
                .map(|w| w.psn_first)
                .collect(),
        )
    }

    fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, _at: Psn) -> RecoveryPlan {
        // Every undelivered message from the hole: the responder's
        // in-order path dropped (or, for READ/WRITE, absorbed out of
        // order without acking) whatever followed the hole, so bounding
        // the plan at the arrived PSN would leave later SENDs and
        // atomics waiting out a full T_o each. Delivered messages the
        // bitmap already covers are skipped — the selective half of
        // selective repeat.
        RecoveryPlan::messages(
            self.undelivered(ctx)
                .filter(|w| !w.psn_last.precedes(epsn))
                .map(|w| w.psn_first)
                .collect(),
        )
    }

    fn on_stall_tick(&mut self, _ctx: &RetransmitCtx<'_>, _psn: Psn) -> StallVerdict {
        // Never armed; a stray tick neither resends nor re-arms.
        StallVerdict {
            retransmit: false,
            rearm: false,
        }
    }

    fn on_fault_resolved(
        &mut self,
        ctx: &RetransmitCtx<'_>,
        stalled: &mut dyn Iterator<Item = Psn>,
    ) -> RecoveryPlan {
        // Event-driven resume: re-request each still-pending stalled
        // message exactly once, now that its pages can land.
        RecoveryPlan::messages(
            stalled
                .filter(|&p| ctx.wr(p).is_some_and(|w| w.pending()))
                .collect(),
        )
    }
}

// ----------------------------------------------------------------------
// On-demand pinning (NP-RDMA)
// ----------------------------------------------------------------------

/// NP-RDMA-style on-demand pinning. Loss recovery is plain go-back-N
/// (fabric loss still exists), but the ODP gates pin faulting pages
/// synchronously on first touch, so RNR fault pendency, client-side
/// stalls and the damming ghost window never arise. The quirk knobs are
/// all off: this models fixed firmware, not ConnectX-4.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnDemandPin;

impl RecoveryPolicy for OnDemandPin {
    fn kind(&self) -> RecoveryKind {
        RecoveryKind::OnDemandPin
    }

    fn ghost_quirks(&self) -> bool {
        false
    }

    fn arms_blind_stall(&self) -> bool {
        // Unreachable in practice: the pin gates never discard a
        // response, so no stall is ever registered.
        true
    }

    fn cumulative_ack(&self) -> bool {
        true
    }

    fn note_delivered(&mut self, _psn: Psn) {}

    fn note_message_delivered(&mut self, _psn_first: Psn, _psn_last: Psn) {}

    fn note_retired(&mut self, _up_to: Psn) {}

    fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
        GoBackN.on_timeout(ctx, from)
    }

    fn on_rnr_expire(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn, _damming: bool) -> RecoveryPlan {
        // No ghost window exists without a fault window; recover like
        // go-back-N on sane hardware.
        GoBackN.on_rnr_expire(ctx, psn, false)
    }

    fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, at: Psn) -> RecoveryPlan {
        GoBackN.on_seq_nak(ctx, epsn, at)
    }

    fn on_stall_tick(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn) -> StallVerdict {
        GoBackN.on_stall_tick(ctx, psn)
    }

    fn on_fault_resolved(
        &mut self,
        ctx: &RetransmitCtx<'_>,
        stalled: &mut dyn Iterator<Item = Psn>,
    ) -> RecoveryPlan {
        GoBackN.on_fault_resolved(ctx, stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queued READ that a policy will see as the given [`WrView`].
    fn view(first: u32, last: u32, sent: bool, done: bool, acked: bool, ghosted: bool) -> SendWqe {
        SendWqe {
            acked,
            ghosted,
            ..SendWqe::read_for_test(Psn::new(first), last - first + 1, sent, done)
        }
    }

    type Sq = VecDeque<SendWqe>;

    fn ctx_of(sq: &Sq) -> RetransmitCtx<'_> {
        RetransmitCtx::new(sq, SimTime::ZERO)
    }

    #[test]
    fn kind_display_parse_round_trip() {
        for k in RecoveryKind::ALL {
            assert_eq!(k.to_string().parse::<RecoveryKind>(), Ok(k));
        }
        assert_eq!(RecoveryKind::default(), RecoveryKind::GoBackN);
        assert!("gobackn".parse::<RecoveryKind>().is_err());
        assert!("".parse::<RecoveryKind>().is_err());
    }

    #[test]
    fn sack_marks_and_holes_mid_space() {
        let mut s = SackBitmap::new(Psn::new(100));
        assert!(s.mark(Psn::new(100)));
        assert!(s.mark(Psn::new(102)));
        assert!(!s.mark(Psn::new(102)), "double mark is not new");
        assert!(s.is_marked(Psn::new(100)));
        assert!(!s.is_marked(Psn::new(101)));
        assert!(!s.all_marked(Psn::new(100), Psn::new(102)));
        s.mark(Psn::new(101));
        assert!(s.all_marked(Psn::new(100), Psn::new(102)));
        // Behind the base counts as delivered (retired).
        assert!(s.is_marked(Psn::new(50)));
        // Beyond the half-range window is rejected.
        assert!(!s.mark(Psn::new(100).add(SackBitmap::WINDOW)));
    }

    #[test]
    fn sack_window_walk_across_24_bit_wrap() {
        // A 32-PSN window whose head sits just below 0xFF_FFFF and whose
        // tail wraps to small values, mirroring the Psn window-walk pin.
        let base = Psn::new(0xFF_FFF8);
        let mut s = SackBitmap::new(base);
        for n in 0..32 {
            assert!(s.mark(base.add(n)), "mark {n} across the wrap");
        }
        for n in 0..32 {
            assert!(s.is_marked(base.add(n)), "marked {n} across the wrap");
        }
        assert!(s.all_marked(base, base.add(31)));
        // Hole negative: clear evidence survives the wrap. A fresh map
        // with one missing PSN right at the boundary reports the hole.
        let mut holed = SackBitmap::new(base);
        for n in 0..32 {
            if n != 8 {
                holed.mark(base.add(n));
            }
        }
        assert_eq!(base.add(8), Psn::new(0), "the hole is exactly at wrap");
        assert!(!holed.all_marked(base, base.add(31)));
        assert!(holed.all_marked(base, base.add(7)));
        assert!(holed.all_marked(base.add(9), base.add(31)));
    }

    #[test]
    fn sack_advance_prunes_and_prevents_epoch_reuse() {
        let base = Psn::new(0xFF_FFC0);
        let mut s = SackBitmap::new(base);
        for n in 0..128 {
            s.mark(base.add(n));
        }
        assert!(s.word_count() >= 2);
        // Retire across the wrap: everything before PSN 16 goes away.
        s.advance_to(Psn::new(16));
        assert_eq!(s.base(), Psn::new(16));
        assert!(s.is_marked(Psn::new(5)), "behind base counts as retired");
        assert!(s.is_marked(Psn::new(16)));
        assert!(s.is_marked(base.add(127)));
        // Reuse negative: a full epoch later the same numeric PSNs come
        // around again. Walk the base forward in sub-half-range steps
        // (serial arithmetic caps a single advance at the horizon);
        // after passing them the old marks must read as holes, not as
        // stale marks from the previous epoch.
        s.advance_to(Psn::new(64));
        s.advance_to(Psn::new(0x40_0000));
        s.advance_to(Psn::new(0x80_0000));
        s.advance_to(Psn::new(0xC0_0000));
        s.advance_to(Psn::new(0xFF_FF00));
        assert!(
            !s.is_marked(Psn::new(0xFF_FFC8)),
            "pruned epoch must not alias"
        );
        assert_eq!(s.word_count(), 0, "all words pruned");
        // Backwards advance is a no-op.
        s.advance_to(Psn::new(0xFF_0000));
        assert_eq!(s.base(), Psn::new(0xFF_FF00));
    }

    #[test]
    fn sack_partial_boundary_word_is_cleared() {
        let mut s = SackBitmap::new(Psn::new(0));
        for n in 0..10 {
            s.mark(Psn::new(n));
        }
        s.advance_to(Psn::new(5));
        // 0..5 retired (reads delivered via the base), 5..10 still
        // explicit marks, and the word holds only the surviving bits.
        assert!(s.is_marked(Psn::new(3)));
        assert!(s.is_marked(Psn::new(7)));
        assert_eq!(s.word_count(), 1);
        s.advance_to(Psn::new(10));
        assert_eq!(s.word_count(), 0);
    }

    #[test]
    fn go_back_n_retransmits_everything_from_hole() {
        let wrs = Sq::from([
            view(0, 0, true, true, true, false),    // done: skipped
            view(1, 2, true, false, false, false),  // pending
            view(3, 3, true, false, true, false),   // acked but not done (READ)
            view(4, 5, false, false, false, false), // never sent: skipped
        ]);
        let mut p = GoBackN;
        let plan = p.on_timeout(&ctx_of(&wrs), Psn::new(1));
        assert_eq!(plan.retransmit, vec![Psn::new(1), Psn::new(3)]);
        // From a later hole, earlier spans are skipped.
        let plan = p.on_seq_nak(&ctx_of(&wrs), Psn::new(3), Psn::new(5));
        assert_eq!(plan.retransmit, vec![Psn::new(3)]);
    }

    #[test]
    fn go_back_n_rnr_skips_ghosts_only_on_damming() {
        let wrs = Sq::from([
            view(0, 0, true, false, false, false),
            view(1, 1, true, false, false, true), // ghosted successor
        ]);
        let mut p = GoBackN;
        let flawed = p.on_rnr_expire(&ctx_of(&wrs), Psn::new(0), true);
        assert_eq!(flawed.retransmit, vec![Psn::new(0)], "ghost forgotten");
        let sane = p.on_rnr_expire(&ctx_of(&wrs), Psn::new(0), false);
        assert_eq!(sane.retransmit, vec![Psn::new(0), Psn::new(1)]);
    }

    #[test]
    fn go_back_n_stall_tick_reads_no_views() {
        // The flood's hot decision: the blind tick resends without
        // looking, so the borrowed context must cost nothing however
        // deep the queue is; a timeout over the same queue reads it all.
        let wrs: Sq = (0..1000)
            .map(|p| view(p, p, true, p != 0, true, false))
            .collect();
        let ctx = ctx_of(&wrs);
        let tick = GoBackN.on_stall_tick(&ctx, Psn::new(0));
        assert!(tick.retransmit && tick.rearm);
        assert_eq!(ctx.views_built(), 0, "stall tick materialised views");
        assert!(GoBackN
            .on_fault_resolved(&ctx, &mut std::iter::once(Psn::new(0)))
            .is_empty());
        assert_eq!(ctx.views_built(), 0, "deaf resume materialised views");
        let plan = GoBackN.on_timeout(&ctx, Psn::new(0));
        assert_eq!(plan.retransmit, vec![Psn::new(0)]);
        assert_eq!(ctx.views_built(), 1000);
        // A lookup by first PSN builds the one view it returns.
        let ctx = ctx_of(&wrs);
        assert!(ctx.wr(Psn::new(700)).is_some_and(|w| w.done));
        assert!(ctx.wr(Psn::new(1000)).is_none());
        assert_eq!(ctx.views_built(), 1);
    }

    #[test]
    fn selective_repeat_skips_delivered_messages() {
        let wrs = Sq::from([
            view(0, 1, true, false, false, false),
            view(2, 3, true, false, false, false),
            view(4, 4, true, false, false, false),
        ]);
        let mut p = SelectiveRepeat::new();
        // The middle message was fully delivered (responses consumed).
        p.note_delivered(Psn::new(2));
        p.note_delivered(Psn::new(3));
        let plan = p.on_timeout(&ctx_of(&wrs), Psn::new(0));
        assert_eq!(
            plan.retransmit,
            vec![Psn::new(0), Psn::new(4)],
            "delivered message not retransmitted"
        );
        // Seq NAK skips the bitmap-covered middle but still replans the
        // undelivered tail: the responder dropped or silently absorbed
        // everything past the hole.
        let plan = p.on_seq_nak(&ctx_of(&wrs), Psn::new(0), Psn::new(2));
        assert_eq!(plan.retransmit, vec![Psn::new(0), Psn::new(4)]);
    }

    #[test]
    fn selective_repeat_acked_message_never_replanned() {
        let wrs = Sq::from([
            view(0, 0, true, false, true, false), // acked
            view(1, 1, true, false, false, false),
        ]);
        let mut p = SelectiveRepeat::new();
        let plan = p.on_timeout(&ctx_of(&wrs), Psn::new(0));
        assert_eq!(plan.retransmit, vec![Psn::new(1)]);
    }

    #[test]
    fn selective_repeat_resumes_stalls_on_fault_resolution() {
        let wrs = Sq::from([
            view(0, 0, true, false, false, false),
            view(1, 1, true, true, true, false), // completed since stalling
        ]);
        let mut p = SelectiveRepeat::new();
        assert!(!p.arms_blind_stall());
        let plan = p.on_fault_resolved(&ctx_of(&wrs), &mut [Psn::new(0), Psn::new(1)].into_iter());
        assert_eq!(plan.retransmit, vec![Psn::new(0)], "done stall dropped");
        let tick = p.on_stall_tick(&ctx_of(&wrs), Psn::new(0));
        assert!(!tick.retransmit && !tick.rearm);
    }

    #[test]
    fn on_demand_pin_recovers_like_sane_go_back_n() {
        let wrs = Sq::from([
            view(0, 0, true, false, false, false),
            view(1, 1, true, false, false, true), // ghost flag would be skipped by CX-4
        ]);
        let mut pin = OnDemandPin;
        assert!(!pin.ghost_quirks());
        let plan = pin.on_rnr_expire(&ctx_of(&wrs), Psn::new(0), true);
        assert_eq!(
            plan.retransmit,
            vec![Psn::new(0), Psn::new(1)],
            "pin model never forgets ghosts even on damming profiles"
        );
    }

    #[test]
    fn trait_conformance_matrix_all_backends() {
        // Every backend, fed the same event stream through the
        // object-safe trait, must (a) only ever plan transmitted,
        // unfinished messages, (b) be deterministic across a fresh
        // replay, and (c) answer the capability probes consistently.
        let wrs = Sq::from([
            view(0, 1, true, false, false, false),
            view(2, 2, true, true, true, false),
            view(3, 4, true, false, false, true),
            view(5, 5, false, false, false, false),
        ]);
        for kind in RecoveryKind::ALL {
            let run = |mut p: Box<dyn RecoveryPolicy>| {
                assert_eq!(p.kind(), kind);
                p.note_delivered(Psn::new(0));
                p.note_message_delivered(Psn::new(2), Psn::new(2));
                p.note_retired(Psn::new(2));
                let mut plans = vec![
                    p.on_timeout(&ctx_of(&wrs), Psn::new(0)),
                    p.on_rnr_expire(&ctx_of(&wrs), Psn::new(0), true),
                    p.on_rnr_expire(&ctx_of(&wrs), Psn::new(0), false),
                    p.on_seq_nak(&ctx_of(&wrs), Psn::new(0), Psn::new(3)),
                    p.on_fault_resolved(&ctx_of(&wrs), &mut [Psn::new(0)].into_iter()),
                ];
                let tick = p.on_stall_tick(&ctx_of(&wrs), Psn::new(0));
                if tick.retransmit {
                    plans.push(RecoveryPlan::messages(vec![Psn::new(0)]));
                }
                plans
            };
            let a = run(policy_for(kind));
            let b = run(policy_for(kind));
            assert_eq!(a, b, "{kind}: decisions must be deterministic");
            for plan in &a {
                for psn in &plan.retransmit {
                    let w = ctx_of(&wrs)
                        .wr(*psn)
                        .expect("invariant: plans name known messages");
                    assert!(w.pending(), "{kind}: planned a done or never-sent message");
                }
            }
            let p = policy_for(kind);
            assert_eq!(p.ghost_quirks(), kind == RecoveryKind::GoBackN);
            assert_eq!(p.cumulative_ack(), kind != RecoveryKind::SelectiveRepeat);
        }
    }
}
