//! The effects pipeline: everything a transport engine wants to happen,
//! as a value.
//!
//! Handlers in [`requester`](super::requester), [`responder`](super::responder)
//! and [`fault`](super::fault) never touch the event engine, the fabric or
//! the driver directly — they emit packets, completions, timer operations
//! and fault work into one [`Effects`] value (the successor of the old
//! `Outbox`), and the cluster interprets it deterministically. This keeps
//! every protocol rule unit-testable without an event loop, and gives
//! future sharded executors a single, inspectable hand-off point: the
//! telemetry hooks (work-request completion records, fault-span records,
//! per-packet counters) are all derived from the `Effects` stream by the
//! router, never recorded inside an engine.
//!
//! Timer effects name engine slots ([`TimerFamily::key`]): a timer's
//! identity is its keyed slot; a handler that clears a wait cancels its
//! key in the same turn; nothing else guards a stale fire.

use ibsim_event::{SimTime, TimerKey};

use crate::packet::Packet;
use crate::types::{HostId, MrKey, Psn, Qpn};
use crate::wr::Completion;

/// The three per-QP protocol timer families, multiplexed onto the
/// engine's keyed timer table. Each family has at most one live event
/// per (host, QP[, PSN]) slot: arming an armed slot replaces the old
/// event, so a re-arm leaves nothing behind to fire late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerFamily {
    /// Transport ACK timeout (`T_o`), one slot per (host, QP).
    Ack,
    /// RNR wait expiry, one slot per (host, QP).
    Rnr,
    /// Client-side ODP blind-retransmit tick, one slot per
    /// (host, QP, stalled message PSN).
    Stall,
}

impl TimerFamily {
    /// Packs the family, host, QP and auxiliary discriminator (the
    /// stalled message PSN for [`TimerFamily::Stall`], zero otherwise)
    /// into an engine [`TimerKey`].
    pub fn key(self, host: HostId, qpn: Qpn, aux: u32) -> TimerKey {
        let fam = match self {
            TimerFamily::Ack => 0u64,
            TimerFamily::Rnr => 1,
            TimerFamily::Stall => 2,
        };
        TimerKey(
            (fam << 48) | host.0 as u64,
            ((qpn.0 as u64) << 32) | aux as u64,
        )
    }
}

/// Timer arms and cancels emitted by the engines, one slot per
/// [`TimerFamily`]. The ACK and RNR slots collapse (an arm overwrites an
/// earlier arm in the same handler turn, and a later cancel wins over an
/// earlier arm) exactly like the keyed timer table they are routed into,
/// so a handler that arms and then cancels produces *no* scheduled event
/// — not a schedule-then-cancel pair — keeping engine queue statistics
/// byte-identical across refactors. A cancel followed by an arm stays
/// both: the router cancels the slot, then posts into it.
#[derive(Debug, Default)]
pub struct TimerEffects {
    /// Arm (or re-arm) the ACK timeout; the router derives the delay
    /// from the device profile and §VI-C timer load.
    pub arm_ack: bool,
    /// Cancel any armed ACK timeout.
    pub cancel_ack: bool,
    /// Start an RNR wait timer with this delay.
    pub arm_rnr: Option<SimTime>,
    /// Cancel any armed RNR wait timer (the wait resolved early, e.g. a
    /// sequence-error NAK or QP teardown); without this the stale event
    /// sits in the heap for the full advertised delay.
    pub cancel_rnr: bool,
    /// Schedule ODP blind-retransmit ticks: (message PSN, delay).
    pub arm_stalls: Vec<(Psn, SimTime)>,
    /// Cancel the blind-retransmit tick of these stalled messages (the
    /// stall resolved before its next tick).
    pub cancel_stalls: Vec<Psn>,
}

impl TimerEffects {
    /// Clears every slot while keeping the stall vectors' capacity, so a
    /// pooled [`Effects`] value re-arms without reallocating.
    pub fn reset(&mut self) {
        self.arm_ack = false;
        self.cancel_ack = false;
        self.arm_rnr = None;
        self.cancel_rnr = false;
        self.arm_stalls.clear();
        self.cancel_stalls.clear();
    }

    /// True if no timer operation was emitted.
    pub fn is_quiet(&self) -> bool {
        !self.arm_ack
            && !self.cancel_ack
            && self.arm_rnr.is_none()
            && !self.cancel_rnr
            && self.arm_stalls.is_empty()
            && self.cancel_stalls.is_empty()
    }
}

/// Deferred effects produced by a QP engine, interpreted by the cluster
/// router: packets to transmit, completions to deliver, timer operations
/// keyed by [`TimerFamily`], and fault work for the driver.
#[derive(Debug, Default)]
pub struct Effects {
    /// Packets to put on the wire, in order.
    pub packets: Vec<Packet>,
    /// Completions to append to the host CQ, each beside its work
    /// request's post time (`None` for a receive): the router's
    /// post-to-completion latency sample.
    pub completions: Vec<(Completion, Option<SimTime>)>,
    /// Timer arms and cancels, per family.
    pub timers: TimerEffects,
    /// Network page faults to hand to the driver.
    pub faults: Vec<(MrKey, usize)>,
    /// Requester-side per-QP fault waits to register (flood bookkeeping).
    pub fault_waits: Vec<(MrKey, usize)>,
    /// Driver interrupt work units generated (discarded duplicates).
    pub irqs: u32,
}

impl Effects {
    /// Creates an empty effects value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every field while keeping the vectors' capacity.
    ///
    /// The cluster router pools `Effects` values across handler turns
    /// (one turn previously built six fresh `Vec`s); after draining, a
    /// `reset` returns the value to the pool warm, so steady-state turns
    /// perform no allocation at all.
    pub fn reset(&mut self) {
        self.packets.clear();
        self.completions.clear();
        self.timers.reset();
        self.faults.clear();
        self.fault_waits.clear();
        self.irqs = 0;
    }

    /// True if the handler produced no effects.
    pub fn is_quiet(&self) -> bool {
        self.packets.is_empty()
            && self.completions.is_empty()
            && self.timers.is_quiet()
            && self.faults.is_empty()
            && self.fault_waits.is_empty()
            && self.irqs == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_effects_are_quiet() {
        let fx = Effects::new();
        assert!(fx.is_quiet());
        assert!(fx.timers.is_quiet());
    }

    #[test]
    fn any_field_breaks_quiet() {
        let mut fx = Effects::new();
        fx.irqs = 1;
        assert!(!fx.is_quiet());
        let mut fx = Effects::new();
        fx.timers.cancel_ack = true;
        assert!(!fx.is_quiet());
        let mut fx = Effects::new();
        fx.timers.arm_stalls.push((Psn::new(3), SimTime::ZERO));
        assert!(!fx.is_quiet());
        let mut fx = Effects::new();
        fx.faults.push((MrKey(1), 0));
        assert!(!fx.is_quiet());
    }

    #[test]
    fn reset_clears_everything_and_keeps_capacity() {
        let mut fx = Effects::new();
        fx.completions.reserve(8);
        fx.timers.arm_ack = true;
        fx.timers.cancel_rnr = true;
        fx.timers.arm_stalls.push((Psn::new(3), SimTime::ZERO));
        fx.timers.cancel_stalls.push(Psn::new(9));
        fx.faults.push((MrKey(1), 0));
        fx.fault_waits.push((MrKey(1), 1));
        fx.irqs = 2;
        assert!(!fx.is_quiet());
        let cap = fx.completions.capacity();
        fx.reset();
        assert!(fx.is_quiet());
        assert!(fx.timers.is_quiet());
        assert_eq!(fx.completions.capacity(), cap);
    }

    #[test]
    fn timer_keys_separate_families_and_slots() {
        let h = HostId(3);
        let q = Qpn(7);
        let ack = TimerFamily::Ack.key(h, q, 0);
        let rnr = TimerFamily::Rnr.key(h, q, 0);
        let s1 = TimerFamily::Stall.key(h, q, 1);
        let s2 = TimerFamily::Stall.key(h, q, 2);
        assert_ne!(ack, rnr);
        assert_ne!(s1, s2);
        assert_ne!(ack, TimerFamily::Ack.key(HostId(4), q, 0));
        assert_ne!(ack, TimerFamily::Ack.key(h, Qpn(8), 0));
    }
}
