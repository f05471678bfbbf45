//! Sizes of the values the simulator holds by the thousand. These are
//! upper bounds, not pins: a type may shrink freely, and growing one is
//! a decision to take here, with its reason, instead of a surprise in
//! `peak_rss_mib` (an `Instrument` that stored its 64 histogram buckets
//! inline was 552 bytes, and 83 852 of them were two thirds of the
//! `wide` workload's resident memory). One such value is private to
//! another crate and bounded beside its definition instead: `ibsim-ucp`'s
//! role slot, one per posted ring receive (`crates/ucp/src/ucp/tests.rs`).

use std::mem::size_of;

use ibsim_telemetry::Instrument;
use ibsim_verbs::{ClusterEvent, Packet, Payload, Qp, SackBitmap};

#[test]
fn hot_values_stay_within_their_size_bounds() {
    // A tag and one word: counters and gauges are a `u64`, the rare
    // histogram is a box. One per registered (name, labels) pair.
    assert!(size_of::<Instrument>() <= 16);
    // One per pending event, in the engine's slot arena; the largest
    // variant carries a `Packet` by value.
    assert!(size_of::<ClusterEvent>() <= 72);
    // One per frame in flight and per capture record.
    assert!(size_of::<Packet>() <= 64);
    // Inside every data packet: two page pointers, an offset and a
    // length — no larger than the `Vec<u8>` it replaced, so sharing the
    // sender's pages costs `Packet` and `ClusterEvent` nothing.
    assert!(size_of::<Payload>() <= 24);
    // One per queue pair (`shuffle` holds 5.7 k, `wide` 4 k). The
    // recovery backend is a kind with selective repeat's bitmap header
    // held inline (40 bytes where a `Box<dyn _>` took 16), which spares
    // every selective-repeat QP an allocation and every backend the
    // pointer chase per ACK; the timers keep one `bool` and one
    // `Option<Psn>` between them, their identity being the engine's
    // keyed slots. Its two page sets (stale pages, blocked source pages)
    // are per-region bitsets behind one `Vec`, 24 bytes like the
    // `BTreeSet`s they replaced, and the SACK words one `Vec` from the
    // base like the `BTreeMap` before it: so `Qp` kept its size. A page
    // set with a length beside its `Vec` would not fit.
    assert!(size_of::<Qp>() <= 488);
    // Inside every `Qp`: a base PSN and the dense run of words from it.
    assert!(size_of::<SackBitmap>() <= 32);
}
