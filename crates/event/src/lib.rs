//! # ibsim-event
//!
//! Deterministic discrete-event simulation (DES) kernel for the `ibsim`
//! family of crates, which together form a packet-level InfiniBand /
//! On-Demand-Paging simulator.
//!
//! The kernel is deliberately tiny: a virtual clock ([`SimTime`]) and an
//! event queue ([`Engine`]) over a user-supplied *world* type. An event
//! is a value implementing [`Event`]: by default a boxed closure
//! ([`Call`]), as below; a model with a closed set of hot events names
//! them in an enum that lives in the queue's slot arena, so scheduling
//! one allocates nothing. Determinism guarantees:
//!
//! * integer nanosecond timestamps — no floating-point drift,
//! * ties broken by insertion order — no hash-iteration nondeterminism,
//! * single-threaded execution — no scheduler races.
//!
//! # Examples
//!
//! A two-node "ping" that bounces a counter back and forth:
//!
//! ```
//! use ibsim_event::{Engine, SimTime};
//!
//! struct World { pings: u32 }
//!
//! fn ping(w: &mut World, eng: &mut Engine<World>) {
//!     w.pings += 1;
//!     if w.pings < 3 {
//!         eng.schedule_in(SimTime::from_us(2), ping);
//!     }
//! }
//!
//! let mut eng = Engine::new();
//! eng.schedule_at(SimTime::ZERO, ping);
//! let mut world = World { pings: 0 };
//! eng.run(&mut world);
//! assert_eq!(world.pings, 3);
//! assert_eq!(eng.now(), SimTime::from_us(4));
//! ```

#![warn(missing_docs)]
#![deny(clippy::float_arithmetic)]

mod engine;
mod rng;
mod shard;
mod time;

pub use engine::{Call, Engine, Event, EventFn, EventId, QueueStats, TimerKey};
pub use rng::SplitMix64;
pub use shard::{epoch_end, injection_sort_key, EpochBarrier, PoisonGuard, POISON_PAYLOAD};
pub use time::SimTime;
