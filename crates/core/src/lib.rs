//! # ibsim-odp
//!
//! The core of the `ibsim` reproduction of *Pitfalls of InfiniBand with
//! On-Demand Paging* (Fukuoka, Sato, Taura — ISPASS 2021): the paper's
//! experimental apparatus as a library. It reads no capture: the
//! analysis of a run's packets is `ibsim-analysis`'s.
//!
//! * [`systems`] — the eight InfiniBand systems of Table I/II as
//!   simulator device profiles.
//! * [`experiment`] — the figures of §V–§VI as families of the Fig. 3
//!   micro-benchmark ([`Scenario::fig3_loop`](ibsim_scenario::Scenario::fig3_loop)
//!   settings), run through the scenario executor, plus Fig. 2's
//!   mis-addressed QP (Figs. 1, 5 and 8 are captures, which the
//!   `ibsim-bench` bins render through `ibsim-analysis`).
//! * [`workaround`] — the §IX-A software mitigations (smallest RNR delay,
//!   periodic dummy communication, fresh-QP re-issue).
//! * [`regcache`] — the manual alternatives ODP competes against
//!   (register-per-transfer, Tezuka-style pin-down cache, §VIII-A).
//! * [`microbench`] — the ODP sides of the loop, and a wrapper kept for
//!   the repository benchmark.
//!
//! # Examples
//!
//! Reproduce the headline §V-A result — two ODP READs a millisecond apart
//! stall for hundreds of milliseconds:
//!
//! ```
//! use ibsim_event::SimTime;
//! use ibsim_odp::experiment::timed_out;
//! use ibsim_scenario::{run_scenario, Scenario};
//!
//! let run = run_scenario(&Scenario::damming_probe());
//! assert!(timed_out(&run));
//! assert!(run.execution_time() > SimTime::from_ms(400));
//! ```

#![warn(missing_docs)]
#![deny(clippy::float_arithmetic)]

pub mod experiment;
pub mod microbench;
pub mod regcache;
pub mod systems;
pub mod workaround;

// The trace-identity hash, which the repository benchmark's digests name
// through this crate.
pub use ibsim_event::fnv1a;
pub use microbench::*;
pub use regcache::{deregistration_cost, registration_cost, PinDownCache, RegCacheStats};
pub use systems::SystemProfile;
pub use workaround::{install_dummy_reads, reissue_read, smallest_rnr_delay};
