//! # ibsim-odp
//!
//! The core of the `ibsim` reproduction of *Pitfalls of InfiniBand with
//! On-Demand Paging* (Fukuoka, Sato, Taura — ISPASS 2021): the paper's
//! experimental apparatus as a library. It reads no capture: the
//! analysis of a run's packets is `ibsim-analysis`'s.
//!
//! * [`systems`] — the eight InfiniBand systems of Table I/II as
//!   simulator device profiles.
//! * [`microbench`] — the Fig. 3 micro-benchmark, parameterized exactly
//!   like the paper's C code.
//! * [`experiment`] — figure-level runners regenerating the data behind
//!   Figures 2–11 (Figs. 1, 5 and 8 are captures, which the `ibsim-bench`
//!   bins render through `ibsim-analysis`).
//! * [`workaround`] — the §IX-A software mitigations (smallest RNR delay,
//!   periodic dummy communication, fresh-QP re-issue).
//! * [`regcache`] — the manual alternatives ODP competes against
//!   (register-per-transfer, Tezuka-style pin-down cache, §VIII-A).
//! * [`hash`] — the FNV-1a trace-identity digest shared by every
//!   byte-identity gate in the workspace.
//!
//! # Examples
//!
//! Reproduce the headline §V-A result — two ODP READs a millisecond apart
//! stall for hundreds of milliseconds:
//!
//! ```
//! use ibsim_event::SimTime;
//! use ibsim_odp::microbench::{run_microbench, MicrobenchConfig};
//!
//! let run = run_microbench(&MicrobenchConfig {
//!     interval: SimTime::from_ms(1),
//!     ..Default::default()
//! });
//! assert!(run.timed_out());
//! assert!(run.execution_time > SimTime::from_ms(400));
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod hash;
pub mod microbench;
pub mod regcache;
pub mod systems;
pub mod workaround;

pub use experiment::{
    fig11_curves, fig2_curve, fig4_series, fig6_series, fig7_series, fig9_points, Fig11Curve,
    Fig2Point, Fig4Point, Fig9Point, TimeoutSeries,
};
pub use hash::{fnv1a, fnv1a_str};
pub use microbench::{
    average_execution, run_microbench, run_microbench_plan, timeout_probability, MicrobenchConfig,
    MicrobenchDigest, MicrobenchRun, OdpMode,
};
pub use regcache::{deregistration_cost, registration_cost, PinDownCache, RegCacheStats};
pub use systems::SystemProfile;
pub use workaround::{install_dummy_reads, reissue_read, smallest_rnr_delay};
