//! # ibsim
//!
//! Facade crate re-exporting the full `ibsim` workspace: a packet-level
//! InfiniBand Reliable Connection + On-Demand Paging simulator that
//! reproduces the ISPASS 2021 study *Pitfalls of InfiniBand with On-Demand
//! Paging* (Fukuoka, Sato, Taura).
//!
//! See the sub-crate docs for details:
//!
//! * [`event`] — deterministic discrete-event kernel,
//! * [`fabric`] — LIDs, routed switch topologies, per-hop transit, loss
//!   injection, capture,
//! * [`verbs`] — packets, memory regions, RC queue pairs, the ODP driver
//!   and the verbs API,
//! * [`odp`] — the paper's apparatus: Table I systems, the figures as
//!   families of Fig. 3 scenarios, §IX-A workarounds, registration caches,
//! * [`ucp`] — UCX-like messaging/RMA layer,
//! * [`dsm`] — ArgoDSM-like distributed shared memory,
//! * [`shuffle`] — SparkUCX-like shuffle engine,
//! * [`telemetry`] — metric registry, fault-lifecycle spans, exporters,
//! * [`analysis`] — the one reader of captures (RC trace linter, pitfall
//!   signatures, Fig. 1/5/8 timeline, traffic count) and packet
//!   conservation,
//! * [`scenario`] — seeded fault-schedule fuzzing with a differential RC
//!   oracle, a failing-seed minimizer, and a parallel conformance runner.
//!
//! Runtime invariants (QP state-machine legality, event-clock
//! monotonicity) are checked in every build; violations are counted,
//! never panicking, and surface in the usual counter reports.

#![warn(missing_docs)]

pub use ibsim_analysis as analysis;
pub use ibsim_dsm as dsm;
pub use ibsim_event as event;
pub use ibsim_fabric as fabric;
pub use ibsim_odp as odp;
pub use ibsim_scenario as scenario;
pub use ibsim_shuffle as shuffle;
pub use ibsim_telemetry as telemetry;
pub use ibsim_ucp as ucp;
pub use ibsim_verbs as verbs;
