//! The standard InfiniBand micro-benchmarks (`ib_read_lat`, `ib_read_bw`,
//! `ib_write_bw`, `ib_send_lat` of the `perftest` suite) for the `ibsim`
//! simulator, with the ODP knobs the real suite mostly lacks — the
//! tooling gap the paper's investigation had to fill with hand-written
//! benchmarks.
//!
//! Each benchmark is one [`Scenario`](ibsim_scenario::Scenario) cell
//! ([`PerfConfig::cell`]) run by the scenario executor, so the
//! differential oracle can check the same world the report reads.
//!
//! # Examples
//!
//! ```
//! use ibsim_bench::perftest::{read_lat, PerfConfig};
//!
//! let report = read_lat(&PerfConfig {
//!     iterations: 100,
//!     ..PerfConfig::default()
//! });
//! // Pinned latency is a few µs round-trip.
//! assert!(report.avg.as_us_f64() < 10.0);
//! ```

mod runner;
mod stats;

pub use runner::{
    latencies, read_bw, read_lat, send_lat, write_bw, BwReport, PerfConfig, PerfTest,
};
pub use stats::LatencyReport;
