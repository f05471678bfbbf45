//! # ibsim-shuffle
//!
//! A SparkUCX-like \[21\] RDMA shuffle engine over the simulated UCX layer:
//! map tasks register their output blocks, reduce tasks fetch them with
//! one-sided READs over hundreds of QPs. With ODP enabled this reproduces
//! the packet-flood degradation the paper measures in Fig. 13; workload
//! presets shaped like the paper's three Spark examples live in
//! [`presets`].
//!
//! # Examples
//!
//! The same shuffle with ODP off and on: both move every block intact,
//! and the ODP run is slower and sends more packets:
//!
//! ```
//! use ibsim_event::SimTime;
//! use ibsim_shuffle::{run_shuffle, ShuffleConfig};
//!
//! let cfg = |odp| ShuffleConfig {
//!     odp,
//!     block_bytes: 256,
//!     endpoints_per_pair: 32,
//!     setup_compute: SimTime::from_ms(1),
//!     ..ShuffleConfig::default()
//! };
//! let (pinned, odp) = (run_shuffle(&cfg(false)), run_shuffle(&cfg(true)));
//! assert!(pinned.data_ok && odp.data_ok);
//! assert!(odp.duration > pinned.duration);
//! assert!(odp.packets > pinned.packets);
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
pub mod presets;

pub use config::ShuffleConfig;
pub use engine::{run_shuffle, ShuffleReport};
