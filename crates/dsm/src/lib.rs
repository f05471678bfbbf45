//! # ibsim-dsm
//!
//! An ArgoDSM-like \[22\] home-node software distributed shared memory over
//! the simulated UCX layer: block-partitioned global memory, page-granular
//! caching with release-time self-invalidation, write-through to home
//! nodes, a message-based global lock, and the `init`/`finalize`
//! benchmark the paper uses in Fig. 12 to show packet damming escaping
//! into a real system.
//!
//! # Examples
//!
//! Fig. 12 in miniature: without ODP every `init` + `finalize` trial is
//! compute-bound; with ODP some trials dam and wait out the ~2 s
//! transport timeout of UCX's `C_ack = 18`:
//!
//! ```
//! use ibsim_dsm::{init_finalize_histogram, DsmConfig};
//! use ibsim_event::SimTime;
//!
//! let cfg = |odp| DsmConfig {
//!     odp,
//!     compute_base: SimTime::from_ms(100),
//!     compute_jitter: SimTime::from_ms(10),
//!     ..DsmConfig::default()
//! };
//! let pinned = init_finalize_histogram(&cfg(false), 12);
//! assert!(pinned.iter().all(|t| *t < SimTime::from_ms(130)));
//! let odp = init_finalize_histogram(&cfg(true), 12);
//! assert!(odp.iter().any(|t| *t > SimTime::from_ms(1900)));
//! ```

#![warn(missing_docs)]

pub mod bench;
mod config;
mod dsm;

pub use bench::{init_finalize_histogram, init_finalize_once, mean};
pub use config::DsmConfig;
pub use dsm::{Dsm, DsmStats};
