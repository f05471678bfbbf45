//! # ibsim-dsm
//!
//! An ArgoDSM-like \[22\] home-node software distributed shared memory over
//! the simulated UCX layer: block-partitioned global memory, page-granular
//! caching with release-time self-invalidation, write-through to home
//! nodes, a message-based global lock, and the `init`/`finalize`
//! benchmark the paper uses in Fig. 12 to show packet damming escaping
//! into a real system.

#![warn(missing_docs)]

pub mod bench;
mod config;
mod dsm;

pub use bench::{init_finalize_histogram, init_finalize_once, mean};
pub use config::DsmConfig;
pub use dsm::{Dsm, DsmStats};
