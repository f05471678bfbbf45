//! # ibsim-ucp
//!
//! A UCX-shaped communication layer over the `ibsim` verbs: workers,
//! endpoints, one-sided `get`/`put`, and tagged two-sided messaging with
//! eager and READ-based rendezvous protocols.
//!
//! The layer mirrors the UCX build the paper evaluated (§VII): ODP
//! preferred for application memory, minimal RNR NAK delay of 0.96 ms,
//! `C_ack = 18`. The one option, [`UcpConfig::odp`], is exactly the
//! "ODP enabled / disabled" toggle of Figures 12 and 13; the rest are
//! constants of the protocol.

#![warn(missing_docs)]

mod proto;
#[allow(clippy::module_inception)]
mod ucp;

pub use proto::{EpId, MemSlice, ReqId, ReqKind, Tag, UcpCompletion};
pub use ucp::{Callback, Ucp, UcpConfig};
