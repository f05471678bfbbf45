//! # ibsim-fabric
//!
//! The physical-network substrate of the `ibsim` InfiniBand simulator:
//! hosts, routed switch topologies (crossbar, fat-tree, ring, dragonfly)
//! as the closed, self-routing [`TopologyKind`], LID-based routing, link
//! latency/bandwidth with per-port and per-hop FIFO serialization,
//! optional ECN marking, deterministic loss injection,
//! and an `ibdump`-style packet capture facility.
//!
//! The fabric is a *pure timing model*: callers (the verbs layer) ask it
//! when a frame of a given size sent now from one LID to another would be
//! delivered, and schedule the delivery event themselves. This keeps the
//! crate independent of both the event engine's world type and the
//! transport packet format.
//!
//! # Examples
//!
//! ```
//! use ibsim_event::SimTime;
//! use ibsim_fabric::{Delivery, Fabric, LinkSpec};
//!
//! let mut fabric = Fabric::new(LinkSpec::fdr());
//! let a = fabric.add_host("client");
//! let b = fabric.add_host("server");
//! match fabric.transit(SimTime::ZERO, a, b, 256) {
//!     Delivery::Deliver { at, .. } => assert!(at > SimTime::ZERO),
//!     Delivery::Dropped(reason) => panic!("unexpected drop: {reason}"),
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::float_arithmetic)]

mod capture;
mod loss;
mod routing;
mod topology;

pub use capture::{Capture, Captured, Direction};
pub use loss::{LossModel, Xorshift64Star};
pub use routing::{DirectedLink, RouteNode, SwitchId, TopologyKind};
pub use topology::{
    Delivery, DropReason, Fabric, InterLinkStats, Lid, LinkSpec, LinkSpecError, LinkStats,
};
