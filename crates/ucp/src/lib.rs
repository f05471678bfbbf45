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
//!
//! # Examples
//!
//! ODP is on by default. One `get` with the toggle on and off lands the
//! same bytes; only the ODP run waits out a network page fault:
//!
//! ```
//! use ibsim_event::{Engine, SimTime};
//! use ibsim_fabric::LinkSpec;
//! use ibsim_ucp::{MemSlice, Ucp, UcpConfig};
//! use ibsim_verbs::{Cluster, DeviceProfile};
//!
//! assert!(UcpConfig::default().odp);
//! let get = |odp: bool| {
//!     let mut eng = Engine::new();
//!     let mut cl = Cluster::new(1);
//!     let ucp = Ucp::new(UcpConfig { odp });
//!     let dev = DeviceProfile::connectx4(LinkSpec::fdr());
//!     let a = ucp.add_worker(&mut cl, "a", dev.clone());
//!     let b = ucp.add_worker(&mut cl, "b", dev);
//!     let ep = ucp.connect(&mut eng, &mut cl, a, b);
//!     let (dst, src) = (ucp.mem_map(&mut cl, a, 4096), ucp.mem_map(&mut cl, b, 4096));
//!     cl.mem_write(b, src.base, b"remote");
//!     let into = MemSlice { host: a, mr: dst.key, offset: 0, len: 6 };
//!     ucp.get(&mut eng, &mut cl, ep, a, into, src.key, 0, 6);
//!     eng.run(&mut cl, SimTime::from_secs(1)).expect("quiet within 1 s");
//!     let done = ucp.take_completed(a);
//!     assert!(done.len() == 1 && !done[0].failed);
//!     assert_eq!(cl.mem_read(a, dst.base, 6), b"remote");
//!     done[0].at
//! };
//! assert!(get(true) > get(false) + SimTime::from_us(250));
//! ```

#![warn(missing_docs)]

mod proto;
mod ucp;

pub use proto::{EpId, MemSlice, ReqId, ReqKind, Tag, UcpCompletion};
pub use ucp::{Callback, Ucp, UcpConfig};
