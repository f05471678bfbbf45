//! # ibsim-verbs
//!
//! InfiniBand verbs and the Reliable Connection (RC) transport for the
//! `ibsim` simulator: packets, memory registration (pinned and ODP), queue
//! pairs with the full retransmission machinery (Local ACK Timeout, Retry
//! Count, RNR NAK, PSN sequence-error NAK, go-back-N), completion queues,
//! the kernel-driver work queue, and the cluster glue binding it all to
//! the discrete-event engine and fabric.
//!
//! The reverse-engineered device behaviors from *Pitfalls of InfiniBand
//! with On-Demand Paging* (ISPASS 2021) are encoded in [`DeviceProfile`]
//! and implemented in the QP state machine and driver model; see the
//! module docs of [`mod@qp`] and the driver module for where each pitfall
//! lives.

#![warn(missing_docs)]

mod cluster;
mod device;
mod driver;
mod mem;
mod nic;
mod packet;
pub mod qp;
mod sharded;
mod types;
mod wr;

pub use cluster::{Cluster, ClusterBuilder, ClusterEvent, ClusterStats, MrBuilder, MrDesc, Sim};
pub use device::{rnr_timer_decode, rnr_timer_encode, t_tr, DeviceModel, DeviceProfile};
pub use driver::{Driver, DriverStats, DriverWork};
pub use mem::{MemRegion, Memory, MrMode, PageState, Payload};
pub use nic::Nic;
pub use packet::{AtomicOp, NakKind, Packet, PacketKind, SegPos};
pub use qp::{
    Effects, Qp, QpConfig, QpEnv, QpState, QpStats, RecoveryKind, SackBitmap, TimerEffects,
    TimerFamily,
};
pub use sharded::{merge_queue_stats, run_plan, run_sharded, Finished, ShardPlan};
pub use types::{
    packets_for, HostId, MrKey, Psn, Qpn, WrId, AETH_BYTES, BASE_HEADER_BYTES, DEFAULT_MTU,
    PAGE_SIZE, RETH_BYTES,
};
pub use wr::{
    CompareSwapWr, Completion, FetchAddWr, MrSlice, ReadWr, RecvWr, SendWr, WcOpcode, WcStatus,
    WorkRequest, WrOp, WriteWr,
};

// Re-exported so downstream crates can talk to the hub without adding
// their own `ibsim-telemetry` dependency.
pub use ibsim_telemetry::{export_jsonl, Labels, Telemetry};
