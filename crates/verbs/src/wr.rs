//! Work requests, work-queue elements and completions.

use core::fmt;

use ibsim_event::{Line, Render, SimTime};

use crate::types::{packets_for, MrKey, Psn, Qpn, WrId};

/// The operation carried by a send work request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrOp {
    /// One-sided RDMA READ: fetch `len` bytes from `(rkey, remote_off)` on
    /// the peer into `(local_mr, local_off)`.
    Read {
        /// Local destination region.
        local_mr: MrKey,
        /// Byte offset within the local region.
        local_off: u64,
        /// Peer region key.
        rkey: MrKey,
        /// Byte offset within the peer region.
        remote_off: u64,
        /// Transfer length in bytes.
        len: u32,
    },
    /// One-sided RDMA WRITE: push `len` bytes from `(local_mr, local_off)`
    /// into `(rkey, remote_off)` on the peer.
    Write {
        /// Local source region.
        local_mr: MrKey,
        /// Byte offset within the local region.
        local_off: u64,
        /// Peer region key.
        rkey: MrKey,
        /// Byte offset within the peer region.
        remote_off: u64,
        /// Transfer length in bytes.
        len: u32,
    },
    /// Two-sided SEND of `len` bytes from `(local_mr, local_off)`; the
    /// peer must have posted a receive.
    Send {
        /// Local source region.
        local_mr: MrKey,
        /// Byte offset within the local region.
        local_off: u64,
        /// Transfer length in bytes.
        len: u32,
    },
    /// 8-byte atomic on `(rkey, remote_off)`; the original value lands at
    /// `(local_mr, local_off)`.
    Atomic {
        /// Local region receiving the original value.
        local_mr: MrKey,
        /// Byte offset within the local region.
        local_off: u64,
        /// Peer region key.
        rkey: MrKey,
        /// Byte offset of the 8-byte target (must be 8-aligned).
        remote_off: u64,
        /// The operation.
        op: crate::packet::AtomicOp,
    },
}

impl WrOp {
    /// Transfer length in bytes.
    pub fn len(&self) -> u32 {
        match self {
            WrOp::Read { len, .. } | WrOp::Write { len, .. } | WrOp::Send { len, .. } => *len,
            WrOp::Atomic { .. } => 8,
        }
    }

    /// True for zero-length transfers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The local range's start `(lkey, offset)`: where a READ or an
    /// atomic's original value lands, or a WRITE/SEND payload is read.
    pub(crate) fn local(&self) -> (MrKey, u64) {
        match *self {
            WrOp::Read {
                local_mr,
                local_off,
                ..
            }
            | WrOp::Write {
                local_mr,
                local_off,
                ..
            }
            | WrOp::Send {
                local_mr,
                local_off,
                ..
            }
            | WrOp::Atomic {
                local_mr,
                local_off,
                ..
            } => (local_mr, local_off),
        }
    }

    /// The opcode a completion of this operation reports.
    pub(crate) fn wc_opcode(&self) -> WcOpcode {
        match self {
            WrOp::Read { .. } => WcOpcode::Read,
            WrOp::Write { .. } => WcOpcode::Write,
            WrOp::Send { .. } => WcOpcode::Send,
            WrOp::Atomic {
                op: crate::packet::AtomicOp::FetchAdd { .. },
                ..
            } => WcOpcode::FetchAdd,
            WrOp::Atomic {
                op: crate::packet::AtomicOp::CompareSwap { .. },
                ..
            } => WcOpcode::CompareSwap,
        }
    }

    /// Number of request packets at the given MTU.
    pub fn request_packets(&self, mtu: u32) -> u32 {
        match self {
            WrOp::Read { .. } | WrOp::Atomic { .. } => 1,
            WrOp::Write { len, .. } | WrOp::Send { len, .. } => packets_for(*len, mtu),
        }
    }

    /// Number of PSNs the operation consumes: SEND/WRITE use one per
    /// request packet; READ consumes one per *response* packet (§9.7.2 of
    /// the InfiniBand spec: read responses reuse the request PSN range);
    /// atomics consume one.
    pub fn psn_span(&self, mtu: u32) -> u32 {
        match self {
            WrOp::Read { len, .. } => packets_for(*len, mtu),
            WrOp::Write { len, .. } | WrOp::Send { len, .. } => packets_for(*len, mtu),
            WrOp::Atomic { .. } => 1,
        }
    }
}

/// A send work request as posted by the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkRequest {
    /// Caller-chosen identifier echoed in the completion.
    pub id: WrId,
    /// The operation.
    pub op: WrOp,
}

/// A position inside a registered memory region: `(key, byte offset)`.
///
/// Everything that builds a typed work request takes `impl Into<MrSlice>`,
/// so call sites can pass a bare [`MrKey`] (offset 0), a `(MrKey, u64)`
/// tuple, an [`MrDesc`](crate::cluster::MrDesc) (offset 0), or the result
/// of [`MrDesc::at`](crate::cluster::MrDesc::at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrSlice {
    /// Region key (doubles as lkey and rkey in the simulator).
    pub mr: MrKey,
    /// Byte offset within the region.
    pub offset: u64,
}

impl From<MrKey> for MrSlice {
    fn from(mr: MrKey) -> Self {
        MrSlice { mr, offset: 0 }
    }
}

impl From<(MrKey, u64)> for MrSlice {
    fn from((mr, offset): (MrKey, u64)) -> Self {
        MrSlice { mr, offset }
    }
}

impl From<crate::cluster::MrDesc> for MrSlice {
    fn from(d: crate::cluster::MrDesc) -> Self {
        MrSlice {
            mr: d.key,
            offset: 0,
        }
    }
}

impl From<&crate::cluster::MrDesc> for MrSlice {
    fn from(d: &crate::cluster::MrDesc) -> Self {
        MrSlice {
            mr: d.key,
            offset: 0,
        }
    }
}

/// Typed builder for an RDMA READ work request.
///
/// ```
/// use ibsim_verbs::{MrKey, ReadWr, WorkRequest};
///
/// let wr: WorkRequest = ReadWr::new(MrKey(1), (MrKey(2), 64)).len(28).id(1).into();
/// assert_eq!(wr.op.len(), 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadWr {
    local: MrSlice,
    remote: MrSlice,
    len: u32,
    id: WrId,
}

impl ReadWr {
    /// A READ fetching from `remote` on the peer into `local`.
    pub fn new(local: impl Into<MrSlice>, remote: impl Into<MrSlice>) -> Self {
        ReadWr {
            local: local.into(),
            remote: remote.into(),
            len: 0,
            id: WrId(0),
        }
    }

    /// Transfer length in bytes (default 0).
    pub fn len(mut self, len: u32) -> Self {
        self.len = len;
        self
    }

    /// Work-request id echoed in the completion (default 0).
    pub fn id(mut self, id: impl Into<WrId>) -> Self {
        self.id = id.into();
        self
    }
}

impl From<ReadWr> for WorkRequest {
    fn from(b: ReadWr) -> Self {
        WorkRequest {
            id: b.id,
            op: WrOp::Read {
                local_mr: b.local.mr,
                local_off: b.local.offset,
                rkey: b.remote.mr,
                remote_off: b.remote.offset,
                len: b.len,
            },
        }
    }
}

/// Typed builder for an RDMA WRITE work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteWr {
    local: MrSlice,
    remote: MrSlice,
    len: u32,
    id: WrId,
}

impl WriteWr {
    /// A WRITE pushing from `local` into `remote` on the peer.
    pub fn new(local: impl Into<MrSlice>, remote: impl Into<MrSlice>) -> Self {
        WriteWr {
            local: local.into(),
            remote: remote.into(),
            len: 0,
            id: WrId(0),
        }
    }

    /// Transfer length in bytes (default 0).
    pub fn len(mut self, len: u32) -> Self {
        self.len = len;
        self
    }

    /// Work-request id echoed in the completion (default 0).
    pub fn id(mut self, id: impl Into<WrId>) -> Self {
        self.id = id.into();
        self
    }
}

impl From<WriteWr> for WorkRequest {
    fn from(b: WriteWr) -> Self {
        WorkRequest {
            id: b.id,
            op: WrOp::Write {
                local_mr: b.local.mr,
                local_off: b.local.offset,
                rkey: b.remote.mr,
                remote_off: b.remote.offset,
                len: b.len,
            },
        }
    }
}

/// Typed builder for a two-sided SEND work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendWr {
    local: MrSlice,
    len: u32,
    id: WrId,
}

impl SendWr {
    /// A SEND sourcing its payload from `local`.
    pub fn new(local: impl Into<MrSlice>) -> Self {
        SendWr {
            local: local.into(),
            len: 0,
            id: WrId(0),
        }
    }

    /// Payload length in bytes (default 0).
    pub fn len(mut self, len: u32) -> Self {
        self.len = len;
        self
    }

    /// Work-request id echoed in the completion (default 0).
    pub fn id(mut self, id: impl Into<WrId>) -> Self {
        self.id = id.into();
        self
    }
}

impl From<SendWr> for WorkRequest {
    fn from(b: SendWr) -> Self {
        WorkRequest {
            id: b.id,
            op: WrOp::Send {
                local_mr: b.local.mr,
                local_off: b.local.offset,
                len: b.len,
            },
        }
    }
}

/// Typed builder for an 8-byte fetch-and-add; the original value lands
/// at `local`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchAddWr {
    local: MrSlice,
    remote: MrSlice,
    add: u64,
    id: WrId,
}

impl FetchAddWr {
    /// A fetch-and-add on the 8-byte word at `remote` (default addend 1).
    pub fn new(local: impl Into<MrSlice>, remote: impl Into<MrSlice>) -> Self {
        FetchAddWr {
            local: local.into(),
            remote: remote.into(),
            add: 1,
            id: WrId(0),
        }
    }

    /// The addend (default 1).
    #[expect(
        clippy::should_implement_trait,
        reason = "a builder setter named after the verbs field, not `std::ops::Add`"
    )]
    pub fn add(mut self, add: u64) -> Self {
        self.add = add;
        self
    }

    /// Work-request id echoed in the completion (default 0).
    pub fn id(mut self, id: impl Into<WrId>) -> Self {
        self.id = id.into();
        self
    }
}

impl From<FetchAddWr> for WorkRequest {
    fn from(b: FetchAddWr) -> Self {
        WorkRequest {
            id: b.id,
            op: WrOp::Atomic {
                local_mr: b.local.mr,
                local_off: b.local.offset,
                rkey: b.remote.mr,
                remote_off: b.remote.offset,
                op: crate::packet::AtomicOp::FetchAdd { add: b.add },
            },
        }
    }
}

/// Typed builder for an 8-byte compare-and-swap; the original value
/// lands at `local` (the swap took effect iff it equals the compare
/// operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompareSwapWr {
    local: MrSlice,
    remote: MrSlice,
    compare: u64,
    swap: u64,
    id: WrId,
}

impl CompareSwapWr {
    /// A compare-and-swap on the 8-byte word at `remote` (defaults:
    /// compare 0, swap 0).
    pub fn new(local: impl Into<MrSlice>, remote: impl Into<MrSlice>) -> Self {
        CompareSwapWr {
            local: local.into(),
            remote: remote.into(),
            compare: 0,
            swap: 0,
            id: WrId(0),
        }
    }

    /// The expected current value (default 0).
    pub fn compare(mut self, compare: u64) -> Self {
        self.compare = compare;
        self
    }

    /// The replacement value (default 0).
    pub fn swap(mut self, swap: u64) -> Self {
        self.swap = swap;
        self
    }

    /// Work-request id echoed in the completion (default 0).
    pub fn id(mut self, id: impl Into<WrId>) -> Self {
        self.id = id.into();
        self
    }
}

impl From<CompareSwapWr> for WorkRequest {
    fn from(b: CompareSwapWr) -> Self {
        WorkRequest {
            id: b.id,
            op: WrOp::Atomic {
                local_mr: b.local.mr,
                local_off: b.local.offset,
                rkey: b.remote.mr,
                remote_off: b.remote.offset,
                op: crate::packet::AtomicOp::CompareSwap {
                    compare: b.compare,
                    swap: b.swap,
                },
            },
        }
    }
}

/// A receive work request (buffer for an incoming SEND).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvWr {
    /// Caller-chosen identifier echoed in the completion.
    pub id: WrId,
    /// Region the payload lands in.
    pub mr: MrKey,
    /// Byte offset within the region.
    pub offset: u64,
    /// Buffer capacity.
    pub max_len: u32,
}

/// Completion status, mirroring `ibv_wc_status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcStatus {
    /// The operation completed successfully.
    Success,
    /// Transport retries exhausted (`IBV_WC_RETRY_EXC_ERR`): the error the
    /// paper's Fig. 2 experiment measures and that SparkUCX runs hit.
    RetryExcErr,
    /// RNR retries exhausted.
    RnrRetryExcErr,
    /// The remote key or address was invalid.
    RemoteAccessErr,
    /// The work request was flushed because the QP entered the error state.
    WrFlushErr,
    /// The work request's local range named no registered region or
    /// overran it (`IBV_WC_LOC_PROT_ERR`).
    LocalProtErr,
}

impl WcStatus {
    /// True only for [`WcStatus::Success`].
    pub fn is_success(self) -> bool {
        self == WcStatus::Success
    }

    fn name(self) -> &'static str {
        match self {
            WcStatus::Success => "IBV_WC_SUCCESS",
            WcStatus::RetryExcErr => "IBV_WC_RETRY_EXC_ERR",
            WcStatus::RnrRetryExcErr => "IBV_WC_RNR_RETRY_EXC_ERR",
            WcStatus::RemoteAccessErr => "IBV_WC_REM_ACCESS_ERR",
            WcStatus::WrFlushErr => "IBV_WC_WR_FLUSH_ERR",
            WcStatus::LocalProtErr => "IBV_WC_LOC_PROT_ERR",
        }
    }
}

impl Render for WcStatus {
    fn render(&self, out: &mut Line) {
        out.push(self.name().as_bytes());
    }
}

impl fmt::Display for WcStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// Which operation a completion reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WcOpcode {
    /// RDMA READ completed on the requester.
    Read,
    /// RDMA WRITE completed on the requester.
    Write,
    /// SEND completed on the requester.
    Send,
    /// An incoming SEND landed in a posted receive.
    Recv,
    /// Fetch-and-add completed on the requester.
    FetchAdd,
    /// Compare-and-swap completed on the requester.
    CompareSwap,
}

impl WcOpcode {
    fn name(self) -> &'static str {
        match self {
            WcOpcode::Read => "READ",
            WcOpcode::Write => "WRITE",
            WcOpcode::Send => "SEND",
            WcOpcode::Recv => "RECV",
            WcOpcode::FetchAdd => "FETCH_ADD",
            WcOpcode::CompareSwap => "CMP_SWAP",
        }
    }
}

impl Render for WcOpcode {
    fn render(&self, out: &mut Line) {
        out.push(self.name().as_bytes());
    }
}

impl fmt::Display for WcOpcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// A completion queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Echoed work-request id.
    pub wr_id: WrId,
    /// QP the work request belonged to.
    pub qpn: Qpn,
    /// Outcome.
    pub status: WcStatus,
    /// Operation type.
    pub opcode: WcOpcode,
    /// Bytes transferred.
    pub bytes: u32,
    /// Completion timestamp.
    pub at: SimTime,
}

/// Internal send-queue element: a work request plus transport progress.
#[derive(Debug, Clone)]
pub(crate) struct SendWqe {
    pub id: WrId,
    pub op: WrOp,
    /// When the application posted it: the start of its latency sample.
    pub posted_at: SimTime,
    /// First PSN of the message.
    pub psn_first: Psn,
    /// Last PSN of the message (inclusive).
    pub psn_last: Psn,
    /// Request packets in the message.
    pub req_packets: u32,
    /// Response packets expected (READ only).
    pub resp_packets: u32,
    /// Request segments transmitted at least once.
    pub sent_segments: u32,
    /// Response segments consumed in order (READ only).
    pub recv_segments: u32,
    /// Remote side has acknowledged the message (ACK or implicit).
    pub acked: bool,
    /// Damming quirk: first transmission happened inside a fault-recovery
    /// window, so recovery retransmissions skip it and the wire never saw
    /// it (see `DeviceProfile::damming`).
    pub ghosted: bool,
    /// Time of first transmission of the first segment; meaningful once
    /// `sent_segments > 0`.
    pub first_tx: SimTime,
}

impl SendWqe {
    /// True when the WQE can retire: acked, and for READs and atomics all
    /// response data consumed.
    pub(crate) fn is_done(&self) -> bool {
        match self.op {
            WrOp::Read { .. } | WrOp::Atomic { .. } => self.recv_segments == self.resp_packets,
            WrOp::Write { .. } | WrOp::Send { .. } => self.acked,
        }
    }

    /// True if `psn` falls within this message's PSN span: the linear
    /// reference the send-queue bisection is tested against.
    #[cfg(test)]
    pub(crate) fn covers(&self, psn: Psn) -> bool {
        self.psn_first.at_or_before(psn) && psn.at_or_before(self.psn_last)
    }

    /// A queued READ spanning `span` response PSNs from `first`, for
    /// tests that build send queues by hand.
    #[cfg(test)]
    pub(crate) fn read_for_test(first: Psn, span: u32, sent: bool, done: bool) -> SendWqe {
        SendWqe {
            id: WrId(u64::from(first.value())),
            posted_at: SimTime::ZERO,
            op: WrOp::Read {
                local_mr: MrKey(1),
                local_off: 0,
                rkey: MrKey(2),
                remote_off: 0,
                len: span * crate::types::DEFAULT_MTU,
            },
            psn_first: first,
            psn_last: first.add(span - 1),
            req_packets: 1,
            resp_packets: span,
            sent_segments: u32::from(sent),
            recv_segments: if done { span } else { 0 },
            acked: false,
            ghosted: false,
            first_tx: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_op(len: u32) -> WrOp {
        WrOp::Read {
            local_mr: MrKey(1),
            local_off: 0,
            rkey: MrKey(2),
            remote_off: 0,
            len,
        }
    }

    #[test]
    fn read_consumes_response_psns() {
        assert_eq!(read_op(100).psn_span(4096), 1);
        assert_eq!(read_op(4097).psn_span(4096), 2);
        assert_eq!(read_op(100).request_packets(4096), 1);
        assert_eq!(read_op(10_000).request_packets(4096), 1);
    }

    #[test]
    fn write_consumes_segment_psns() {
        let w = WrOp::Write {
            local_mr: MrKey(1),
            local_off: 0,
            rkey: MrKey(2),
            remote_off: 0,
            len: 10_000,
        };
        assert_eq!(w.psn_span(4096), 3);
        assert_eq!(w.request_packets(4096), 3);
        assert_eq!(w.len(), 10_000);
        assert!(!w.is_empty());
    }

    #[test]
    fn wqe_covers_its_span() {
        let wqe = SendWqe::read_for_test(Psn::new(10), 3, false, false);
        assert!(!wqe.covers(Psn::new(9)));
        assert!(wqe.covers(Psn::new(10)));
        assert!(wqe.covers(Psn::new(12)));
        assert!(!wqe.covers(Psn::new(13)));
        assert_eq!(wqe.op.wc_opcode(), WcOpcode::Read);
    }

    #[test]
    fn read_done_requires_data_not_just_ack() {
        let mut wqe = SendWqe {
            acked: true,
            ..SendWqe::read_for_test(Psn::new(0), 1, true, false)
        };
        assert!(!wqe.is_done(), "acked READ without data is not done");
        wqe.recv_segments = 1;
        assert!(wqe.is_done());
    }

    #[test]
    fn builders_produce_equivalent_work_requests() {
        let local = MrKey(1);
        let remote = MrKey(2);
        let read: WorkRequest = ReadWr::new(local, (remote, 64)).len(28).id(1).into();
        assert_eq!(
            read,
            WorkRequest {
                id: WrId(1),
                op: WrOp::Read {
                    local_mr: local,
                    local_off: 0,
                    rkey: remote,
                    remote_off: 64,
                    len: 28,
                },
            }
        );
        let write: WorkRequest = WriteWr::new((local, 8), remote).len(100).id(2).into();
        assert_eq!(
            write.op,
            WrOp::Write {
                local_mr: local,
                local_off: 8,
                rkey: remote,
                remote_off: 0,
                len: 100,
            }
        );
        let send: WorkRequest = SendWr::new(local).len(5).id(3).into();
        assert_eq!(
            send.op,
            WrOp::Send {
                local_mr: local,
                local_off: 0,
                len: 5,
            }
        );
        let faa: WorkRequest = FetchAddWr::new(local, remote).add(7).id(4).into();
        assert_eq!(
            faa.op,
            WrOp::Atomic {
                local_mr: local,
                local_off: 0,
                rkey: remote,
                remote_off: 0,
                op: crate::packet::AtomicOp::FetchAdd { add: 7 },
            }
        );
        let cas: WorkRequest = CompareSwapWr::new(local, (remote, 16))
            .compare(1)
            .swap(9)
            .id(5)
            .into();
        assert_eq!(
            cas.op,
            WrOp::Atomic {
                local_mr: local,
                local_off: 0,
                rkey: remote,
                remote_off: 16,
                op: crate::packet::AtomicOp::CompareSwap {
                    compare: 1,
                    swap: 9,
                },
            }
        );
    }

    #[test]
    fn mr_slice_conversions() {
        assert_eq!(
            MrSlice::from(MrKey(3)),
            MrSlice {
                mr: MrKey(3),
                offset: 0
            }
        );
        assert_eq!(
            MrSlice::from((MrKey(3), 12)),
            MrSlice {
                mr: MrKey(3),
                offset: 12
            }
        );
    }

    #[test]
    fn status_display_matches_ibverbs_names() {
        assert_eq!(WcStatus::RetryExcErr.to_string(), "IBV_WC_RETRY_EXC_ERR");
        assert!(WcStatus::Success.is_success());
        assert!(!WcStatus::RetryExcErr.is_success());
    }
}
