//! The UCP communication layer.
//!
//! A deliberately UCX-shaped API on top of `ibsim-verbs`: workers,
//! endpoints, one-sided `get`/`put`, and tagged two-sided messaging with
//! an eager protocol for small messages and a READ-based rendezvous
//! protocol for large ones — the very READ path through which the paper's
//! applications (ArgoDSM over MPI RMA, SparkUCX) hit the ODP pitfalls.
//!
//! Like the UCX release the paper studied, the layer **prefers ODP by
//! default** for application memory ([`UcpConfig::odp`]), uses a minimal
//! RNR NAK delay of 0.96 ms and `C_ack = 18` (§VII).
//!
//! Tagged messages land in per-endpoint eager rings, MPICH2-style
//! bounce buffers. A ring is built when its direction first needs one,
//! just before that direction's first SEND is posted, not at
//! [`Ucp::connect`]. No packet can tell: a responder reads its receive
//! queue only when a SEND arrives, and a posted receive is never
//! flushed. A mesh that only ever uses `get` and `put`, like Fig. 13's
//! shuffle, registers no ring and posts no receive.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use ibsim_event::SimTime;
use ibsim_verbs::{
    Cluster, DeviceProfile, HostId, MrDesc, MrMode, QpConfig, Qpn, ReadWr, RecvWr, SendWr, Sim,
    WcStatus, WorkRequest, WrId, WriteWr,
};

use crate::proto::{EpId, MemSlice, MsgMeta, ReqId, ReqKind, Tag, UcpCompletion};

/// Configuration of the UCP layer: the one choice the paper's
/// applications differ in. Everything else is a constant of the
/// protocol below.
#[derive(Debug, Clone)]
pub struct UcpConfig {
    /// Register application memory with ODP (the UCX default the paper
    /// calls out: "UCX prioritized ODP over direct memory registration by
    /// default and we were even unaware of the use of ODP").
    pub odp: bool,
}

impl Default for UcpConfig {
    fn default() -> Self {
        UcpConfig { odp: true }
    }
}

/// Local ACK Timeout field used for all QPs (UCX default, §VII).
const CACK: u8 = 18;
/// Minimal RNR NAK delay (UCX default 0.96 ms, §VII).
const MIN_RNR_DELAY: SimTime = SimTime::from_us(960);
/// Messages of this size or larger use the rendezvous protocol.
const RNDV_THRESHOLD: u32 = 4096;
/// Eager receive buffers in one direction's ring, all posted, in slot
/// order, just before the direction's first SEND.
const EAGER_SLOTS: usize = 32;
/// Size of one eager receive buffer.
const EAGER_SLOT_BYTES: u32 = 4096;
/// Delay from a completion landing to the progress tick that reaps it.
const PROGRESS_MIN: SimTime = SimTime::from_us(2);
/// Size on the wire of a control (RTS/FIN) message.
const META_BYTES: u32 = 64;

/// Message direction within an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Dir {
    AToB,
    BToA,
}

impl Dir {
    fn flip(self) -> Dir {
        match self {
            Dir::AToB => Dir::BToA,
            Dir::BToA => Dir::AToB,
        }
    }
}

/// What an in-flight verbs work request means to the UCP layer.
#[derive(Debug)]
enum WrRole {
    /// One-sided app operation.
    App { req: ReqId, kind: ReqKind },
    /// Sender-side eager SEND carrying app payload.
    EagerSend { req: ReqId },
    /// Control SEND (RTS/FIN) for the tagged send `send_req` issued on
    /// `sender`. A successful CQE completes nothing (the FIN's arrival
    /// does); a failed one fails that send, which no FIN can reach now.
    MetaSend { send_req: ReqId, sender: HostId },
    /// A ring receive landed (one incoming message).
    RingRecv { ep: EpId, dir: Dir, slot: usize },
    /// The receiver's rendezvous GET finished.
    RndvGet {
        recv_req: ReqId,
        ep: EpId,
        dir: Dir,
        send_req: ReqId,
    },
}

#[derive(Debug)]
struct EpState {
    a: (HostId, Qpn),
    b: (HostId, Qpn),
    /// The eager ring of each [`Dir`], at that direction's receiver:
    /// [`EAGER_SLOTS`] slots of [`EAGER_SLOT_BYTES`], built by
    /// [`ensure_ring`] just before the direction's first SEND is posted.
    rings: [Option<MrDesc>; 2],
    /// Out-of-band message headers in send order, one queue per [`Dir`].
    meta_q: [VecDeque<MsgMeta>; 2],
}

impl EpState {
    fn dir_from(&self, host: HostId) -> Dir {
        if host == self.a.0 {
            Dir::AToB
        } else {
            Dir::BToA
        }
    }

    fn sender_qp(&self, dir: Dir) -> (HostId, Qpn) {
        match dir {
            Dir::AToB => self.a,
            Dir::BToA => self.b,
        }
    }

    fn receiver(&self, dir: Dir) -> (HostId, Qpn) {
        match dir {
            Dir::AToB => self.b,
            Dir::BToA => self.a,
        }
    }

    fn ring(&self, dir: Dir) -> &MrDesc {
        self.rings[dir as usize]
            .as_ref()
            .expect("invariant: a direction's ring is built before its first SEND")
    }

    fn meta_q(&mut self, dir: Dir) -> &mut VecDeque<MsgMeta> {
        &mut self.meta_q[dir as usize]
    }
}

#[derive(Debug)]
struct PostedRecv {
    req: ReqId,
    tag: Tag,
    dst: MemSlice,
}

#[derive(Debug)]
enum Unexpected {
    Eager {
        data: Vec<u8>,
    },
    Rndv {
        src: MemSlice,
        send_req: ReqId,
        ep: EpId,
        dir: Dir,
    },
}

#[derive(Debug)]
struct WorkerState {
    host: HostId,
    /// Pinned scratch region for control-message payloads.
    scratch: MrDesc,
    /// Receives posted and not yet matched, in posting order: a message
    /// matches the oldest receive on its tag (MPI's non-overtaking rule).
    posted_recvs: Vec<PostedRecv>,
    /// Messages that arrived before their receive, in arrival order per
    /// tag. The one ordered map left: tags are sparse application values,
    /// not dense ids handed out here.
    unexpected: BTreeMap<Tag, VecDeque<Unexpected>>,
    completed: Vec<UcpCompletion>,
}

/// What every outstanding verbs work request means to this layer,
/// addressed by its id: `WrId(n)` names slot `n − 1`. An id is unique
/// among *outstanding* requests only — a completion frees its slot and
/// the next request reuses it — which is all any reader needs:
/// completions are exactly-once and nothing orders by `WrId`. The table
/// is as long as the peak number outstanding (the receives of the rings
/// built so far plus the operations in flight), not the number ever
/// posted.
#[derive(Debug, Default)]
struct RoleSlab {
    slots: Vec<Option<(HostId, WrRole)>>,
    free: Vec<usize>,
}

impl RoleSlab {
    /// Records `role` for a request about to be posted on `host`;
    /// returns the id to post it under.
    fn alloc_wr(&mut self, host: HostId, role: WrRole) -> WrId {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some((host, role));
        WrId(slot as u64 + 1)
    }

    /// Takes back the role of the request `wr` that completed on `host`
    /// and frees its id. `None` for a request this layer did not post
    /// there (the application used the cluster directly): `WrId(0)`, an
    /// id past the table, a vacant slot, or one issued on another host.
    fn take(&mut self, host: HostId, wr: WrId) -> Option<WrRole> {
        let slot = usize::try_from(wr.0.checked_sub(1)?).ok()?;
        let entry = self.slots.get_mut(slot)?;
        if entry.as_ref()?.0 != host {
            return None;
        }
        self.free.push(slot);
        entry.take().map(|(_, role)| role)
    }
}

/// One request, at index `ReqId − 1`.
enum ReqSlot {
    /// Not yet complete; the continuations run, in registration order,
    /// when it is.
    Open { continuations: Vec<Callback> },
    /// Complete (kept for late `when_done` registration).
    Done(UcpCompletion),
}

struct Inner {
    workers: Vec<WorkerState>,
    /// The `workers` index of each host that has one, by `HostId`.
    worker_of: Vec<Option<usize>>,
    eps: Vec<EpState>,
    roles: RoleSlab,
    /// Every request ever issued: one slot each, never reclaimed.
    reqs: Vec<ReqSlot>,
    /// Completions whose callbacks must fire once borrows are released.
    fired: Vec<(Callback, UcpCompletion)>,
    open_reqs: u64,
}

/// What every handle shares.
struct Shared {
    /// [`UcpConfig::odp`].
    odp: bool,
    /// True while a progress tick is already scheduled. Beside `inner`,
    /// not in it: an errored QP flushes a posted request synchronously,
    /// so the cluster calls [`Ucp::wake`] from inside `Cluster::post`
    /// while the posting method still holds `inner`.
    tick_scheduled: Cell<bool>,
    inner: RefCell<Inner>,
}

impl Inner {
    fn alloc_req(&mut self) -> ReqId {
        self.reqs.push(ReqSlot::Open {
            continuations: Vec::new(),
        });
        self.open_reqs += 1;
        ReqId(self.reqs.len() as u64)
    }

    fn worker(&mut self, host: HostId) -> &mut WorkerState {
        let i = self.worker_of.get(host.0).copied().flatten();
        let i = i.expect("invariant: host registered a worker at add_worker");
        &mut self.workers[i]
    }

    fn finish(
        &mut self,
        host: HostId,
        req: ReqId,
        kind: ReqKind,
        at: SimTime,
        failed: bool,
        bytes: u32,
    ) {
        let slot = req.0 as usize - 1;
        if matches!(self.reqs[slot], ReqSlot::Done(_)) {
            // A FIN was delivered and then its SEND failed (ACKs lost):
            // the send it stands for completed at delivery.
            return;
        }
        self.open_reqs -= 1;
        let c = UcpCompletion {
            req,
            kind,
            at,
            failed,
            bytes,
        };
        self.worker(host).completed.push(c);
        if let ReqSlot::Open { continuations } =
            std::mem::replace(&mut self.reqs[slot], ReqSlot::Done(c))
        {
            self.fired
                .extend(continuations.into_iter().map(|cb| (cb, c)));
        }
    }

    /// Removes and returns the oldest receive posted on `host` for `tag`.
    fn match_posted(&mut self, host: HostId, tag: Tag) -> Option<PostedRecv> {
        let posted = &mut self.worker(host).posted_recvs;
        let pos = posted.iter().position(|r| r.tag == tag)?;
        Some(posted.remove(pos))
    }

    /// Keeps a message that found no receive posted on `host` for `tag`.
    fn park_unexpected(&mut self, host: HostId, tag: Tag, msg: Unexpected) {
        let q = self.worker(host).unexpected.entry(tag).or_default();
        q.push_back(msg);
    }
}

/// The UCP layer. Clone-cheap: it is a shared handle; progress events
/// scheduled into the engine keep their own handle.
///
/// # Examples
///
/// ```
/// use ibsim_event::{Engine, SimTime};
/// use ibsim_verbs::{Cluster, DeviceProfile};
/// use ibsim_ucp::{MemSlice, Tag, Ucp, UcpConfig};
///
/// let mut eng = Engine::new();
/// let mut cl = Cluster::new(3);
/// let ucp = Ucp::new(UcpConfig { odp: false });
/// let a = ucp.add_worker(&mut cl, "a", DeviceProfile::connectx6());
/// let b = ucp.add_worker(&mut cl, "b", DeviceProfile::connectx6());
/// let ep = ucp.connect(&mut eng, &mut cl, a, b);
///
/// let src = ucp.mem_map(&mut cl, a, 4096);
/// let dst = ucp.mem_map(&mut cl, b, 4096);
/// cl.mem_write(a, src.base, b"hi there");
/// ucp.tag_recv(&mut eng, &mut cl, b, Tag(7), MemSlice { host: b, mr: dst.key, offset: 0, len: 8 });
/// ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(7), MemSlice { host: a, mr: src.key, offset: 0, len: 8 });
/// eng.run(&mut cl, SimTime::from_ms(1)).expect("quiet within 1 ms");
/// assert_eq!(ucp.take_completed(b).len(), 1);
/// assert_eq!(cl.mem_read(b, dst.base, 8), b"hi there");
/// ```
#[derive(Clone)]
pub struct Ucp {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Ucp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.inner.borrow();
        f.debug_struct("Ucp")
            .field("workers", &inner.workers.len())
            .field("endpoints", &inner.eps.len())
            .field("open_reqs", &inner.open_reqs)
            .finish()
    }
}

/// A continuation invoked when a request completes.
pub type Callback = Box<dyn FnOnce(&mut Sim, &mut Cluster, UcpCompletion)>;

impl Ucp {
    /// Creates a UCP layer with the given configuration.
    pub fn new(cfg: UcpConfig) -> Self {
        Ucp {
            shared: Rc::new(Shared {
                odp: cfg.odp,
                tick_scheduled: Cell::new(false),
                inner: RefCell::new(Inner {
                    workers: Vec::new(),
                    worker_of: Vec::new(),
                    eps: Vec::new(),
                    roles: RoleSlab::default(),
                    reqs: Vec::new(),
                    fired: Vec::new(),
                    open_reqs: 0,
                }),
            }),
        }
    }

    /// Adds a worker (host) to the cluster and returns its id. The first
    /// worker installs this layer's completion waker on the cluster, so
    /// progress is completion-driven rather than polled.
    pub fn add_worker(&self, cl: &mut Cluster, name: &str, device: DeviceProfile) -> HostId {
        if !cl.has_cq_waker() {
            let ucp = self.clone();
            cl.set_cq_waker(std::rc::Rc::new(move |eng: &mut Sim| ucp.wake(eng)));
        }
        let host = cl.add_host(name, device);
        let scratch = cl.alloc_mr(host, 4096, MrMode::Pinned);
        let mut inner = self.shared.inner.borrow_mut();
        if inner.worker_of.len() <= host.0 {
            inner.worker_of.resize(host.0 + 1, None);
        }
        inner.worker_of[host.0] = Some(inner.workers.len());
        inner.workers.push(WorkerState {
            host,
            scratch,
            posted_recvs: Vec::new(),
            unexpected: BTreeMap::new(),
            completed: Vec::new(),
        });
        host
    }

    /// Registers `len` bytes of fresh memory on a worker, using ODP or
    /// pinning per [`UcpConfig::odp`].
    pub fn mem_map(&self, cl: &mut Cluster, w: HostId, len: u64) -> MrDesc {
        let mode = if self.shared.odp {
            MrMode::Odp
        } else {
            MrMode::Pinned
        };
        cl.alloc_mr(w, len, mode)
    }

    /// Number of requests not yet completed.
    pub fn open_requests(&self) -> u64 {
        self.shared.inner.borrow().open_reqs
    }

    /// Connects two workers with a fresh endpoint: a QP pair. Each
    /// direction's eager ring waits for that direction's first SEND.
    pub fn connect(&self, eng: &mut Sim, cl: &mut Cluster, a: HostId, b: HostId) -> EpId {
        let mut inner = self.shared.inner.borrow_mut();
        let qp_cfg = QpConfig {
            cack: CACK,
            min_rnr_delay: MIN_RNR_DELAY,
            ..QpConfig::default()
        };
        let (qa, qb) = cl.connect_pair(eng, a, b, qp_cfg);
        let ep = EpId(inner.eps.len());
        inner.eps.push(EpState {
            a: (a, qa),
            b: (b, qb),
            rings: [None, None],
            meta_q: [VecDeque::new(), VecDeque::new()],
        });
        ep
    }

    /// One-sided get: READ `len` bytes from `(src_mr, src_off)` on the
    /// remote side of `ep` into `(dst_mr, dst_off)` on `from`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the UCX-style RMA signature: endpoint, initiator, local slice, remote key, offset and operand"
    )]
    pub fn get(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        dst: MemSlice,
        src_mr: ibsim_verbs::MrKey,
        src_off: u64,
        len: u32,
    ) -> ReqId {
        self.post_app(eng, cl, ep, from, ReqKind::Get, |wr| {
            ReadWr::new((dst.mr, dst.offset), (src_mr, src_off))
                .len(len)
                .id(wr)
                .into()
        })
    }

    /// One-sided put: WRITE `len` bytes from `src` into the remote
    /// `(dst_mr, dst_off)` over `ep`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the UCX-style RMA signature: endpoint, initiator, local slice, remote key, offset and operand"
    )]
    pub fn put(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        src: MemSlice,
        dst_mr: ibsim_verbs::MrKey,
        dst_off: u64,
        len: u32,
    ) -> ReqId {
        self.post_app(eng, cl, ep, from, ReqKind::Put, |wr| {
            WriteWr::new((src.mr, src.offset), (dst_mr, dst_off))
                .len(len)
                .id(wr)
                .into()
        })
    }

    /// 8-byte fetch-and-add on the remote `(dst_mr, dst_off)` over `ep`;
    /// the original value lands at `local`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the UCX-style RMA signature: endpoint, initiator, local slice, remote key, offset and operand"
    )]
    pub fn fetch_add(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        local: MemSlice,
        dst_mr: ibsim_verbs::MrKey,
        dst_off: u64,
        add: u64,
    ) -> ReqId {
        self.atomic(
            eng,
            cl,
            ep,
            from,
            local,
            dst_mr,
            dst_off,
            ibsim_verbs::AtomicOp::FetchAdd { add },
        )
    }

    /// 8-byte compare-and-swap on the remote `(dst_mr, dst_off)` over
    /// `ep`; the original value lands at `local`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the UCX-style RMA signature: endpoint, initiator, local slice, remote key, offset and operand"
    )]
    pub fn compare_swap(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        local: MemSlice,
        dst_mr: ibsim_verbs::MrKey,
        dst_off: u64,
        compare: u64,
        swap: u64,
    ) -> ReqId {
        self.atomic(
            eng,
            cl,
            ep,
            from,
            local,
            dst_mr,
            dst_off,
            ibsim_verbs::AtomicOp::CompareSwap { compare, swap },
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the UCX-style RMA signature: endpoint, initiator, local slice, remote key, offset and operand"
    )]
    fn atomic(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        local: MemSlice,
        dst_mr: ibsim_verbs::MrKey,
        dst_off: u64,
        op: ibsim_verbs::AtomicOp,
    ) -> ReqId {
        self.post_app(eng, cl, ep, from, ReqKind::Atomic, |wr| WorkRequest {
            id: wr,
            op: ibsim_verbs::WrOp::Atomic {
                local_mr: local.mr,
                local_off: local.offset,
                rkey: dst_mr,
                remote_off: dst_off,
                op,
            },
        })
    }

    /// Posts one one-sided operation from `from` over `ep`: `wr` builds
    /// the verbs request around the id its completion will carry.
    fn post_app(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        kind: ReqKind,
        wr: impl FnOnce(WrId) -> WorkRequest,
    ) -> ReqId {
        let mut inner = self.shared.inner.borrow_mut();
        let req = inner.alloc_req();
        let dir = inner.eps[ep.0].dir_from(from);
        let (host, qpn) = inner.eps[ep.0].sender_qp(dir);
        debug_assert_eq!(host, from);
        let id = inner.roles.alloc_wr(host, WrRole::App { req, kind });
        cl.post(eng, host, qpn, wr(id));
        req
    }

    /// Tagged send from `from` over `ep`. Small messages go eager; large
    /// ones rendezvous (the receiver READs the payload from `src`).
    pub fn tag_send(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        from: HostId,
        tag: Tag,
        src: MemSlice,
    ) -> ReqId {
        let mut inner = self.shared.inner.borrow_mut();
        let req = inner.alloc_req();
        let dir = inner.eps[ep.0].dir_from(from);
        if src.len >= RNDV_THRESHOLD {
            let rts = MsgMeta::RndvRts {
                tag,
                send_req: req,
                src,
            };
            post_meta(&mut inner, eng, cl, ep, dir, rts);
        } else {
            inner.eps[ep.0].meta_q(dir).push_back(MsgMeta::Eager {
                tag,
                send_req: req,
                len: src.len,
            });
            ensure_ring(&mut inner, cl, ep, dir);
            let (host, qpn) = inner.eps[ep.0].sender_qp(dir);
            let wr = inner.roles.alloc_wr(host, WrRole::EagerSend { req });
            cl.post(
                eng,
                host,
                qpn,
                SendWr::new((src.mr, src.offset)).len(src.len).id(wr),
            );
        }
        req
    }

    /// Posts a tagged receive on worker `w` into `dst`. Receives on one
    /// tag match messages in posting order.
    ///
    /// # Panics
    ///
    /// Panics if `w` was not added through [`Ucp::add_worker`].
    pub fn tag_recv(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        w: HostId,
        tag: Tag,
        dst: MemSlice,
    ) -> ReqId {
        let mut inner = self.shared.inner.borrow_mut();
        let req = inner.alloc_req();
        // Unexpected message already here?
        let unexpected = inner.worker(w).unexpected.get_mut(&tag);
        match unexpected.and_then(|q| q.pop_front()) {
            Some(Unexpected::Eager { data }) => {
                let base = cl.mr_base(w, dst.mr);
                let n = data.len().min(dst.len as usize);
                cl.mem_write(w, base + dst.offset, &data[..n]);
                let now = eng.now();
                inner.finish(w, req, ReqKind::TagRecv, now, false, n as u32);
            }
            Some(Unexpected::Rndv {
                src,
                send_req,
                ep,
                dir,
            }) => start_rndv_get(&mut inner, eng, cl, ep, dir, req, send_req, src, dst),
            None => inner
                .worker(w)
                .posted_recvs
                .push(PostedRecv { req, tag, dst }),
        }
        req
    }

    /// Registers a continuation to run when `req` completes; several on
    /// one request run in registration order. If the request already
    /// completed, the continuation runs immediately. A `req` this layer
    /// never issued completes never, and its continuation is dropped.
    pub fn when_done(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        req: ReqId,
        cb: impl FnOnce(&mut Sim, &mut Cluster, UcpCompletion) + 'static,
    ) {
        let mut inner = self.shared.inner.borrow_mut();
        let slot = (req.0 as usize).checked_sub(1);
        match slot.and_then(|i| inner.reqs.get_mut(i)) {
            Some(ReqSlot::Open { continuations }) => continuations.push(Box::new(cb)),
            Some(&mut ReqSlot::Done(c)) => {
                drop(inner);
                cb(eng, cl, c);
            }
            None => {}
        }
    }

    /// Invokes continuations queued by completed requests.
    fn drain_callbacks(&self, eng: &mut Sim, cl: &mut Cluster) {
        loop {
            let fired = std::mem::take(&mut self.shared.inner.borrow_mut().fired);
            if fired.is_empty() {
                return;
            }
            for (cb, c) in fired {
                cb(eng, cl, c);
            }
        }
    }

    /// Takes the completions accumulated on worker `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` was not added through [`Ucp::add_worker`].
    pub fn take_completed(&self, w: HostId) -> Vec<UcpCompletion> {
        std::mem::take(&mut self.shared.inner.borrow_mut().worker(w).completed)
    }

    /// Schedules a progress tick shortly after a completion lands (the
    /// cluster invokes this through its completion waker). Posting needs
    /// no progress start of its own: the completion it leads to wakes
    /// the layer.
    fn wake(&self, eng: &mut Sim) {
        if self.shared.tick_scheduled.replace(true) {
            return;
        }
        let ucp = self.clone();
        eng.schedule_in(PROGRESS_MIN, move |c: &mut Cluster, eng| ucp.tick(eng, c));
    }

    /// One progress step: drain CQs, advance protocols.
    fn tick(&self, eng: &mut Sim, cl: &mut Cluster) {
        self.shared.tick_scheduled.set(false);
        let hosts: Vec<HostId> = {
            let inner = self.shared.inner.borrow();
            inner.workers.iter().map(|w| w.host).collect()
        };
        for host in hosts {
            for c in cl.poll_cq(host) {
                self.route_completion(eng, cl, host, c);
            }
        }
        self.drain_callbacks(eng, cl);
    }

    fn route_completion(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        host: HostId,
        c: ibsim_verbs::Completion,
    ) {
        let mut inner = self.shared.inner.borrow_mut();
        let Some(role) = inner.roles.take(host, c.wr_id) else {
            return; // not ours (application used the cluster directly)
        };
        let failed = c.status != WcStatus::Success;
        match role {
            WrRole::App { req, kind } => {
                inner.finish(host, req, kind, c.at, failed, c.bytes);
            }
            WrRole::EagerSend { req } => {
                inner.finish(host, req, ReqKind::TagSend, c.at, failed, c.bytes);
            }
            WrRole::MetaSend { send_req, sender } => {
                if failed {
                    inner.finish(sender, send_req, ReqKind::TagSend, c.at, true, 0);
                }
            }
            WrRole::RingRecv { ep, dir, slot } => {
                if !failed {
                    self.handle_ring_message(&mut inner, eng, cl, ep, dir, slot, c.bytes, c.at);
                }
                post_ring_recv(&mut inner, cl, ep, dir, slot);
            }
            WrRole::RndvGet {
                recv_req,
                ep,
                dir,
                send_req,
            } => {
                inner.finish(host, recv_req, ReqKind::TagRecv, c.at, failed, c.bytes);
                // Tell the sender it may complete (FIN).
                let fin = MsgMeta::RndvFin { send_req };
                post_meta(&mut inner, eng, cl, ep, dir.flip(), fin);
            }
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "a progress helper threading the split borrows of the endpoint state, engine and cluster"
    )]
    fn handle_ring_message(
        &self,
        inner: &mut Inner,
        eng: &mut Sim,
        cl: &mut Cluster,
        ep: EpId,
        dir: Dir,
        slot: usize,
        bytes: u32,
        at: SimTime,
    ) {
        let meta = inner.eps[ep.0]
            .meta_q(dir)
            .pop_front()
            .expect("invariant: RC in-order delivery keeps header and wire aligned");
        let (rcv_host, _) = inner.eps[ep.0].receiver(dir);
        match meta {
            MsgMeta::Eager { tag, len, .. } => {
                debug_assert_eq!(len, bytes, "eager length matches wire bytes");
                let ring = inner.eps[ep.0].ring(dir);
                let data = cl.mem_read(
                    rcv_host,
                    ring.base + slot as u64 * u64::from(EAGER_SLOT_BYTES),
                    len as usize,
                );
                if let Some(recv) = inner.match_posted(rcv_host, tag) {
                    let base = cl.mr_base(rcv_host, recv.dst.mr);
                    let n = data.len().min(recv.dst.len as usize);
                    cl.mem_write(rcv_host, base + recv.dst.offset, &data[..n]);
                    inner.finish(rcv_host, recv.req, ReqKind::TagRecv, at, false, n as u32);
                } else {
                    inner.park_unexpected(rcv_host, tag, Unexpected::Eager { data });
                }
            }
            MsgMeta::RndvRts { tag, send_req, src } => {
                if let Some(recv) = inner.match_posted(rcv_host, tag) {
                    start_rndv_get(inner, eng, cl, ep, dir, recv.req, send_req, src, recv.dst);
                } else {
                    let rts = Unexpected::Rndv {
                        src,
                        send_req,
                        ep,
                        dir,
                    };
                    inner.park_unexpected(rcv_host, tag, rts);
                }
            }
            MsgMeta::RndvFin { send_req } => {
                inner.finish(rcv_host, send_req, ReqKind::TagSend, at, false, 0);
            }
        }
    }
}

/// Queues the control header `meta` for direction `dir` of `ep` and posts
/// the SEND that stands for it on the wire.
fn post_meta(
    inner: &mut Inner,
    eng: &mut Sim,
    cl: &mut Cluster,
    ep: EpId,
    dir: Dir,
    meta: MsgMeta,
) {
    ensure_ring(inner, cl, ep, dir);
    let (host, qpn) = inner.eps[ep.0].sender_qp(dir);
    // The tagged send a header belongs to was issued where its RTS
    // leaves from and where its FIN arrives.
    let (send_req, sender) = match meta {
        MsgMeta::RndvRts { send_req, .. } | MsgMeta::Eager { send_req, .. } => (send_req, host),
        MsgMeta::RndvFin { send_req } => (send_req, inner.eps[ep.0].receiver(dir).0),
    };
    inner.eps[ep.0].meta_q(dir).push_back(meta);
    let scratch = inner.worker(host).scratch.key;
    let wr = inner
        .roles
        .alloc_wr(host, WrRole::MetaSend { send_req, sender });
    cl.post(eng, host, qpn, SendWr::new(scratch).len(META_BYTES).id(wr));
}

/// Builds the eager ring of direction `dir` of `ep` if it has none yet:
/// registers it at the receiver and posts its slots in order. Called
/// just before every SEND in `dir` is posted, so the ring exists before
/// the first one can arrive. Rings are bounce buffers: always pinned,
/// like UCX's pre-registered RX descriptors.
fn ensure_ring(inner: &mut Inner, cl: &mut Cluster, ep: EpId, dir: Dir) {
    if inner.eps[ep.0].rings[dir as usize].is_some() {
        return;
    }
    let (host, _) = inner.eps[ep.0].receiver(dir);
    let ring_bytes = EAGER_SLOTS as u64 * u64::from(EAGER_SLOT_BYTES);
    inner.eps[ep.0].rings[dir as usize] = Some(cl.alloc_mr(host, ring_bytes, MrMode::Pinned));
    for slot in 0..EAGER_SLOTS {
        post_ring_recv(inner, cl, ep, dir, slot);
    }
}

fn post_ring_recv(inner: &mut Inner, cl: &mut Cluster, ep: EpId, dir: Dir, slot: usize) {
    let (host, qpn) = inner.eps[ep.0].receiver(dir);
    let id = inner
        .roles
        .alloc_wr(host, WrRole::RingRecv { ep, dir, slot });
    let ring = inner.eps[ep.0].ring(dir);
    let recv = RecvWr {
        id,
        mr: ring.key,
        offset: slot as u64 * u64::from(EAGER_SLOT_BYTES),
        max_len: EAGER_SLOT_BYTES,
    };
    cl.post_recv(host, qpn, recv);
}

/// The receiver side of rendezvous: GET the payload from the sender's
/// exposed region into the receive destination.
#[expect(
    clippy::too_many_arguments,
    reason = "a progress helper threading the split borrows of the endpoint state, engine and cluster"
)]
fn start_rndv_get(
    inner: &mut Inner,
    eng: &mut Sim,
    cl: &mut Cluster,
    ep: EpId,
    dir: Dir,
    recv_req: ReqId,
    send_req: ReqId,
    src: MemSlice,
    dst: MemSlice,
) {
    let (host, qpn) = inner.eps[ep.0].receiver(dir);
    let role = WrRole::RndvGet {
        recv_req,
        ep,
        dir,
        send_req,
    };
    let wr = inner.roles.alloc_wr(host, role);
    let len = src.len.min(dst.len);
    cl.post(
        eng,
        host,
        qpn,
        ReadWr::new((dst.mr, dst.offset), (src.mr, src.offset))
            .len(len)
            .id(wr),
    );
}

#[cfg(test)]
mod tests;
