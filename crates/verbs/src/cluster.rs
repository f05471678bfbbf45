//! The cluster: hosts, NICs, drivers and the fabric, glued to the event
//! engine. This is the user-facing verbs API of the simulator.

use std::ops::Range;

use ibsim_event::{Engine, Event, EventFn, SimTime};
use ibsim_fabric::{
    Capture, Delivery, Direction, Fabric, InterLinkStats, Lid, LinkSpec, LinkStats, LossModel,
    TopologyKind, Xorshift64Star,
};
use ibsim_telemetry::{Labels, Telemetry};

use crate::device::DeviceProfile;
use crate::driver::{Driver, DriverStats, DriverWork};
use crate::mem::{Memory, MrMode};
use crate::nic::Nic;
use crate::packet::{Packet, PacketClass};
use crate::qp::{Effects, QpConfig, QpEnv, QpStats, TimerFamily};
use crate::sharded::{PendingDraw, ShardState};
use crate::types::{HostId, MrKey, Psn, Qpn, WrId};
use crate::wr::{Completion, RecvWr, WorkRequest};

/// The simulation engine type used throughout `ibsim`.
pub type Sim = Engine<Cluster, ClusterEvent>;

/// Everything a [`Sim`] schedules. The cluster's own events — a packet
/// arriving, the three per-QP timer families, a driver work item
/// finishing — and a workload's deferred operations — a post, a page
/// invalidation, a loss-model swap — are plain data that lives in the
/// engine's slot arena, so scheduling one allocates nothing. The
/// deferred operations are scheduled only through [`Cluster::post_at`],
/// [`Cluster::invalidate_at`] and [`Cluster::set_loss_at`], which decide
/// the replicas of a sharded run that hold them. `Call` is the boxed
/// closure an application continuation hands to the `schedule_*`
/// methods: an action that reads the cluster before deciding what to do.
pub enum ClusterEvent {
    /// `pkt` reaches `host`'s NIC (fabric arrival + receive overhead).
    Deliver {
        /// Receiving host.
        host: HostId,
        /// The packet, ECN mark included.
        pkt: Packet,
    },
    /// The ACK timeout (`T_o`) of a QP expires; deferred instead if the
    /// §VI-C timer load grew since `armed_at`. A fire the QP did not arm
    /// for finds `ack_armed` false and does nothing.
    AckTimer {
        /// Requester host.
        host: HostId,
        /// Requester QP.
        qpn: Qpn,
        /// When the timer was (first) armed.
        armed_at: SimTime,
        /// The unloaded timeout the deadline is recomputed from.
        t_o: SimTime,
    },
    /// The RNR wait of a QP ends. A fire with no wait in progress finds
    /// `rnr_wait` empty and does nothing.
    RnrTimer {
        /// Requester host.
        host: HostId,
        /// Requester QP.
        qpn: Qpn,
    },
    /// The blind-retransmit tick of one stalled message (client-side
    /// ODP). A tick for a PSN with no stall, or whose message finished,
    /// finds nothing to resend and does not re-arm.
    StallTick {
        /// Requester host.
        host: HostId,
        /// Requester QP.
        qpn: Qpn,
        /// First PSN of the stalled message.
        psn: Psn,
    },
    /// `host`'s driver finishes the work item it began.
    DriverDone {
        /// The driver's host.
        host: HostId,
        /// What it was doing.
        work: DriverWork,
    },
    /// `host` posts `wr` on `qpn` (see [`Cluster::post_at`]).
    Post {
        /// The posting host's index: a `u32` keeps the variant within
        /// the event slot, and a host needs a 16-bit LID anyway.
        host: u32,
        /// The QP posted to.
        qpn: Qpn,
        /// The work request.
        wr: WorkRequest,
    },
    /// The kernel reclaims `pages` of region `key` on `host` (see
    /// [`Cluster::invalidate_at`]).
    Invalidate {
        /// The region's host index, as in [`ClusterEvent::Post`].
        host: u32,
        /// The region.
        key: MrKey,
        /// Page indices invalidated, in order.
        pages: Range<usize>,
    },
    /// The fabric's loss model is replaced (see [`Cluster::set_loss_at`]).
    SetLoss(LossModel),
    /// An application continuation.
    Call(EventFn<Cluster, ClusterEvent>),
}

impl Event<Cluster> for ClusterEvent {
    fn fire(self, c: &mut Cluster, eng: &mut Sim) {
        match self {
            ClusterEvent::Deliver { host, pkt } => c.deliver(eng, host, pkt),
            ClusterEvent::AckTimer {
                host,
                qpn,
                armed_at,
                t_o,
            } => c.on_ack_timer_fire(eng, host, qpn, armed_at, t_o),
            ClusterEvent::RnrTimer { host, qpn } => {
                c.telemetry.counter_add(
                    "timer.rnr_fired",
                    Labels::host_qp(host.0 as u64, qpn.0),
                    1,
                );
                c.with_qp(eng, host, qpn, |qp, env, fx| qp.on_rnr_fire(env, fx));
            }
            ClusterEvent::StallTick { host, qpn, psn } => {
                c.telemetry.counter_add(
                    "timer.stall_tick_fired",
                    Labels::host_qp(host.0 as u64, qpn.0),
                    1,
                );
                c.with_qp(eng, host, qpn, |qp, env, fx| qp.on_stall_tick(env, fx, psn));
            }
            ClusterEvent::DriverDone { host, work } => c.on_driver_done(eng, host, work),
            ClusterEvent::Post { host, qpn, wr } => c.post(eng, HostId(host as usize), qpn, wr),
            ClusterEvent::Invalidate { host, key, pages } => {
                for page in pages {
                    c.invalidate_page(HostId(host as usize), key, page);
                }
            }
            ClusterEvent::SetLoss(model) => {
                if let Some(sh) = c.shard.as_mut() {
                    sh.global_executed += 1;
                }
                c.fabric.set_loss(model);
            }
            ClusterEvent::Call(f) => f(c, eng),
        }
    }

    fn from_call(f: EventFn<Cluster, ClusterEvent>) -> Self {
        ClusterEvent::Call(f)
    }
}

/// `host` as the `u32` index a deferred event stores: every host has a
/// 16-bit LID, so the conversion fails only for an id no host has.
fn event_host(host: HostId) -> u32 {
    u32::try_from(host.0).expect("invariant: host ids are bounded by 16-bit LIDs")
}

/// A completion waker callback (see [`Cluster::set_cq_waker`]).
pub type CqWaker = std::rc::Rc<dyn Fn(&mut Sim)>;

/// A registered memory region descriptor returned to applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrDesc {
    /// Owning host.
    pub host: HostId,
    /// Key (lkey and rkey).
    pub key: MrKey,
    /// Base virtual address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Registration mode.
    pub mode: MrMode,
}

impl MrDesc {
    /// A slice of this region starting `offset` bytes in, for use in
    /// typed work-request builders.
    pub fn at(&self, offset: u64) -> crate::wr::MrSlice {
        crate::wr::MrSlice {
            mr: self.key,
            offset,
        }
    }
}

/// Cluster-wide packet counters (what `ibdump` + `perfquery` would show).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Every packet submitted for transmission, including ghosts.
    pub total_packets: u64,
    /// Request packets (first transmissions).
    pub request_packets: u64,
    /// Retransmitted request packets.
    pub retransmit_packets: u64,
    /// Response packets: READ response segments and `ATOMIC_ACK`s.
    pub response_packets: u64,
    /// ACKs.
    pub ack_packets: u64,
    /// RNR NAKs.
    pub rnr_nak_packets: u64,
    /// PSN sequence error NAKs.
    pub seq_nak_packets: u64,
    /// Ghost packets (damming quirk: captured but never delivered).
    pub ghost_packets: u64,
    /// Packets the fabric dropped (unknown LID or injected loss).
    pub fabric_drops: u64,
}

impl ClusterStats {
    /// Counts one packet of `class` (other NAKs have no field).
    fn count(&mut self, class: PacketClass) {
        let n = match class {
            PacketClass::Request => &mut self.request_packets,
            PacketClass::Retransmit => &mut self.retransmit_packets,
            PacketClass::Response => &mut self.response_packets,
            PacketClass::Ack => &mut self.ack_packets,
            PacketClass::RnrNak => &mut self.rnr_nak_packets,
            PacketClass::SeqNak => &mut self.seq_nak_packets,
            PacketClass::OtherNak => return,
        };
        *n += 1;
    }
}

/// A simulated InfiniBand cluster.
///
/// # Examples
///
/// A pinned-memory READ between two hosts:
///
/// ```
/// use ibsim_event::SimTime;
/// use ibsim_verbs::{ClusterBuilder, DeviceProfile, MrMode, QpConfig, ReadWr};
///
/// let (mut eng, mut cl, hosts) = ClusterBuilder::new()
///     .seed(7)
///     .host("client", DeviceProfile::connectx6())
///     .host("server", DeviceProfile::connectx6())
///     .build();
/// let (a, b) = (hosts[0], hosts[1]);
/// let src = cl.alloc_mr(b, 4096, MrMode::Pinned);
/// let dst = cl.alloc_mr(a, 4096, MrMode::Pinned);
/// cl.mem_write(b, src.base, b"greetings");
/// let (qa, _qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
/// cl.post(&mut eng, a, qa, ReadWr::new(dst, src).len(9).id(1));
/// eng.run(&mut cl, SimTime::from_ms(1)).expect("quiet within 1 ms");
/// let done = cl.poll_cq(a);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].status.is_success());
/// assert_eq!(cl.mem_read(a, dst.base, 9), b"greetings");
/// ```
pub struct Cluster {
    /// The switch fabric (public for loss injection and link stats).
    pub fabric: Fabric,
    nics: Vec<Nic>,
    mems: Vec<Memory>,
    drivers: Vec<Driver>,
    captures: Vec<Capture<Packet>>,
    /// The host behind each LID, indexed by the LID's value (the fabric
    /// hands LIDs out densely from 1; `None` for LID 0 and for ports
    /// added to the public `fabric` without a host).
    lid_to_host: Vec<Option<HostId>>,
    rng: Xorshift64Star,
    /// Invoked (with the engine) whenever completions are pushed to any
    /// CQ; upper layers use it to schedule their progress.
    cq_waker: Option<CqWaker>,
    /// Cluster-wide packet counters.
    pub stats: ClusterStats,
    /// The observability hub (disabled by default; see
    /// [`Cluster::telemetry_enable`]). Recording never schedules events
    /// or draws randomness, so enabling it cannot perturb a run.
    telemetry: Telemetry,
    /// Drained [`Effects`] values kept warm for reuse: `with_qp` pops
    /// one per handler turn and pushes it back after `apply_effects`,
    /// so steady-state turns allocate nothing. Boxed: a turn moves a
    /// pointer out of the pool and back, not the 200-byte value. Pool
    /// contents never influence behavior (values are reset before reuse).
    #[expect(
        clippy::vec_box,
        reason = "a turn moves a pointer out of the pool and back, not the 200-byte value"
    )]
    fx_pool: Vec<Box<Effects>>,
    /// Sharded-execution state when this cluster is one replica of a
    /// PDES run (see [`crate::sharded`]); `None` on an ordinary
    /// sequential cluster.
    shard: Option<Box<ShardState>>,
    /// Per-host transmit counts, one slot per [`TX_COUNTERS`] name,
    /// bumped by `transmit` whether or not telemetry is on and written
    /// into the registry by [`Cluster::sync_telemetry_at`].
    tx_counts: Vec<[u64; TX_COUNTERS.len()]>,
    /// The reference rule the fan-out tests replay worlds against: a
    /// resolved page gives every QP on the host a turn, interested or
    /// not.
    #[cfg(test)]
    broadcast_page_ready: bool,
    /// Handler turns taken so far.
    #[cfg(test)]
    turns: u64,
}

/// The host-labelled `packets.*` counters, in `Cluster::tx_counts` slot
/// order: the total, one per [`PacketClass`] from [`TX_CLASS`] in
/// declaration order, then the two fates.
const TX_COUNTERS: [&str; 10] = [
    "packets.total",
    "packets.request",
    "packets.retransmit",
    "packets.response",
    "packets.ack",
    "packets.rnr_nak",
    "packets.seq_nak",
    "packets.nak_other",
    "packets.ghost",
    "packets.fabric_drops",
];
const TX_TOTAL: usize = 0;
/// The slot of the first [`PacketClass`]; `class as usize` counts on.
const TX_CLASS: usize = 1;
const TX_GHOST: usize = 8;
const TX_FABRIC_DROPS: usize = 9;

/// A gauge family a sync writes: its name and the stat field it reads.
type GaugeField<S> = (&'static str, fn(&S) -> u64);

/// The per-QP [`QpStats`] gauges a sync writes, one family each.
const QP_GAUGES: [GaugeField<QpStats>; 8] = [
    ("qp.retransmissions", |s| s.retransmissions),
    ("qp.timeouts", |s| s.timeouts),
    ("qp.rnr_naks_received", |s| s.rnr_naks_received),
    ("qp.rnr_naks_sent", |s| s.rnr_naks_sent),
    ("qp.seq_naks_sent", |s| s.seq_naks_sent),
    ("qp.responses_discarded", |s| s.responses_discarded),
    ("qp.faults_raised", |s| s.faults_raised),
    ("qp.pendency_drops", |s| s.pendency_drops),
];

/// The per-host fabric port gauges a sync writes.
const PORT_GAUGES: [GaugeField<LinkStats>; 5] = [
    ("fabric.tx_frames", |s| s.tx_frames),
    ("fabric.tx_bytes", |s| s.tx_bytes),
    ("fabric.rx_frames", |s| s.rx_frames),
    ("fabric.rx_bytes", |s| s.rx_bytes),
    ("fabric.dropped", |s| s.dropped),
];

/// The per-host [`DriverStats`] gauges a sync writes.
const DRIVER_GAUGES: [GaugeField<DriverStats>; 3] = [
    ("driver.stats.faults_resolved", |s| s.faults_resolved),
    ("driver.stats.qp_resumes", |s| s.qp_resumes),
    ("driver.stats.irqs_processed", |s| s.irqs_processed),
];

/// The inter-switch link gauges a sync writes.
const INTER_LINK_GAUGES: [GaugeField<InterLinkStats>; 5] = [
    ("fabric.link.frames", |s| s.frames),
    ("fabric.link.bytes", |s| s.bytes),
    ("fabric.link.busy_ns", |s| s.busy_ns),
    ("fabric.link.peak_backlog_ns", |s| s.peak_backlog_ns),
    ("fabric.link.ecn_marks", |s| s.ecn_marks),
];

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.nics.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cluster {
    /// Creates an empty cluster; `seed` drives every random draw (page
    /// fault latencies, loss models), making runs reproducible.
    pub fn new(seed: u64) -> Self {
        Cluster {
            fabric: Fabric::new(LinkSpec::default()),
            nics: Vec::new(),
            mems: Vec::new(),
            drivers: Vec::new(),
            captures: Vec::new(),
            lid_to_host: Vec::new(),
            rng: Xorshift64Star::new(seed),
            cq_waker: None,
            stats: ClusterStats::default(),
            telemetry: Telemetry::new(),
            fx_pool: Vec::new(),
            shard: None,
            tx_counts: Vec::new(),
            #[cfg(test)]
            broadcast_page_ready: false,
            #[cfg(test)]
            turns: 0,
        }
    }

    /// Adds a host with the given NIC profile; returns its id.
    pub fn add_host(&mut self, name: &str, profile: DeviceProfile) -> HostId {
        let host = HostId(self.nics.len());
        let lid = self.fabric.add_host_with(name, profile.link);
        self.drivers.push(Driver::new(
            profile.resume_cost,
            profile.irq_cost,
            profile.irq_burst,
        ));
        self.nics.push(Nic::new(host, lid, profile));
        self.mems.push(Memory::new());
        self.captures.push(Capture::new());
        if self.lid_to_host.len() <= lid.0 as usize {
            self.lid_to_host.resize(lid.0 as usize + 1, None);
        }
        self.lid_to_host[lid.0 as usize] = Some(host);
        self.tx_counts.push([0; TX_COUNTERS.len()]);
        host
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.nics.len()
    }

    /// The NIC of `host`.
    pub fn nic(&self, host: HostId) -> &Nic {
        &self.nics[host.0]
    }

    /// The LID of `host`'s port.
    pub fn lid(&self, host: HostId) -> Lid {
        self.nics[host.0].lid
    }

    /// The host whose port has `lid`, if any (a mis-addressed QP or a bare
    /// fabric port has none).
    fn host_of(&self, lid: Lid) -> Option<HostId> {
        *self.lid_to_host.get(lid.0 as usize)?
    }

    /// Driver statistics for `host`.
    pub fn driver_stats(&self, host: HostId) -> DriverStats {
        self.drivers[host.0].stats()
    }

    /// Sum of per-QP protocol counters on `host`.
    pub fn qp_stats_sum(&self, host: HostId) -> QpStats {
        let mut total = QpStats::default();
        for qp in self.nics[host.0].qps() {
            // A full struct literal on purpose: a counter added to
            // `QpStats` fails to compile here instead of silently
            // vanishing from the sum.
            let s = qp.stats();
            total = QpStats {
                retransmissions: total.retransmissions + s.retransmissions,
                timeouts: total.timeouts + s.timeouts,
                rnr_naks_received: total.rnr_naks_received + s.rnr_naks_received,
                rnr_naks_sent: total.rnr_naks_sent + s.rnr_naks_sent,
                seq_naks_sent: total.seq_naks_sent + s.seq_naks_sent,
                responses_discarded: total.responses_discarded + s.responses_discarded,
                faults_raised: total.faults_raised + s.faults_raised,
                pendency_drops: total.pendency_drops + s.pendency_drops,
                pages_pinned: total.pages_pinned + s.pages_pinned,
                invariant_violations: total.invariant_violations + s.invariant_violations,
                ecn_echoes: total.ecn_echoes + s.ecn_echoes,
            };
        }
        total
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocates a fresh page-aligned buffer without registering it
    /// (manual registration flows register later, paying the cost).
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if the buffer would reach past
    /// [`Memory::ADDR_LIMIT`].
    pub fn alloc_buffer(&mut self, host: HostId, len: u64) -> u64 {
        self.mems[host.0].alloc(len)
    }

    /// Allocates a fresh page-aligned buffer and registers it as an MR.
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if the buffer would reach past
    /// [`Memory::ADDR_LIMIT`].
    pub fn alloc_mr(&mut self, host: HostId, len: u64, mode: MrMode) -> MrDesc {
        self.mr(host, MrBuilder::new(len, mode))
    }

    /// Registers a memory region described by an [`MrBuilder`]:
    ///
    /// * no base address ([`MrBuilder::pinned`] / [`MrBuilder::odp`]
    ///   alone) → a fresh page-aligned buffer is allocated and then
    ///   registered (what [`Cluster::alloc_mr`] does);
    /// * an explicit base ([`MrBuilder::at`]) → the caller-owned buffer
    ///   is registered as-is, as a manual registration flow does after
    ///   [`Cluster::alloc_buffer`];
    /// * [`MrBuilder::prefetch`] → every page is pre-touched after
    ///   registration (like `ibv_advise_mr` prefetch), so an ODP region
    ///   raises no faults until a page is invalidated. Meaningless but
    ///   harmless on pinned regions, which are always mapped.
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if the region — allocated or at an
    /// explicit base — would reach past [`Memory::ADDR_LIMIT`].
    pub fn mr(&mut self, host: HostId, builder: MrBuilder) -> MrDesc {
        let base = builder
            .base
            .unwrap_or_else(|| self.mems[host.0].alloc(builder.len));
        let key = self.nics[host.0].reg_mr(base, builder.len, builder.mode);
        if builder.prefetch {
            self.prefetch_mr(host, key);
        }
        MrDesc {
            host,
            key,
            base,
            len: builder.len,
            mode: builder.mode,
        }
    }

    /// Writes bytes into host memory (application store).
    pub fn mem_write(&mut self, host: HostId, addr: u64, data: &[u8]) {
        self.mems[host.0].write(addr, data);
    }

    /// Reads bytes from host memory (application load).
    pub fn mem_read(&mut self, host: HostId, addr: u64, len: usize) -> Vec<u8> {
        self.mems[host.0].read(addr, len)
    }

    /// Pre-maps every page of an ODP region (like `ibv_advise_mr`
    /// prefetch): no faults will occur on it until invalidated.
    pub fn prefetch_mr(&mut self, host: HostId, key: MrKey) {
        if let Some(mr) = self.nics[host.0].mrs.get_mut(&key) {
            mr.map_all();
        }
    }

    /// Invalidates one page of an ODP region (kernel reclaimed it).
    pub fn invalidate_page(&mut self, host: HostId, key: MrKey, page: usize) {
        if let Some(mr) = self.nics[host.0].mrs.get_mut(&key) {
            mr.invalidate_page(page);
        }
    }

    /// Base virtual address of a registered region.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown on that host.
    pub fn mr_base(&self, host: HostId, key: MrKey) -> u64 {
        self.nics[host.0]
            .mrs
            .get(&key)
            .unwrap_or_else(|| panic!("unknown {key} on {host}"))
            .base()
    }

    /// Network page faults raised so far on a region.
    pub fn mr_fault_count(&self, host: HostId, key: MrKey) -> u64 {
        self.nics[host.0]
            .mrs
            .get(&key)
            .map(|m| m.fault_count)
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    /// Creates an RC QP on `host`.
    ///
    /// # Panics
    ///
    /// As [`Qp::new`](crate::Qp::new): on a `cfg.mtu` that is not an
    /// IBTA path MTU.
    pub fn create_qp(&mut self, host: HostId, cfg: QpConfig) -> Qpn {
        self.nics[host.0].create_qp(cfg)
    }

    /// Creates and connects a QP pair between two hosts; both ends use the
    /// same config. Returns `(qp_on_a, qp_on_b)`.
    ///
    /// # Panics
    ///
    /// As [`Cluster::create_qp`]: on a `cfg.mtu` that is not an IBTA path
    /// MTU.
    pub fn connect_pair(
        &mut self,
        _eng: &mut Sim,
        a: HostId,
        b: HostId,
        cfg: QpConfig,
    ) -> (Qpn, Qpn) {
        let qa = self.nics[a.0].create_qp(cfg.clone());
        let qb = self.nics[b.0].create_qp(cfg);
        let (la, lb) = (self.nics[a.0].lid, self.nics[b.0].lid);
        self.nics[a.0]
            .qp_mut(qa)
            .expect("invariant: qp just created")
            .connect(lb, qb);
        self.nics[b.0]
            .qp_mut(qb)
            .expect("invariant: qp just created")
            .connect(la, qa);
        (qa, qb)
    }

    /// Points a QP at an explicit (possibly wrong) LID, reproducing the
    /// deliberate mis-addressing of the paper's Fig. 2 experiment.
    ///
    /// # Panics
    ///
    /// Panics if `qpn` does not name a QP on `host` — mis-addressing the
    /// *wire* is a supported experiment, mis-addressing the API is a bug
    /// in the caller's setup code.
    pub fn connect_to_lid(&mut self, host: HostId, qpn: Qpn, peer: Lid, peer_qpn: Qpn) {
        self.nics[host.0]
            .qp_mut(qpn)
            .unwrap_or_else(|| panic!("connect_to_lid: host {host:?} has no qp {qpn:?}"))
            .connect(peer, peer_qpn);
    }

    // ------------------------------------------------------------------
    // Verbs
    // ------------------------------------------------------------------

    /// Posts a work request: either a typed builder ([`ReadWr`],
    /// [`WriteWr`], [`SendWr`], [`FetchAddWr`], [`CompareSwapWr`]) or a
    /// raw [`WorkRequest`].
    ///
    /// [`ReadWr`]: crate::wr::ReadWr
    /// [`WriteWr`]: crate::wr::WriteWr
    /// [`SendWr`]: crate::wr::SendWr
    /// [`FetchAddWr`]: crate::wr::FetchAddWr
    /// [`CompareSwapWr`]: crate::wr::CompareSwapWr
    pub fn post(&mut self, eng: &mut Sim, host: HostId, qpn: Qpn, wr: impl Into<WorkRequest>) {
        let wr = wr.into();
        self.with_qp(eng, host, qpn, move |qp, env, fx| qp.post(env, fx, wr));
    }

    /// Posts a receive buffer.
    pub fn post_recv(&mut self, host: HostId, qpn: Qpn, recv: RecvWr) {
        if let Some(qp) = self.nics[host.0].qp_mut(qpn) {
            qp.post_recv(recv);
        }
    }

    /// Drains the host completion queue.
    pub fn poll_cq(&mut self, host: HostId) -> Vec<Completion> {
        self.nics[host.0].poll_cq()
    }

    /// Completions currently queued on the host CQ.
    pub fn cq_len(&self, host: HostId) -> usize {
        self.nics[host.0].cq_len()
    }

    /// Registers the completion waker: called with the engine every time
    /// completions land on any CQ. At most one waker exists; upper layers
    /// (like `ibsim-ucp`) use it to drive their progress without polling.
    pub fn set_cq_waker(&mut self, waker: CqWaker) {
        self.cq_waker = Some(waker);
    }

    /// True if a completion waker is installed.
    pub fn has_cq_waker(&self) -> bool {
        self.cq_waker.is_some()
    }

    /// True if work request `id` on `qpn` is still pending (not completed).
    pub fn wr_pending(&self, host: HostId, qpn: Qpn, id: WrId) -> bool {
        self.nics[host.0]
            .qp(qpn)
            .is_some_and(|q| q.is_wr_pending(id))
    }

    // ------------------------------------------------------------------
    // Deferred operations: the only place that decides which replica of
    // a sharded run schedules one
    // ------------------------------------------------------------------

    /// Posts `wr` on `host`'s `qpn` at `at`: the Fig. 3 loop's deferred
    /// verb. Firing calls [`Cluster::post`], so the WR's post time, where
    /// its latency sample starts, is `at`. A sharded replica that does not
    /// own `host` schedules nothing.
    pub fn post_at(
        &self,
        eng: &mut Sim,
        at: SimTime,
        host: HostId,
        qpn: Qpn,
        wr: impl Into<WorkRequest>,
    ) {
        if self.owns(host) {
            let wr = wr.into();
            eng.post_at(
                at,
                ClusterEvent::Post {
                    host: event_host(host),
                    qpn,
                    wr,
                },
            );
        }
    }

    /// Invalidates `pages` of `host`'s region `key` at `at`, as
    /// [`Cluster::invalidate_page`] does one page now. An empty range
    /// still schedules its (empty) event. A sharded replica that does not
    /// own `host` schedules nothing.
    pub fn invalidate_at(
        &self,
        eng: &mut Sim,
        at: SimTime,
        host: HostId,
        key: MrKey,
        pages: Range<usize>,
    ) {
        if self.owns(host) {
            eng.post_at(
                at,
                ClusterEvent::Invalidate {
                    host: event_host(host),
                    key,
                    pages,
                },
            );
        }
    }

    /// Installs `model` as the fabric's loss model at `at`. The fabric is
    /// replicated state, so every replica of a sharded run schedules the
    /// swap, and [`crate::sharded::merge_queue_stats`] counts it once.
    ///
    /// # Panics
    ///
    /// Panics on a replica whose owner map names more than one shard if
    /// `model` is order-dependent ([`LossModel::is_order_dependent`]):
    /// each replica's copy would see only its own shard's frames.
    pub fn set_loss_at(&mut self, eng: &mut Sim, at: SimTime, model: LossModel) {
        if let Some(sh) = self.shard.as_mut() {
            assert!(
                !(sh.is_split() && model.is_order_dependent()),
                "the order-dependent loss model {model:?} cannot run on a plan split \
                 across shards: each replica would draw it for its own frames only"
            );
            sh.global_scheduled += 1;
        }
        eng.post_at(at, ClusterEvent::SetLoss(model));
    }

    // ------------------------------------------------------------------
    // Capture
    // ------------------------------------------------------------------

    /// Starts `ibdump`-style capture on a host.
    pub fn capture_enable(&mut self, host: HostId) {
        self.captures[host.0].enable();
    }

    /// The capture buffer of a host.
    pub fn capture(&self, host: HostId) -> &Capture<Packet> {
        &self.captures[host.0]
    }

    /// Moves a host's capture out of the cluster, leaving an empty,
    /// disabled one behind — for a harness that is done with the world
    /// and wants the records without copying them.
    pub fn take_capture(&mut self, host: HostId) -> Capture<Packet> {
        std::mem::take(&mut self.captures[host.0])
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Turns on the observability hub.
    ///
    /// Recording is purely passive — it never schedules events, draws
    /// randomness or changes control flow — so a run with telemetry
    /// enabled produces a byte-identical packet trace (CI pins the
    /// golden FNV hashes to prove it).
    pub fn telemetry_enable(&mut self) {
        self.telemetry.enable();
    }

    /// The observability hub (read side: exporters, assertions).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the hub, so upper layers (`ibsim-ucp`, DSM,
    /// benches) can record their own metrics into the same registry.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Snapshots every legacy stat struct into the metric registry as
    /// gauges: engine [`ibsim_event::QueueStats`] (queue depth, dead
    /// pops, timer churn), per-host [`DriverStats`], per-host fabric
    /// link counters, per-QP [`QpStats`], and the cluster-wide packet
    /// counters. Also flushes partial QP state dwell times up to `now`.
    ///
    /// Call once before exporting; the structs stay API-compatible and
    /// the registry holds a superset of what they expose. `now` is the
    /// run's last event on a plain run (`eng.last_executed_at()`, or
    /// `eng.now()` when the run was not cut at a deadline). Sharded runs
    /// park each replica's clock at its last *owned* event, so the
    /// per-shard `eng.now()` values differ from the sequential clock;
    /// passing the canonical end-of-run time (handed to the `finish`
    /// closure by [`crate::sharded::run_sharded`]) makes the flushed QP
    /// dwell counters match the sequential run exactly.
    pub fn sync_telemetry_at(&mut self, eng: &Sim, now: SimTime) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &mut self.telemetry;
        let qs = eng.queue_stats();
        t.gauge_set("event.live", Labels::NONE, qs.live as u64);
        t.gauge_set("event.dead_pending", Labels::NONE, qs.dead_pending as u64);
        t.gauge_set("event.executed", Labels::NONE, qs.executed);
        t.gauge_set("event.dead_pops", Labels::NONE, qs.dead_pops);
        t.gauge_set("event.scheduled", Labels::NONE, qs.scheduled);
        t.gauge_set("event.cancelled", Labels::NONE, qs.cancelled);
        t.gauge_set("event.replaced", Labels::NONE, qs.replaced);
        t.gauge_set("event.keyed_live", Labels::NONE, qs.keyed_live as u64);
        t.gauge_set("event.peak_depth", Labels::NONE, qs.peak_depth as u64);
        let cs = self.stats;
        t.gauge_set("cluster.total_packets", Labels::NONE, cs.total_packets);
        t.gauge_set("cluster.ghost_packets", Labels::NONE, cs.ghost_packets);
        t.gauge_set("cluster.fabric_drops", Labels::NONE, cs.fabric_drops);
        // The per-host `packets.*` counters. Only a non-zero count gets a
        // slot (a host that never sent an RNR NAK exports none), and the
        // slot is topped up to the count, so syncing twice adds nothing.
        for (h, counts) in self.tx_counts.iter().enumerate() {
            let labels = Labels::host(h as u64);
            for (&name, &n) in TX_COUNTERS.iter().zip(counts).filter(|&(_, &n)| n > 0) {
                let have = t.registry().counter(name, labels).unwrap_or(0);
                t.counter_add(name, labels, n.saturating_sub(have));
            }
        }
        // The gauges go in family by family, each walked in label order
        // (hosts ascending, then QPs in QPN order), so a first sync
        // builds every family in one pass.
        let ports: Vec<(Labels, LinkStats)> = self
            .nics
            .iter()
            .enumerate()
            .filter_map(|(h, nic)| Some((Labels::host(h as u64), self.fabric.link_stats(nic.lid)?)))
            .collect();
        for (name, field) in PORT_GAUGES {
            t.set_gauges(name, ports.iter().map(|(l, ls)| (*l, field(ls))));
        }
        for (name, field) in DRIVER_GAUGES {
            let rows = self
                .drivers
                .iter()
                .enumerate()
                .map(|(h, d)| (Labels::host(h as u64), field(&d.stats())));
            t.set_gauges(name, rows);
        }
        for (name, field) in QP_GAUGES {
            let rows = self.nics.iter().enumerate().flat_map(|(h, nic)| {
                nic.qps()
                    .iter()
                    .map(move |qp| (Labels::host_qp(h as u64, qp.qpn().0), field(&qp.stats())))
            });
            t.set_gauges(name, rows);
        }
        // Inter-switch link counters. Lazily registered by the fabric on
        // first use, so a crossbar run (no inter-switch hops) emits no
        // `fabric.link.*` slots and its JSONL export stays byte-identical
        // to the pre-topology simulator. Labels reuse the `(host, qp)`
        // slots as `(src switch, dst switch)`.
        for (name, field) in INTER_LINK_GAUGES {
            let rows = self
                .fabric
                .inter_links()
                .map(|(from, to, ls)| (Labels::host_qp(from.0 as u64, to.0 as u32), field(&ls)));
            t.set_gauges(name, rows);
        }
        t.flush_dwell(now);
    }

    // ------------------------------------------------------------------
    // Sharded execution (PDES; see crate::sharded)
    // ------------------------------------------------------------------

    /// True if this replica executes events for `host`. Always true on
    /// an unsharded cluster — the single predicate that lets one build
    /// path serve both execution modes.
    pub fn owns(&self, host: HostId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|sh| sh.owner[host.0] == sh.id)
    }

    /// Converts this replica into shard `id` of a sharded run with the
    /// given host → shard map. Call after every host has been added and
    /// before any workload activity.
    ///
    /// # Panics
    ///
    /// Panics if the owner map does not cover every host.
    pub fn enable_sharding(&mut self, id: usize, owner: Vec<usize>) {
        assert_eq!(
            owner.len(),
            self.nics.len(),
            "owner map must name a shard for every host"
        );
        self.shard = Some(Box::new(ShardState::new(id, owner)));
    }

    /// This replica's shard id, or `None` when unsharded.
    pub fn shard_id(&self) -> Option<usize> {
        self.shard.as_ref().map(|sh| sh.id)
    }

    /// Replicated-event counters `(scheduled, executed)` for merged
    /// queue statistics (see [`crate::sharded::merge_queue_stats`]);
    /// zeros when unsharded.
    pub fn shard_global_counters(&self) -> (u64, u64) {
        self.shard
            .as_ref()
            .map_or((0, 0), |sh| (sh.global_scheduled, sh.global_executed))
    }

    /// Draws one ODP fault-resolution latency in `[lo, lo + max(hi-lo,1))`
    /// nanoseconds from the cluster RNG. Fault draws are the RNG's only
    /// consumer, which is what lets a sharded run reproduce the
    /// sequential stream: replicas defer their draws and the epoch
    /// leader replays them, in global raise order, through its own
    /// replica's RNG via this method.
    pub fn draw_fault_latency(&mut self, lo: u64, hi: u64) -> SimTime {
        SimTime::from_ns(lo + self.rng.next_below(hi.saturating_sub(lo).max(1)))
    }

    /// The fault-draw floor: the smallest possible ODP fault latency
    /// across hosts owning at least one ODP region, or `None` when no
    /// region can fault. It is a sharded run's epoch width: a stalled
    /// driver rekicked at the next epoch boundary schedules its
    /// completion no earlier than stall time + this floor, so boundaries
    /// must not outrun it.
    pub fn fault_draw_floor(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for nic in &self.nics {
            if nic.mrs.values().any(|m| m.mode() == MrMode::Odp) {
                let f = nic.profile.fault_latency_min;
                best = Some(best.map_or(f, |b| b.min(f)));
            }
        }
        best
    }

    /// Rejects, before the first epoch, every plan the epoch loop cannot
    /// run as the sequential engine would. No-op when unsharded.
    ///
    /// Every connected QP pair must sit on one shard, since no packet
    /// crosses a shard. Any ODP region's minimum fault latency must be
    /// positive, since that floor is the epoch width. A plan whose
    /// owner map names more than one shard must also run on the
    /// crossbar: there every port a frame touches belongs to the
    /// sender's shard, while a routed topology shares inter-switch
    /// links between shards. [`Cluster::set_loss_at`] refuses the
    /// order-dependent loss models on such a plan.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the rule the plan breaks.
    pub fn validate_sharding(&self) {
        let Some(sh) = self.shard.as_ref() else {
            return;
        };
        for nic in &self.nics {
            for qp in nic.qps() {
                let Some(peer) = qp.peer().and_then(|(lid, _)| self.host_of(lid)) else {
                    continue;
                };
                let (from, to) = (sh.owner[nic.host.0], sh.owner[peer.0]);
                assert_eq!(
                    from,
                    to,
                    "QP {} of host {} peers with host {}, on another shard ({from} vs {to}): \
                     a sharded run needs every connected QP pair on one shard",
                    qp.qpn().0,
                    nic.host.0,
                    peer.0
                );
            }
        }
        assert!(
            self.fault_draw_floor() != Some(SimTime::ZERO),
            "a sharded run needs a positive minimum fault latency on every ODP host: \
             the epoch width is that floor"
        );
        let kind = self.fabric.topology_kind();
        assert!(
            !sh.is_split() || kind == TopologyKind::Crossbar,
            "a plan split across shards needs the crossbar, not {kind}: \
             a routed topology shares inter-switch links between shards"
        );
    }

    /// Drains the deferred fault-draw requests for an epoch deposit.
    pub(crate) fn take_pending_draws(&mut self) -> Vec<PendingDraw> {
        self.shard
            .as_mut()
            .map_or_else(Vec::new, |sh| std::mem::take(&mut sh.pending_draws))
    }

    /// The earliest each stalled driver's fault can complete (stall
    /// time + that host's fault floor), for the leader's progress
    /// computation. The stalls stay recorded until
    /// [`Cluster::take_stalls`] consumes them at rekick time.
    pub(crate) fn stall_floors(&self) -> Vec<SimTime> {
        let Some(sh) = self.shard.as_ref() else {
            return Vec::new();
        };
        sh.stalls
            .iter()
            .map(|(&host, &(at, _))| at + self.nics[host].profile.fault_latency_min)
            .collect()
    }

    /// Drains the stalled drivers as `(host, stall time, seq)`.
    pub(crate) fn take_stalls(&mut self) -> Vec<(usize, SimTime, u64)> {
        self.shard.as_mut().map_or_else(Vec::new, |sh| {
            std::mem::take(&mut sh.stalls)
                .into_iter()
                .map(|(host, (at, seq))| (host, at, seq))
                .collect()
        })
    }

    /// Applies one leader-drawn fault latency to `host`'s oldest undrawn
    /// fault, recording the histogram sample the sequential run would
    /// have recorded at draw time (fills arrive in the same global order,
    /// and histograms are order-insensitive).
    pub(crate) fn apply_draw_fill(&mut self, host: usize, latency: SimTime) {
        self.telemetry.observe(
            "fault.drawn_latency_ns",
            Labels::host(host as u64),
            latency.as_ns(),
        );
        self.drivers[host].fill_undrawn(latency);
    }

    // ------------------------------------------------------------------
    // Internal glue
    // ------------------------------------------------------------------

    fn with_qp<F>(&mut self, eng: &mut Sim, host: HostId, qpn: Qpn, f: F)
    where
        F: FnOnce(&mut crate::qp::Qp, &mut QpEnv<'_>, &mut Effects),
    {
        #[cfg(test)]
        {
            self.turns += 1;
        }
        let mut fx = self.fx_pool.pop().unwrap_or_default();
        {
            let nic = &mut self.nics[host.0];
            let mem = &mut self.mems[host.0];
            let Some((qp, mrs, profile)) = nic.split_mut(qpn) else {
                self.fx_pool.push(fx);
                return;
            };
            let mut env = QpEnv {
                now: eng.now(),
                mem,
                mrs,
                profile,
            };
            f(qp, &mut env, &mut fx);
        }
        self.nics[host.0].update_recovery(qpn);
        self.sample_qp_state(eng.now(), host, qpn);
        self.apply_effects(eng, host, qpn, &mut fx);
        fx.reset();
        self.fx_pool.push(fx);
    }

    /// True if a page resolved on `host` is news to `qpn`.
    fn wakes_on_page(&self, host: HostId, qpn: Qpn) -> bool {
        #[cfg(test)]
        if self.broadcast_page_ready {
            return true;
        }
        self.nics[host.0].awaits_page(qpn)
    }

    /// Feeds `qpn`'s lifecycle state to the dwell clocks, whose first
    /// sample of a QP starts its clock (telemetry on only).
    fn sample_qp_state(&mut self, now: SimTime, host: HostId, qpn: Qpn) {
        if self.telemetry.is_enabled() {
            if let Some(state) = self.nics[host.0].qp(qpn).map(|q| q.state()) {
                self.telemetry
                    .qp_state_sample(host.0 as u64, qpn.0, state.dwell_counter(), now);
            }
        }
    }

    /// Drains one [`Effects`] value into the engine and peripherals, in a
    /// fixed order: packets, completions, timer ops (ack, rnr, stall),
    /// faults, fault waiters, IRQs, then at most one driver kick.
    ///
    /// Takes the value by `&mut` and leaves it drained (but not reset),
    /// so `with_qp` can return it to the warm pool.
    fn apply_effects(&mut self, eng: &mut Sim, host: HostId, qpn: Qpn, fx: &mut Effects) {
        for pkt in fx.packets.drain(..) {
            self.transmit(eng, host, pkt);
        }
        let had_completions = !fx.completions.is_empty();
        for (c, posted_at) in fx.completions.drain(..) {
            self.telemetry
                .wr_completed(host.0 as u64, c.qpn.0, posted_at, c.at);
            self.nics[host.0].push_completion(c);
        }
        if had_completions {
            if let Some(waker) = self.cq_waker.clone() {
                waker(eng);
            }
        }
        if fx.timers.cancel_ack {
            eng.cancel_key(TimerFamily::Ack.key(host, qpn, 0));
        }
        if fx.timers.arm_ack {
            let nic = &self.nics[host.0];
            let cack = nic.qp(qpn).map(|q| q.config().cack).unwrap_or_default();
            if let Some(t_o) = nic.profile.t_o(cack) {
                // The deadline is checked again when the timer fires
                // (see `on_ack_timer_fire`).
                self.post_ack_timer(eng, host, qpn, eng.now(), t_o);
            }
        }
        if fx.timers.cancel_rnr {
            eng.cancel_key(TimerFamily::Rnr.key(host, qpn, 0));
        }
        if let Some(delay) = fx.timers.arm_rnr {
            eng.post_keyed_at(
                TimerFamily::Rnr.key(host, qpn, 0),
                eng.now() + delay,
                ClusterEvent::RnrTimer { host, qpn },
            );
        }
        for psn in fx.timers.cancel_stalls.drain(..) {
            eng.cancel_key(TimerFamily::Stall.key(host, qpn, psn.value()));
        }
        for (psn, delay) in fx.timers.arm_stalls.drain(..) {
            eng.post_keyed_at(
                TimerFamily::Stall.key(host, qpn, psn.value()),
                eng.now() + delay,
                ClusterEvent::StallTick { host, qpn, psn },
            );
        }
        let mut kick = false;
        for (mr, page) in fx.faults.drain(..) {
            let lo = self.nics[host.0].profile.fault_latency_min.as_ns();
            let hi = self.nics[host.0].profile.fault_latency_max.as_ns();
            self.telemetry
                .fault_raised(host.0 as u64, mr.0, page as u64, eng.now());
            let now = eng.now();
            if let Some(sh) = self.shard.as_mut() {
                // Sharded replicas must not consume the fault-latency RNG
                // locally — shards would race for the stream. The draw is
                // deferred: the epoch leader replays all raises in global
                // order through its own replica's RNG and sends the fill
                // back (see crate::sharded). The histogram sample moves to
                // fill time too (apply_draw_fill); histograms commute.
                sh.seq += 1;
                sh.pending_draws.push(PendingDraw {
                    raised_at: now,
                    src_shard: sh.id,
                    seq: sh.seq,
                    host: host.0,
                    lo,
                    hi,
                });
                self.drivers[host.0].push_fault_undrawn(mr, page);
            } else {
                let latency = self.draw_fault_latency(lo, hi);
                self.telemetry.observe(
                    "fault.drawn_latency_ns",
                    Labels::host(host.0 as u64),
                    latency.as_ns(),
                );
                self.drivers[host.0].push_fault(mr, page, latency);
            }
            kick = true;
        }
        for (mr, page) in fx.fault_waits.drain(..) {
            self.nics[host.0].register_fault_waiter(qpn, mr, page);
        }
        for _ in 0..fx.irqs {
            self.drivers[host.0].push_irq();
            kick = true;
        }
        if kick {
            self.driver_kick(eng, host);
        }
    }

    /// When an ACK timeout armed at `armed_at` is due: `armed_at + T_o ·
    /// (1 + coeff · load)`, where the load is the number of *other* QPs
    /// of the NIC in recovery right now — many QPs in recovery lengthen
    /// the observed timeout (timer-management load, §VI-C).
    fn ack_deadline(&self, host: HostId, armed_at: SimTime, t_o: SimTime) -> SimTime {
        let nic = &self.nics[host.0];
        let load = nic.recovery_count().saturating_sub(1) as u64;
        armed_at + t_o.mul_permille(1000 + nic.profile.timer_load_coeff_pm.saturating_mul(load))
    }

    /// Posts `qpn`'s ACK timeout into its keyed slot (replacing any
    /// pending one in place), due at [`Cluster::ack_deadline`].
    fn post_ack_timer(
        &self,
        eng: &mut Sim,
        host: HostId,
        qpn: Qpn,
        armed_at: SimTime,
        t_o: SimTime,
    ) {
        eng.post_keyed_at(
            TimerFamily::Ack.key(host, qpn, 0),
            self.ack_deadline(host, armed_at, t_o),
            ClusterEvent::AckTimer {
                host,
                qpn,
                armed_at,
                t_o,
            },
        );
    }

    /// An ACK-timeout event reached its scheduled time. The §VI-C load
    /// is sampled *again* here: a timer armed before a recovery storm was
    /// scheduled with a stale (too short) delay, so if the load has since
    /// grown the timeout is deferred to the recomputed deadline instead
    /// of firing early. A shrinking load never retracts an elapsed wait:
    /// the timer just fires at its (longer) armed delay.
    fn on_ack_timer_fire(
        &mut self,
        eng: &mut Sim,
        host: HostId,
        qpn: Qpn,
        armed_at: SimTime,
        t_o: SimTime,
    ) {
        if eng.now() < self.ack_deadline(host, armed_at, t_o) {
            self.telemetry.counter_add(
                "timer.ack_deferred",
                Labels::host_qp(host.0 as u64, qpn.0),
                1,
            );
            self.post_ack_timer(eng, host, qpn, armed_at, t_o);
            return;
        }
        self.telemetry
            .counter_add("timer.ack_fired", Labels::host_qp(host.0 as u64, qpn.0), 1);
        self.with_qp(eng, host, qpn, |qp, env, fx| qp.on_ack_timeout(env, fx));
    }

    fn transmit(&mut self, eng: &mut Sim, host: HostId, mut pkt: Packet) {
        self.stats.total_packets += 1;
        let class = pkt.class();
        self.stats.count(class);
        let tx = &mut self.tx_counts[host.0];
        tx[TX_TOTAL] += 1;
        tx[TX_CLASS + class as usize] += 1;
        let bytes = pkt.wire_bytes();
        let src_lid = pkt.src;
        let dst_lid = pkt.dst;
        if pkt.ghost {
            // Damming quirk: the capture sees it, the wire never does.
            self.stats.ghost_packets += 1;
            self.tx_counts[host.0][TX_GHOST] += 1;
            self.captures[host.0].record_with(
                eng.now(),
                Direction::Tx,
                src_lid,
                dst_lid,
                bytes,
                true,
                || pkt,
            );
            return;
        }
        let send_overhead = self.nics[host.0].profile.send_overhead;
        let submit = eng.now() + send_overhead;
        let delivery = self.fabric.transit(submit, src_lid, dst_lid, bytes);
        let dropped = delivery.arrival().is_none();
        if dropped {
            self.stats.fabric_drops += 1;
            self.tx_counts[host.0][TX_FABRIC_DROPS] += 1;
        }
        // Lazy payload: a disabled capture must not pay the deep clone
        // of the packet (its data `Vec` included) on every frame.
        self.captures[host.0].record_with(
            eng.now(),
            Direction::Tx,
            src_lid,
            dst_lid,
            bytes,
            dropped,
            || pkt.clone(),
        );
        if let Delivery::Deliver { at, ecn } = delivery {
            // The fabric marked the packet in flight (a congested
            // inter-switch hop crossed the ECN threshold). The Tx
            // capture above deliberately recorded the pre-mark packet —
            // the sender's `ibdump` sees what left the NIC — so only the
            // receiver observes the mark, and a crossbar run (which has
            // no inter-switch links) renders byte-identical timelines.
            if ecn {
                pkt.ecn = true;
            }
            let Some(dst_host) = self.host_of(dst_lid) else {
                return;
            };
            let recv_overhead = self.nics[dst_host.0].profile.recv_overhead;
            let deliver_at = at + recv_overhead;
            debug_assert!(self.owns(dst_host), "a packet crossed a shard");
            eng.post_at(
                deliver_at,
                ClusterEvent::Deliver {
                    host: dst_host,
                    pkt,
                },
            );
        }
    }

    pub(crate) fn deliver(&mut self, eng: &mut Sim, host: HostId, pkt: Packet) {
        self.captures[host.0].record_with(
            eng.now(),
            Direction::Rx,
            pkt.src,
            pkt.dst,
            pkt.wire_bytes(),
            false,
            || pkt.clone(),
        );
        let qpn = pkt.dst_qp;
        self.with_qp(eng, host, qpn, move |qp, env, fx| {
            qp.on_packet(env, fx, &pkt)
        });
    }

    fn driver_kick(&mut self, eng: &mut Sim, host: HostId) {
        let now = eng.now();
        self.driver_kick_at(eng, host, now);
    }

    /// [`Cluster::driver_kick`] with an explicit "now". Sharded epoch
    /// rekicks re-enter a driver stalled at `t_s` from an event firing
    /// at a later epoch boundary; timestamping the kick with `t_s`
    /// reproduces the sequential begin time (the scheduled completion,
    /// `t_s + cost`, is never earlier than the boundary because the
    /// fault floor bounds the epoch width).
    pub(crate) fn driver_kick_at(&mut self, eng: &mut Sim, host: HostId, now: SimTime) {
        if let Some((work, cost)) = self.drivers[host.0].begin_next() {
            if self.telemetry.is_enabled() {
                let labels = Labels::host(host.0 as u64);
                match &work {
                    DriverWork::FaultResolved { mr, page } => {
                        self.telemetry.counter_add("driver.faults_begun", labels, 1);
                        self.telemetry
                            .fault_service_begin(host.0 as u64, mr.0, *page as u64, now);
                    }
                    DriverWork::QpResumed { .. } => {
                        self.telemetry
                            .counter_add("driver.resumes_begun", labels, 1);
                    }
                    DriverWork::IrqBatch { .. } => {
                        self.telemetry
                            .counter_add("driver.irq_batches_begun", labels, 1);
                    }
                }
                self.telemetry
                    .observe("driver.work_cost_ns", labels, cost.as_ns());
            }
            eng.post_at(now + cost, ClusterEvent::DriverDone { host, work });
        } else if self.drivers[host.0].blocked_on_undrawn() {
            // The queue head is a fault whose latency the epoch leader
            // has not yet filled. Record the stall (first stall time
            // wins) so the leader bounds the epoch and rekicks us.
            let sh = self
                .shard
                .as_mut()
                .expect("invariant: undrawn faults only exist when sharded");
            sh.seq += 1;
            let seq = sh.seq;
            sh.stalls.entry(host.0).or_insert((now, seq));
        }
    }

    fn on_driver_done(&mut self, eng: &mut Sim, host: HostId, work: DriverWork) {
        self.drivers[host.0].finish();
        match work {
            DriverWork::FaultResolved { mr, page } => {
                if let Some(region) = self.nics[host.0].mrs.get_mut(&mr) {
                    region.set_page_state(page, crate::mem::PageState::Mapped);
                }
                let waiters = self.nics[host.0].take_fault_waiters(mr, page);
                let slots = self.nics[host.0].profile.resume_slots as usize;
                let stale = &waiters[..waiters.len().saturating_sub(slots)];
                if self.telemetry.is_enabled() {
                    let waiter_qpns: Vec<u32> = waiters.iter().map(|q| q.0).collect();
                    self.telemetry.fault_resolved(
                        host.0 as u64,
                        mr.0,
                        page as u64,
                        eng.now(),
                        &waiter_qpns,
                        stale.len() as u32,
                    );
                }
                // Flood: QPs beyond the NIC's instant-resume capacity get a
                // stale page status that only a serialized driver resume
                // refreshes (§VI-B "update failure of page statuses").
                for &q in stale {
                    if let Some(qp) = self.nics[host.0].qp_mut(q) {
                        qp.mark_page_stale(mr, page);
                    }
                    self.nics[host.0].update_recovery(q);
                    self.drivers[host.0].push_resume(q, mr, page);
                }
                // The page is news only to the QPs that await one (see
                // `Qp::awaits_page`); they take their turns in ascending
                // QPN order. The dwell clocks are shown every other QP
                // too: a QP's first sample starts its clock, and for an
                // idle QP this is the first.
                let sample = self.telemetry.is_enabled();
                for q in self.nics[host.0].qpns() {
                    let wakes = self.wakes_on_page(host, q);
                    if !(wakes || sample) || stale.contains(&q) {
                        continue;
                    }
                    if wakes {
                        self.with_qp(eng, host, q, move |qp, env, fx| {
                            qp.on_page_ready(env, fx, mr, page)
                        });
                    } else {
                        self.sample_qp_state(eng.now(), host, q);
                    }
                }
            }
            DriverWork::QpResumed { qpn, mr, page } => {
                self.telemetry
                    .resume_done(host.0 as u64, mr.0, page as u64, eng.now());
                self.with_qp(eng, host, qpn, move |qp, env, fx| {
                    qp.on_page_ready(env, fx, mr, page)
                });
            }
            DriverWork::IrqBatch { .. } => {}
        }
        self.driver_kick(eng, host);
    }
}

/// Builder collapsing the `Engine::new` + `Cluster::new` +
/// `add_host`/`capture_enable`/`telemetry_enable` boilerplate into one
/// fluent expression.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::{ClusterBuilder, DeviceProfile};
///
/// let (eng, cl, hosts) = ClusterBuilder::new()
///     .seed(42)
///     .host("client", DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()))
///     .host("server", DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()))
///     .capture(true)
///     .telemetry(true)
///     .build();
/// assert_eq!(hosts.len(), 2);
/// assert!(cl.telemetry().is_enabled());
/// assert_eq!(eng.now(), ibsim_event::SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusterBuilder {
    seed: u64,
    hosts: Vec<(String, DeviceProfile)>,
    capture: bool,
    telemetry: bool,
    topology: Option<TopologyKind>,
}

impl ClusterBuilder {
    /// A builder with seed 0, no hosts, capture and telemetry off.
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// The seed driving every random draw (page-fault latencies, loss
    /// models); same seed, same run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a host with the given NIC profile. Hosts get ids in call
    /// order, returned by [`ClusterBuilder::build`].
    pub fn host(mut self, name: &str, profile: DeviceProfile) -> Self {
        self.hosts.push((name.to_owned(), profile));
        self
    }

    /// Enables `ibdump`-style capture on every host.
    pub fn capture(mut self, on: bool) -> Self {
        self.capture = on;
        self
    }

    /// Enables the telemetry hub (metric registry + fault spans).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Routes the fabric over this topology instead of the default
    /// single-switch crossbar. Hosts attach to switches round-robin in
    /// add order (the topology's `attach` rule), so host placement in
    /// the builder determines which flows share uplinks.
    ///
    /// # Panics
    ///
    /// `build` panics if the kind fails [`TopologyKind::validate`].
    pub fn topology(mut self, kind: TopologyKind) -> Self {
        self.topology = Some(kind);
        self
    }

    /// Builds the engine and cluster; returns them with the host ids in
    /// the order the hosts were added.
    pub fn build(self) -> (Sim, Cluster, Vec<HostId>) {
        let eng = Engine::new();
        let mut cl = Cluster::new(self.seed);
        if let Some(kind) = self.topology {
            cl.fabric.set_topology(kind);
        }
        if self.telemetry {
            cl.telemetry_enable();
        }
        let mut ids = Vec::with_capacity(self.hosts.len());
        for (name, profile) in self.hosts {
            let id = cl.add_host(&name, profile);
            if self.capture {
                cl.capture_enable(id);
            }
            ids.push(id);
        }
        (eng, cl, ids)
    }
}

/// Describes a memory registration for [`Cluster::mr`], unifying the
/// allocate-then-register and register-existing-buffer paths behind one
/// entry point (see [`Cluster::mr`] for which path is taken when).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrBuilder {
    len: u64,
    base: Option<u64>,
    mode: MrMode,
    prefetch: bool,
}

impl MrBuilder {
    /// A registration of `len` bytes in the given mode, allocating a
    /// fresh buffer unless [`MrBuilder::at`] is called.
    pub fn new(len: u64, mode: MrMode) -> Self {
        MrBuilder {
            len,
            base: None,
            mode,
            prefetch: false,
        }
    }

    /// Shorthand for a pinned registration.
    pub fn pinned(len: u64) -> Self {
        MrBuilder::new(len, MrMode::Pinned)
    }

    /// Shorthand for an On-Demand Paging registration.
    pub fn odp(len: u64) -> Self {
        MrBuilder::new(len, MrMode::Odp)
    }

    /// Registers the existing buffer at `base` instead of allocating.
    pub fn at(mut self, base: u64) -> Self {
        self.base = Some(base);
        self
    }

    /// Pre-touches every page after registration, so an ODP region
    /// starts fully mapped.
    pub fn prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }
}

#[cfg(test)]
mod fanout_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::types::Psn;
    use crate::wr::WcOpcode;

    /// How far any world in this file may run before it must have quiesced.
    const HORIZON: SimTime = SimTime::from_secs(1);

    #[test]
    fn qp_stats_sum_includes_ecn_echoes() {
        let (mut eng, mut cl, hosts) = ClusterBuilder::new()
            .host("a", DeviceProfile::connectx6())
            .host("b", DeviceProfile::connectx6())
            .build();
        let (a, b) = (hosts[0], hosts[1]);
        let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        // An ACK as a congested routed fabric delivers it: marked.
        let ack = Packet {
            src: cl.lid(b),
            dst: cl.lid(a),
            dst_qp: qa,
            src_qp: qb,
            psn: Psn::new(0),
            kind: PacketKind::Ack,
            ghost: false,
            retransmit: false,
            ecn: true,
        };
        cl.deliver(&mut eng, a, ack);
        assert_eq!(cl.qp_stats_sum(a).ecn_echoes, 1);
        assert_eq!(cl.qp_stats_sum(b).ecn_echoes, 0);
    }

    /// An explicit base is checked as an allocation is; unchecked, this
    /// overflowed in debug and died on `capacity overflow` in release.
    #[test]
    #[should_panic(expected = "bytes [0xfffffffffffffff5, 0xfffffffffffffff5 + 0x64) reach past")]
    fn registering_past_the_address_ceiling_panics() {
        let (_, mut cl, hosts) = ClusterBuilder::new()
            .host("a", DeviceProfile::connectx6())
            .build();
        cl.mr(hosts[0], MrBuilder::pinned(100).at(u64::MAX - 10));
    }

    #[test]
    fn an_inverted_or_empty_fault_window_resolves_at_its_lower_bound() {
        // Same seed, so both clusters hold the same RNG stream.
        let mut cl = Cluster::new(11);
        let mut reference = Cluster::new(11);
        for (lo, hi) in [(1_000, 250), (1_000, 1_000), (u64::MAX, 0)] {
            assert_eq!(cl.draw_fault_latency(lo, hi), SimTime::from_ns(lo));
            // Exactly one draw consumed: the streams stay in step.
            reference.draw_fault_latency(0, 1);
            assert_eq!(
                cl.draw_fault_latency(250, 1_000),
                reference.draw_fault_latency(250, 1_000),
                "window ({lo}, {hi})"
            );
        }
    }

    #[test]
    fn packet_counters_mirror_the_stats_and_sync_is_idempotent() {
        let (mut eng, mut cl, hosts) = ClusterBuilder::new()
            .telemetry(true)
            .host("a", DeviceProfile::connectx6())
            .host("b", DeviceProfile::connectx6())
            .build();
        let (a, b) = (hosts[0], hosts[1]);
        let src = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let dst = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        cl.post(
            &mut eng,
            a,
            qa,
            crate::wr::ReadWr::new(dst, src).len(64).id(1),
        );
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let packets = |cl: &Cluster| -> Vec<(&'static str, Labels, u64)> {
            cl.telemetry()
                .registry()
                .iter()
                .filter(|(n, _, _)| n.starts_with("packets."))
                .map(|(n, l, i)| {
                    let ibsim_telemetry::Instrument::Counter(v) = i else {
                        panic!("{n} is a {}", i.kind());
                    };
                    (n, l, *v)
                })
                .collect()
        };
        assert_eq!(packets(&cl), vec![], "counts reach the registry at sync");
        cl.sync_telemetry_at(&eng, eng.now());
        let once = packets(&cl);
        let (ha, hb) = (Labels::host(a.0 as u64), Labels::host(b.0 as u64));
        // One READ request out of `a`, one response out of `b`; no slot
        // for a kind a host never sent.
        assert_eq!(
            once,
            vec![
                ("packets.request", ha, cl.stats.request_packets),
                ("packets.response", hb, cl.stats.response_packets),
                ("packets.total", ha, 1),
                ("packets.total", hb, 1),
            ]
        );
        assert_eq!(cl.stats.total_packets, 2);

        let everything = |cl: &Cluster| -> Vec<(&'static str, Labels, String)> {
            let reg = cl.telemetry().registry();
            reg.iter()
                .map(|(n, l, i)| (n, l, format!("{i:?}")))
                .collect()
        };
        let all_once = everything(&cl);
        cl.sync_telemetry_at(&eng, eng.now());
        assert_eq!(packets(&cl), once, "a second sync adds nothing");
        assert_eq!(everything(&cl), all_once, "nor moves any gauge");
    }

    /// An `ATOMIC_ACK` is a response, in the stats and the counters alike,
    /// as the capture walk's traffic summary counts it.
    #[test]
    fn atomic_acks_count_as_responses() {
        let (mut eng, mut cl, hosts) = ClusterBuilder::new()
            .telemetry(true)
            .host("a", DeviceProfile::connectx6())
            .host("b", DeviceProfile::connectx6())
            .build();
        let (a, b) = (hosts[0], hosts[1]);
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        cl.post(
            &mut eng,
            a,
            qa,
            crate::wr::FetchAddWr::new(local.key, remote.key)
                .add(5)
                .id(1),
        );
        cl.post(
            &mut eng,
            a,
            qa,
            crate::wr::CompareSwapWr::new((local.key, 8), remote.key)
                .compare(5)
                .swap(9)
                .id(2),
        );
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        assert_eq!(cl.stats.request_packets, 2);
        assert_eq!(cl.stats.response_packets, 2);
        assert_eq!(cl.stats.retransmit_packets, 0);
        cl.sync_telemetry_at(&eng, eng.now());
        let reg = cl.telemetry().registry();
        let count = |name, h: HostId| reg.counter(name, Labels::host(h.0 as u64));
        assert_eq!(count("packets.request", a), Some(2));
        assert_eq!(count("packets.response", b), Some(2));
        assert_eq!(count("packets.request", b), None);
    }

    #[test]
    fn two_in_flight_reads_with_one_id_get_a_latency_sample_each() {
        let (mut eng, mut cl, hosts) = ClusterBuilder::new()
            .telemetry(true)
            .host("a", DeviceProfile::connectx6())
            .host("b", DeviceProfile::connectx6())
            .build();
        let (a, b) = (hosts[0], hosts[1]);
        let src = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let dst = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        for _ in 0..2 {
            cl.post(
                &mut eng,
                a,
                qa,
                crate::wr::ReadWr::new(dst, src).len(64).id(7),
            );
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        assert_eq!(cl.poll_cq(a).len(), 2);
        let reg = cl.telemetry().registry();
        let ql = Labels::host_qp(a.0 as u64, qa.0);
        assert_eq!(reg.counter("cq.completions", ql), Some(2));
        let h = reg
            .histogram("cq.wr_latency_ns", Labels::host(a.0 as u64))
            .expect("latency histogram");
        assert_eq!(h.count(), 2, "one sample per completion");
    }

    /// A receive completion sharing an id with an in-flight send on the
    /// same QP must not take that send's clock: the latency sample
    /// belongs to the READ, from its post to its own completion.
    #[test]
    fn a_receive_with_an_in_flight_reads_id_takes_no_latency_sample() {
        let (mut eng, mut cl, hosts) = ClusterBuilder::new()
            .telemetry(true)
            .host("a", DeviceProfile::connectx4(LinkSpec::fdr()))
            .host("b", DeviceProfile::connectx4(LinkSpec::fdr()))
            .build();
        let (a, b) = (hosts[0], hosts[1]);
        // Server-side ODP: the READ faults at `b` and waits out the
        // resolution and an RNR wait.
        let remote = cl.alloc_mr(b, 4096, MrMode::Odp);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let src = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        cl.post(
            &mut eng,
            a,
            qa,
            crate::wr::ReadWr::new(local, remote).len(64).id(7),
        );
        cl.post_recv(
            a,
            qa,
            RecvWr {
                id: WrId(7),
                mr: local.key,
                offset: 1024,
                max_len: 1024,
            },
        );
        cl.post(&mut eng, b, qb, crate::wr::SendWr::new(src).len(16).id(1));
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let cq = cl.poll_cq(a);
        let at = |op| {
            cq.iter()
                .find(|c| c.opcode == op && c.status.is_success())
                .map(|c| c.at)
                .unwrap_or_else(|| panic!("no {op:?} completion: {cq:?}"))
        };
        let read_done = at(WcOpcode::Read);
        assert!(at(WcOpcode::Recv) < read_done, "the receive lands first");
        let h = cl
            .telemetry()
            .registry()
            .histogram("cq.wr_latency_ns", Labels::host(a.0 as u64))
            .expect("latency histogram");
        assert_eq!(
            (h.count(), h.sum()),
            (1, read_done.as_ns()),
            "one sample: the READ's, posted at 0"
        );
    }
}
