//! The serializable scenario specification.
//!
//! A [`Scenario`] is everything one conformance run needs, as plain
//! data: one client and one server host, `qps` RC queue pairs between
//! them, a typed work-request list, a deterministic fault schedule and a
//! seed. The spec serializes to a line-oriented text format
//! ([`Scenario::to_spec_string`] / [`Scenario::parse`]) so failing
//! fuzz seeds can be checked in as reproducers and diffed by humans —
//! no external serialization dependency required.
//!
//! ## Memory layout
//!
//! Work request offsets are relative to the posting QP's window
//! ([`Scenario::window`]). Under the default [`Layout::Disjoint`] QP `i`
//! owns bytes `[i*slot, (i+1)*slot)` of both the client and the server
//! region; under [`Layout::Shared`] every window is the whole `slot`-byte
//! region, the one round-robin buffer of the paper's Fig. 3 loop. Either
//! way the reference model is exact: RC orders requests *within* a QP,
//! and [`Scenario::validate`] refuses any overlap whose outcome would
//! depend on the interleaving of two QPs, so the final memory image is
//! independent of it — the property the differential oracle checks.

use std::fmt;

use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;
use ibsim_verbs::{DeviceProfile, Memory, RecoveryKind, PAGE_SIZE};

use crate::device;

/// Extra simulated time granted past the last post before a run is
/// declared stalled. Generous: the paper's worst damming stalls are
/// hundreds of milliseconds, and simulated seconds are cheap (the event
/// engine only pays for events that exist).
const DRAIN_BUDGET: SimTime = SimTime::from_secs(30);

/// The CPU cost of one iteration of the Fig. 3 loop: posting a verb is
/// not free (~0.5 µs on the paper's hosts), so with `usleep(0)` this
/// alone paces the posts.
pub const POST_OVERHEAD_NS: u64 = 500;

/// How the QPs' windows sit in the two regions (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// QP `i`'s window is bytes `[i*slot, (i+1)*slot)`.
    Disjoint,
    /// Every QP's window is the whole `slot`-byte region.
    Shared,
}

/// Which pages of the ODP regions are mapped before the workload starts.
///
/// The executor maps them while it builds the world: a prefetch
/// scheduled as a t = 0 event would land behind the first post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefetch {
    /// None: every page faults on first touch.
    Off,
    /// Every page — the §IX-A `ibv_advise_mr` workaround ablation.
    All,
    /// Every page but the one the first request touches — §V-C's warm
    /// buffer with a cold first communication (Fig. 8).
    AllButFirst,
}

impl Prefetch {
    fn token(self) -> &'static str {
        match self {
            Prefetch::Off => "0",
            Prefetch::All => "1",
            Prefetch::AllButFirst => "all-but-first",
        }
    }

    fn from_token(s: &str) -> Result<Self, String> {
        match s {
            "0" => Ok(Prefetch::Off),
            "1" => Ok(Prefetch::All),
            "all-but-first" => Ok(Prefetch::AllButFirst),
            other => Err(format!("bad prefetch flag {other:?}")),
        }
    }
}

/// Which host a fault event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The requester host.
    Client,
    /// The responder host.
    Server,
}

impl Side {
    fn token(self) -> &'static str {
        match self {
            Side::Client => "client",
            Side::Server => "server",
        }
    }

    fn from_token(s: &str) -> Result<Self, String> {
        match s {
            "client" => Ok(Side::Client),
            "server" => Ok(Side::Server),
            other => Err(format!("unknown side {other:?}")),
        }
    }
}

/// One typed work request, offsets relative to the posting QP's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrSpec {
    /// RDMA READ of `len` bytes: server window `off` → client window `off`.
    Read {
        /// Byte offset within the QP window (both sides).
        off: u64,
        /// Transfer length in bytes.
        len: u32,
    },
    /// RDMA WRITE of `len` bytes: client window `off` → server window `off`.
    Write {
        /// Byte offset within the QP window (both sides).
        off: u64,
        /// Transfer length in bytes.
        len: u32,
    },
    /// Two-sided SEND of `len` bytes from client window `off`; the
    /// executor posts the matching receive at server window `off`.
    Send {
        /// Byte offset within the QP window (both sides).
        off: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// 8-byte fetch-and-add on the server word at `off` (8-aligned);
    /// the original value lands at client window `off`.
    FetchAdd {
        /// Byte offset of the 8-byte word within the QP window.
        off: u64,
        /// The addend.
        add: u64,
    },
    /// 8-byte compare-and-swap on the server word at `off` (8-aligned);
    /// the original value lands at client window `off`.
    CompareSwap {
        /// Byte offset of the 8-byte word within the QP window.
        off: u64,
        /// Expected current value.
        compare: u64,
        /// Replacement value if it matches.
        swap: u64,
    },
}

impl WrSpec {
    /// Bytes this request occupies in the QP window (both sides).
    pub fn footprint(self) -> (u64, u64) {
        match self {
            WrSpec::Read { off, len } | WrSpec::Write { off, len } | WrSpec::Send { off, len } => {
                (off, len as u64)
            }
            WrSpec::FetchAdd { off, .. } | WrSpec::CompareSwap { off, .. } => (off, 8),
        }
    }

    /// True if the two footprints share at least one byte.
    pub fn overlaps(self, other: WrSpec) -> bool {
        let (a_off, a_len) = self.footprint();
        let (b_off, b_len) = other.footprint();
        !(a_off + a_len <= b_off || b_off + b_len <= a_off)
    }

    /// True if posting `later` after `self` on the *same QP* with
    /// overlapping footprints is an unsequenced buffer race — the
    /// differential oracle's soundness precondition
    /// ([`Scenario::validate`] rejects such workloads).
    ///
    /// Two mechanisms make these pairs unpredictable, and both are
    /// faithful RC semantics rather than simulator artefacts:
    ///
    /// * **Gather at transmit.** A WRITE/SEND DMA-reads its payload from
    ///   client memory when each packet goes on the wire, while an
    ///   earlier outstanding READ or atomic lands its response bytes in
    ///   the client window only when the response arrives. If the source
    ///   and landing ranges overlap, the payload snapshot races the
    ///   landing — real ibverbs makes the same non-guarantee (reusing a
    ///   buffer before its completion polls is a user bug).
    /// * **Duplicate-READ re-execution.** A responder replays a
    ///   duplicate READ request from *current* memory (IBA allows this).
    ///   If the original response is lost and a later request already
    ///   mutated overlapping server bytes, the replay returns
    ///   post-mutation data instead of what the sequential order saw.
    ///
    /// Overlaps between two WRITE/SENDs, two READs, or two atomics are
    /// always fine: responder execution is PSN-ordered, duplicate
    /// WRITE/SENDs are re-ACKed without re-applying data, and duplicate
    /// atomics are replayed from the responder's replay cache.
    ///
    /// This rule set is the in-order one; [`WrSpec::races_under`] picks
    /// between it and [`WrSpec::races_unordered`] by backend.
    pub fn races_with_later(self, later: WrSpec) -> bool {
        if !self.overlaps(later) {
            return false; // disjoint footprints never race
        }
        let later_mutates = !matches!(later, WrSpec::Read { .. });
        match self {
            // Earlier READ: its client landing races a later payload
            // gather, and its duplicate replay races any later
            // server-side mutation.
            WrSpec::Read { .. } => later_mutates,
            // Earlier atomic: its client landing races a later payload
            // gather; server-side duplicates are replay-cached.
            WrSpec::FetchAdd { .. } | WrSpec::CompareSwap { .. } => {
                matches!(later, WrSpec::Write { .. } | WrSpec::Send { .. })
            }
            // Earlier WRITE/SEND: any response that could land in the
            // overlap carries a higher PSN and therefore cumulatively
            // acknowledges this request first — it can no longer be
            // re-gathered once the overlap changes.
            WrSpec::Write { .. } | WrSpec::Send { .. } => false,
        }
    }

    /// The race rule under the `recovery` backend, stated once for
    /// [`Scenario::validate`] and the fuzz generator. A backend that
    /// [accepts requests out of order](RecoveryKind::accepts_out_of_order)
    /// weakens both ordering guarantees [`WrSpec::races_with_later`]
    /// leans on: the responder executes future READ/WRITEs on arrival,
    /// and acking is no longer cumulative (so an unacked WRITE/SEND can
    /// be re-gathered after a later response landed in its source
    /// bytes). There any overlapping same-QP pair except READ/READ is an
    /// unsequenced race, in either posting order.
    pub fn races_under(self, later: WrSpec, recovery: RecoveryKind) -> bool {
        if recovery.accepts_out_of_order() {
            self.races_unordered(later)
        } else {
            self.races_with_later(later)
        }
    }

    /// The race rule where nothing orders the pair — an out-of-order
    /// backend, or two QPs sharing a window: any overlap but READ/READ.
    pub fn races_unordered(self, other: WrSpec) -> bool {
        let both_reads =
            matches!(self, WrSpec::Read { .. }) && matches!(other, WrSpec::Read { .. });
        self.overlaps(other) && !both_reads
    }
}

/// One entry of the fault schedule: invalidate `count` pages of one
/// side's region starting at `page`, at simulated time `at_ns`.
///
/// `count == 1` models a NIC translation-cache eviction of a single
/// page; larger counts model an ODP fault burst (the kernel reclaiming
/// a range, as `madvise(MADV_DONTNEED)` or memory pressure would).
/// Events targeting a pinned region are skipped by the executor: pinned
/// pages can never be reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time the invalidation lands, in nanoseconds.
    pub at_ns: u64,
    /// Which host's region is hit.
    pub side: Side,
    /// First page index invalidated.
    pub page: usize,
    /// Number of consecutive pages invalidated.
    pub count: usize,
}

/// The fabric loss model installed from one point in time onward.
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec {
    /// No injected loss.
    None,
    /// Independent per-frame loss with probability `prob_milli / 1000`.
    /// The rate is carried in integer milli-units so the spec format
    /// round-trips exactly.
    Uniform {
        /// Drop probability in thousandths (47 = 4.7 %).
        prob_milli: u32,
        /// PRNG seed for the per-frame coin flips.
        seed: u64,
    },
    /// Gilbert–Elliott burst loss (see `ibsim_fabric::LossModel::Burst`).
    Burst {
        /// Probability of entering a burst, in thousandths.
        enter_milli: u32,
        /// Probability of leaving a burst, in thousandths.
        exit_milli: u32,
        /// Drop probability while inside a burst, in thousandths. Fuzzed
        /// scenarios keep this well below 1000 so eight consecutive
        /// losses of one request (transport retry exhaustion) stays
        /// astronomically unlikely and the oracle can demand success.
        drop_milli: u32,
        /// PRNG seed for transitions and drop coins.
        seed: u64,
    },
    /// Drop exactly the frames with these 0-based submission indices.
    Nth(
        /// Frame indices to drop, counted from the phase's installation.
        Vec<u64>,
    ),
}

/// One phase of the loss schedule: at `at_ns`, install `model`.
#[derive(Debug, Clone, PartialEq)]
pub struct LossPhase {
    /// Simulated time the model is installed, in nanoseconds.
    pub at_ns: u64,
    /// The loss model active from then on (until the next phase).
    pub model: LossSpec,
}

/// A complete, self-contained conformance scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name (shown in runner tables; no whitespace).
    pub name: String,
    /// Seed driving every random draw inside the simulator.
    pub seed: u64,
    /// RNIC profile on both hosts (`device=` names one of Table I's five,
    /// plus any field an edit moved).
    pub device: DeviceProfile,
    /// Number of RC QP pairs between the client and the server.
    pub qps: usize,
    /// Bytes of each QP's window.
    pub slot: u64,
    /// Where the windows sit. Specs without a `layout=` line parse to
    /// disjoint windows.
    pub layout: Layout,
    /// Register the client region with On-Demand Paging.
    pub client_odp: bool,
    /// Register the server region with On-Demand Paging.
    pub server_odp: bool,
    /// ODP pages mapped before the first post.
    pub prefetch: Prefetch,
    /// Local ACK Timeout field `C_ack` on every QP (5 bits: at most 31).
    pub cack: u8,
    /// Transport retry budget `C_retry` on every QP (3 bits: at most 7).
    pub retry_count: u8,
    /// Minimal RNR NAK delay advertised by every QP, in nanoseconds.
    pub min_rnr_delay_ns: u64,
    /// Gap between consecutive posts of the workload loop, in
    /// nanoseconds (the Fig. 3 `usleep(interval)`).
    pub post_interval_ns: u64,
    /// Loss-recovery backend on every QP. Defaults to go-back-N (the
    /// hardware the paper measured); specs without a `recovery=` line
    /// parse to that default, so pre-facet reproducers stay valid.
    pub recovery: RecoveryKind,
    /// The workload: `(qp index, request)`, posted in list order with
    /// the global list position as the work-request id.
    pub wrs: Vec<(usize, WrSpec)>,
    /// The fault schedule (ODP invalidation bursts / cache evictions).
    pub faults: Vec<FaultEvent>,
    /// The loss schedule (fabric loss model changes over time).
    pub loss: Vec<LossPhase>,
    /// Number of PDES shards to execute on (1 = the sequential engine).
    /// Any value must reproduce the shard-count-1 trace byte for byte;
    /// the facet exists so the conformance battery and fuzzer can
    /// exercise the sharded executor through the same spec pipeline.
    pub shards: usize,
    /// Fabric topology routing the two hosts' traffic. Defaults to the
    /// single-switch crossbar (the hardware shape every golden trace is
    /// pinned against); specs without a `topology=` line parse to that
    /// default, so pre-facet reproducers stay valid.
    pub topology: ibsim_fabric::TopologyKind,
}

impl Scenario {
    /// A minimal baseline scenario: one QP, pinned memory, no faults, no
    /// loss — callers override fields from here.
    pub fn base(name: &str) -> Self {
        Scenario {
            name: name.to_owned(),
            seed: 1,
            device: DeviceProfile::connectx4(LinkSpec::fdr()),
            qps: 1,
            slot: 256,
            layout: Layout::Disjoint,
            client_odp: false,
            server_odp: false,
            prefetch: Prefetch::Off,
            cack: 1,
            retry_count: 7,
            min_rnr_delay_ns: 1_280_000,
            post_interval_ns: 1_000,
            recovery: RecoveryKind::GoBackN,
            wrs: Vec::new(),
            faults: Vec::new(),
            loss: Vec::new(),
            shards: 1,
            topology: ibsim_fabric::TopologyKind::Crossbar,
        }
    }

    /// The paper's Fig. 3 micro-benchmark with the §V defaults:
    ///
    /// ```c
    /// for (i = 0; i < num_ops; i++) {
    ///     local  = &local_buf[size * i];
    ///     remote = &remote_buf[size * i];
    ///     QP     = QPs[i % num_QPs];
    ///     post_rdma_read(local, remote, QP, size);
    ///     usleep(interval);
    /// }
    /// ```
    ///
    /// `ops` READs of `size` bytes over `qps` QPs sharing one buffer,
    /// posted `interval` plus [`POST_OVERHEAD_NS`] apart, on the KNL's
    /// ConnectX-4 with both-side ODP, a 1.28 ms minimal RNR NAK delay,
    /// `C_ack = 1` and `C_retry = 7`. Every §V and §VI experiment is a
    /// setting of it (`ibsim-odp`'s crate docs run the §V-A one);
    /// callers override fields from here.
    pub fn fig3_loop(ops: usize, qps: usize, size: u32, interval: SimTime) -> Self {
        let mut sc = Scenario::base("fig3");
        sc.qps = qps;
        sc.slot = ops as u64 * u64::from(size);
        sc.layout = Layout::Shared;
        (sc.client_odp, sc.server_odp) = (true, true);
        sc.post_interval_ns = interval.as_ns() + POST_OVERHEAD_NS;
        sc.wrs = (0..ops)
            .map(|i| {
                let off = i as u64 * u64::from(size);
                (i % qps.max(1), WrSpec::Read { off, len: size })
            })
            .collect();
        sc
    }

    /// The §V-A damming probe: two 100 B READs 1 ms apart on one QP,
    /// both-side ODP. The second request lands in the first one's fault
    /// window and waits out the Local ACK Timeout.
    pub fn damming_probe() -> Self {
        Scenario::fig3_loop(2, 1, 100, SimTime::from_ms(1))
    }

    /// The §VI flood probe (Fig. 11a): `qps` QPs, one 32 B READ each into
    /// one shared client-side ODP buffer, `C_ack = 18` so the transport
    /// timer stays out of the storm.
    pub fn flood_probe(qps: usize) -> Self {
        let mut sc = Scenario::fig3_loop(qps, qps, 32, SimTime::ZERO);
        (sc.server_odp, sc.cack) = (false, 18);
        sc
    }

    /// Total length in bytes of each host's region.
    pub fn region_len(&self) -> u64 {
        match self.layout {
            Layout::Disjoint => self.qps as u64 * self.slot,
            Layout::Shared => self.slot,
        }
    }

    /// Where QP `qp`'s window starts in both regions.
    pub fn window(&self, qp: usize) -> u64 {
        match self.layout {
            Layout::Disjoint => qp as u64 * self.slot,
            Layout::Shared => 0,
        }
    }

    /// Checks `cack` and `retry_count` against the widths IBTA gives the
    /// fields; a QP would otherwise clamp `C_ack` to 31 without a word.
    pub(crate) fn check_field_widths(&self) -> Result<(), FieldWidthError> {
        match (self.cack, self.retry_count) {
            (cack @ 32.., _) => Err(FieldWidthError::Cack(cack)),
            (_, retry @ 8..) => Err(FieldWidthError::Retry(retry)),
            _ => Ok(()),
        }
    }

    /// Simulated drain deadline: one post every `post_interval_ns`, then
    /// the drain budget; `None` if that overflows the clock.
    pub(crate) fn drain_deadline(&self) -> Option<SimTime> {
        let posts = (self.wrs.len() as u64).checked_mul(self.post_interval_ns)?;
        SimTime::from_ns(posts).checked_add(DRAIN_BUDGET)
    }

    /// Validates internal consistency; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.contains(char::is_whitespace) {
            return Err(format!("bad name {:?}", self.name));
        }
        self.check_field_widths().map_err(|e| e.to_string())?;
        if self.qps == 0 {
            return Err("need at least one QP".into());
        }
        if self.slot == 0 {
            return Err("slot must be positive".into());
        }
        // Every later `region_len` and window offset is within this.
        let region = match self.layout {
            Layout::Disjoint => (self.qps as u64).checked_mul(self.slot),
            Layout::Shared => Some(self.slot),
        };
        let Some(region) = region else {
            return Err(format!(
                "{} QPs of {} bytes overflow a 64-bit region",
                self.qps, self.slot
            ));
        };
        // Each host allocates its region above the zero page, and no
        // host address reaches `Memory::ADDR_LIMIT`.
        if region > Memory::ADDR_LIMIT - PAGE_SIZE {
            return Err(format!(
                "a {region}-byte region reaches past the {:#x} address ceiling",
                Memory::ADDR_LIMIT
            ));
        }
        let link = self.device.link.validate();
        link.map_err(|e| format!("device link: {e}"))?;
        // Every post time and the run's deadline are within this.
        if self.drain_deadline().is_none() {
            return Err(format!(
                "{} posts {} ns apart and a {} drain overflow the simulated clock",
                self.wrs.len(),
                self.post_interval_ns,
                DRAIN_BUDGET
            ));
        }
        if self.shards == 0 || self.shards > 16 {
            return Err(format!("shards {} outside 1..=16", self.shards));
        }
        for (i, &(qp, wr)) in self.wrs.iter().enumerate() {
            if qp >= self.qps {
                return Err(format!("wr {i} targets QP {qp} of {}", self.qps));
            }
            let (off, len) = wr.footprint();
            if len == 0 {
                return Err(format!("wr {i} has zero length"));
            }
            if off.checked_add(len).is_none_or(|end| end > self.slot) {
                return Err(format!(
                    "wr {i} spans {len} bytes from {off}, outside slot {}",
                    self.slot
                ));
            }
            if matches!(wr, WrSpec::FetchAdd { .. } | WrSpec::CompareSwap { .. }) && off % 8 != 0 {
                return Err(format!("atomic wr {i} offset {off} not 8-aligned"));
            }
        }
        // Oracle soundness precondition: no unsequenced buffer races
        // between same-QP requests (see `WrSpec::races_under`), nor
        // between two QPs sharing a window, which nothing orders.
        let shared = self.layout == Layout::Shared;
        for (j, &(qp_j, wr_j)) in self.wrs.iter().enumerate() {
            for &(qp_i, wr_i) in &self.wrs[..j] {
                let races = if qp_i == qp_j {
                    wr_i.races_under(wr_j, self.recovery)
                } else {
                    shared && wr_i.races_unordered(wr_j)
                };
                if races {
                    return Err(format!(
                        "wr {j} ({wr_j:?}) on QP {qp_j} overlaps an earlier outstanding \
                         {wr_i:?} on QP {qp_i}: unsequenced buffer race under {} \
                         recovery (the reference model assumes sequential buffer \
                         evolution)",
                        self.recovery
                    ));
                }
            }
        }
        let pages = self.region_len().div_ceil(PAGE_SIZE) as usize;
        for (i, f) in self.faults.iter().enumerate() {
            if f.count == 0 {
                return Err(format!("fault {i} invalidates zero pages"));
            }
            if f.page >= pages {
                return Err(format!("fault {i} starts at page {} of {pages}", f.page));
            }
        }
        for (i, p) in self.loss.iter().enumerate() {
            if let LossSpec::Uniform { prob_milli, .. } = p.model {
                if prob_milli > 1000 {
                    return Err(format!("loss phase {i} probability {prob_milli} > 1000"));
                }
            }
            if let LossSpec::Burst {
                enter_milli,
                exit_milli,
                drop_milli,
                ..
            } = p.model
            {
                if enter_milli > 1000 || exit_milli > 1000 || drop_milli > 1000 {
                    return Err(format!("loss phase {i} burst params out of range"));
                }
            }
        }
        Ok(())
    }

    /// Renders the scenario in the line-oriented spec format parsed by
    /// [`Scenario::parse`]. Round-trips exactly.
    pub fn to_spec_string(&self) -> String {
        let mut s = String::new();
        s.push_str("ibsim-scenario v1\n");
        s.push_str(&format!("name={}\n", self.name));
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("device={}\n", device::render(&self.device)));
        s.push_str(&format!("qps={}\n", self.qps));
        s.push_str(&format!("slot={}\n", self.slot));
        // Emitted only when non-default, like the facet block below.
        if self.layout == Layout::Shared {
            s.push_str("layout=shared\n");
        }
        s.push_str(&format!(
            "odp={}{}\n",
            if self.client_odp { "c" } else { "-" },
            if self.server_odp { "s" } else { "-" }
        ));
        s.push_str(&format!("prefetch={}\n", self.prefetch.token()));
        s.push_str(&format!("cack={}\n", self.cack));
        s.push_str(&format!("retry={}\n", self.retry_count));
        s.push_str(&format!("rnr_ns={}\n", self.min_rnr_delay_ns));
        s.push_str(&format!("interval_ns={}\n", self.post_interval_ns));
        s.push_str(&format!("recovery={}\n", self.recovery));
        // `topology=` and `shards=` are emitted only when non-default,
        // in this canonical order, so every pre-facet spec string — and
        // its pinned corpus hash — stays byte-identical (a test pins
        // the facet order itself).
        if self.topology != ibsim_fabric::TopologyKind::Crossbar {
            s.push_str(&format!("topology={}\n", self.topology));
        }
        if self.shards != 1 {
            s.push_str(&format!("shards={}\n", self.shards));
        }
        for &(qp, wr) in &self.wrs {
            match wr {
                WrSpec::Read { off, len } => s.push_str(&format!("wr={qp} read {off} {len}\n")),
                WrSpec::Write { off, len } => s.push_str(&format!("wr={qp} write {off} {len}\n")),
                WrSpec::Send { off, len } => s.push_str(&format!("wr={qp} send {off} {len}\n")),
                WrSpec::FetchAdd { off, add } => s.push_str(&format!("wr={qp} fadd {off} {add}\n")),
                WrSpec::CompareSwap { off, compare, swap } => {
                    s.push_str(&format!("wr={qp} cas {off} {compare} {swap}\n"))
                }
            }
        }
        for f in &self.faults {
            s.push_str(&format!(
                "fault={} {} {} {}\n",
                f.at_ns,
                f.side.token(),
                f.page,
                f.count
            ));
        }
        for p in &self.loss {
            match &p.model {
                LossSpec::None => s.push_str(&format!("loss={} none\n", p.at_ns)),
                LossSpec::Uniform { prob_milli, seed } => {
                    s.push_str(&format!("loss={} uniform {prob_milli} {seed}\n", p.at_ns))
                }
                LossSpec::Burst {
                    enter_milli,
                    exit_milli,
                    drop_milli,
                    seed,
                } => s.push_str(&format!(
                    "loss={} burst {enter_milli} {exit_milli} {drop_milli} {seed}\n",
                    p.at_ns
                )),
                LossSpec::Nth(indices) => {
                    let list: Vec<String> = indices.iter().map(u64::to_string).collect();
                    s.push_str(&format!("loss={} nth {}\n", p.at_ns, list.join(",")));
                }
            }
        }
        s
    }

    /// Parses the spec format produced by [`Scenario::to_spec_string`].
    ///
    /// Each number is read into its field's own type, and only the tokens
    /// the renderer emits are accepted: a value out of range or an unknown
    /// token is an error, never the nearest value.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut lines = text.lines().filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        });
        let header = lines.next().ok_or("empty spec")?;
        if header.trim() != "ibsim-scenario v1" {
            return Err(format!("bad header {header:?}"));
        }
        let mut sc = Scenario::base("unnamed");
        for line in lines {
            let line = line.trim();
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            match key {
                "name" => sc.name = value.to_owned(),
                "seed" => sc.seed = parse_num(value)?,
                "device" => sc.device = device::parse(value)?,
                "qps" => sc.qps = parse_num(value)?,
                "slot" => sc.slot = parse_num(value)?,
                "layout" => {
                    sc.layout = match value {
                        "shared" => Layout::Shared,
                        other => return Err(format!("bad layout {other:?}")),
                    }
                }
                "odp" => {
                    (sc.client_odp, sc.server_odp) = match value {
                        "--" => (false, false),
                        "c-" => (true, false),
                        "-s" => (false, true),
                        "cs" => (true, true),
                        other => return Err(format!("bad odp sides {other:?}")),
                    }
                }
                "prefetch" => sc.prefetch = Prefetch::from_token(value)?,
                "cack" => sc.cack = parse_num(value)?,
                "retry" => sc.retry_count = parse_num(value)?,
                "rnr_ns" => sc.min_rnr_delay_ns = parse_num(value)?,
                "interval_ns" => sc.post_interval_ns = parse_num(value)?,
                "recovery" => sc.recovery = value.parse()?,
                "topology" => sc.topology = value.parse()?,
                "shards" => sc.shards = parse_num(value)?,
                "wr" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() < 3 {
                        return Err(format!("short wr line {line:?}"));
                    }
                    let qp = parse_num(parts[0])?;
                    let wr = match parts[1] {
                        "read" => WrSpec::Read {
                            off: parse_num(parts[2])?,
                            len: arg(&parts, 3)?,
                        },
                        "write" => WrSpec::Write {
                            off: parse_num(parts[2])?,
                            len: arg(&parts, 3)?,
                        },
                        "send" => WrSpec::Send {
                            off: parse_num(parts[2])?,
                            len: arg(&parts, 3)?,
                        },
                        "fadd" => WrSpec::FetchAdd {
                            off: parse_num(parts[2])?,
                            add: arg(&parts, 3)?,
                        },
                        "cas" => WrSpec::CompareSwap {
                            off: parse_num(parts[2])?,
                            compare: arg(&parts, 3)?,
                            swap: arg(&parts, 4)?,
                        },
                        other => return Err(format!("unknown wr kind {other:?}")),
                    };
                    sc.wrs.push((qp, wr));
                }
                "fault" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() != 4 {
                        return Err(format!("bad fault line {line:?}"));
                    }
                    sc.faults.push(FaultEvent {
                        at_ns: parse_num(parts[0])?,
                        side: Side::from_token(parts[1])?,
                        page: parse_num(parts[2])?,
                        count: parse_num(parts[3])?,
                    });
                }
                "loss" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() < 2 {
                        return Err(format!("short loss line {line:?}"));
                    }
                    let at_ns = parse_num(parts[0])?;
                    let model = match parts[1] {
                        "none" => LossSpec::None,
                        "uniform" => LossSpec::Uniform {
                            prob_milli: arg(&parts, 2)?,
                            seed: arg(&parts, 3)?,
                        },
                        "burst" => LossSpec::Burst {
                            enter_milli: arg(&parts, 2)?,
                            exit_milli: arg(&parts, 3)?,
                            drop_milli: arg(&parts, 4)?,
                            seed: arg(&parts, 5)?,
                        },
                        "nth" => {
                            let list = parts.get(2).copied().unwrap_or_default();
                            let indices: Result<Vec<u64>, String> = list
                                .split(',')
                                .filter(|s| !s.is_empty())
                                .map(parse_num)
                                .collect();
                            LossSpec::Nth(indices?)
                        }
                        other => return Err(format!("unknown loss model {other:?}")),
                    };
                    sc.loss.push(LossPhase { at_ns, model });
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        sc.validate()?;
        Ok(sc)
    }
}

/// A QP attribute past the bits IBTA gives its field
/// ([`Scenario::check_field_widths`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldWidthError {
    /// `C_ack`, the 5-bit Local ACK Timeout field, above 31.
    Cack(u8),
    /// `C_retry`, the 3-bit transport retry count, above 7.
    Retry(u8),
}

impl fmt::Display for FieldWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldWidthError::Cack(v) => write!(f, "cack {v} exceeds the 5-bit field (max 31)"),
            FieldWidthError::Retry(v) => write!(f, "retry {v} exceeds the 3-bit field (max 7)"),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (seed {}, {} QPs, {} wrs, {} faults, {} loss phases)",
            self.name,
            self.seed,
            self.qps,
            self.wrs.len(),
            self.faults.len(),
            self.loss.len()
        )
    }
}

/// Parses one integer field with a contextual error.
fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// Fetches and parses positional argument `i` of a spec line.
fn arg<T: std::str::FromStr>(parts: &[&str], i: usize) -> Result<T, String> {
    let s = parts.get(i).ok_or_else(|| format!("missing arg {i}"))?;
    parse_num(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        let mut sc = Scenario::base("sample");
        sc.seed = 99;
        sc.device = DeviceProfile::connectx6();
        sc.qps = 3;
        sc.slot = 512;
        sc.client_odp = true;
        sc.prefetch = Prefetch::All;
        sc.cack = 18;
        sc.post_interval_ns = 5_000;
        sc.wrs = vec![
            (0, WrSpec::Read { off: 0, len: 100 }),
            (1, WrSpec::Write { off: 64, len: 32 }),
            (1, WrSpec::Send { off: 128, len: 8 }),
            (2, WrSpec::FetchAdd { off: 8, add: 7 }),
            (
                2,
                WrSpec::CompareSwap {
                    off: 16,
                    compare: 1,
                    swap: 2,
                },
            ),
        ];
        sc.faults = vec![FaultEvent {
            at_ns: 10_000,
            side: Side::Client,
            page: 0,
            count: 1,
        }];
        sc.loss = vec![
            LossPhase {
                at_ns: 0,
                model: LossSpec::Uniform {
                    prob_milli: 20,
                    seed: 5,
                },
            },
            LossPhase {
                at_ns: 50_000,
                model: LossSpec::Burst {
                    enter_milli: 10,
                    exit_milli: 200,
                    drop_milli: 1000,
                    seed: 6,
                },
            },
            LossPhase {
                at_ns: 80_000,
                model: LossSpec::Nth(vec![3, 9]),
            },
            LossPhase {
                at_ns: 100_000,
                model: LossSpec::None,
            },
        ];
        sc
    }

    #[test]
    fn spec_round_trips_exactly() {
        let sc = sample();
        sc.validate().expect("sample is valid");
        let text = sc.to_spec_string();
        let back = Scenario::parse(&text).expect("parse back");
        assert_eq!(sc, back);
        // And the re-rendered text is byte-identical.
        assert_eq!(text, back.to_spec_string());
    }

    #[test]
    fn recovery_facet_round_trips_every_backend() {
        for kind in RecoveryKind::ALL {
            let mut sc = sample();
            sc.recovery = kind;
            sc.validate().expect("sample is valid under every backend");
            let text = sc.to_spec_string();
            assert!(
                text.contains(&format!("recovery={kind}\n")),
                "facet always emitted"
            );
            let back = Scenario::parse(&text).expect("parse back");
            assert_eq!(sc, back);
            assert_eq!(text, back.to_spec_string());
        }
        // Pre-facet specs (no recovery line) parse to go-back-N.
        let legacy = "ibsim-scenario v1\nname=old\n";
        let sc = Scenario::parse(legacy).expect("parse legacy spec");
        assert_eq!(sc.recovery, RecoveryKind::GoBackN);
        // Unknown tokens are rejected with the kind parser's message.
        let bad = "ibsim-scenario v1\nname=x\nrecovery=tcp\n";
        let err = Scenario::parse(bad).expect_err("unknown backend");
        assert!(err.contains("unknown recovery kind"), "{err}");
    }

    #[test]
    fn topology_facet_round_trips_every_kind() {
        for kind in ibsim_fabric::TopologyKind::ALL_SAMPLES {
            let mut sc = sample();
            sc.topology = kind;
            let text = sc.to_spec_string();
            let back = Scenario::parse(&text).expect("parse back");
            assert_eq!(sc, back);
            assert_eq!(text, back.to_spec_string());
        }
        // Pre-facet specs (no topology line) parse to the crossbar.
        let legacy = "ibsim-scenario v1\nname=old\n";
        let sc = Scenario::parse(legacy).expect("parse legacy spec");
        assert_eq!(sc.topology, ibsim_fabric::TopologyKind::Crossbar);
        let bad = "ibsim-scenario v1\nname=x\ntopology=torus3\n";
        let err = Scenario::parse(bad).expect_err("unknown topology");
        assert!(err.contains("unknown topology kind"), "{err}");
    }

    /// A size whose switch ids do not fit 16 bits used to parse and then
    /// overflow in `attach` mid-run; it is a parse error now, and the
    /// largest size that does parse runs clean through the oracle.
    #[test]
    fn topology_facet_rejects_sizes_that_cannot_route() {
        for token in ["dragonfly40000", "dragonfly32768", "fattree65534"] {
            let text = format!("ibsim-scenario v1\nname=x\ntopology={token}\n");
            let err = Scenario::parse(&text).expect_err(token);
            assert!(err.contains("16-bit"), "{token}: {err}");
        }
        for token in ["dragonfly32767", "fattree43690", "ring65535"] {
            let mut text = sample().to_spec_string();
            text.push_str(&format!("topology={token}\n"));
            let sc = Scenario::parse(&text).expect(token);
            assert_eq!(sc.topology.to_string(), token);
            let report = crate::check_run(&sc, &crate::run_scenario(&sc));
            assert!(report.is_clean(), "{token}:\n{report}");
        }
    }

    /// Pins the canonical facet order (`recovery=` → `topology=` →
    /// `shards=`) and the emit-only-when-non-default rule. Corpus hashes
    /// are FNV over the spec string, so the facet block's byte layout is
    /// load-bearing: reordering it (or emitting defaults) would silently
    /// re-pin every corpus entry.
    #[test]
    fn facet_block_order_is_canonical() {
        let mut sc = sample();
        sc.recovery = RecoveryKind::SelectiveRepeat;
        sc.topology = ibsim_fabric::TopologyKind::FatTree { k: 4 };
        sc.shards = 4;
        let text = sc.to_spec_string();
        assert!(
            text.contains("recovery=irn\ntopology=fattree4\nshards=4\n"),
            "facets must be adjacent lines in canonical order:\n{text}"
        );
        // Defaults vanish individually, never reordering the others.
        sc.topology = ibsim_fabric::TopologyKind::Crossbar;
        let text = sc.to_spec_string();
        assert!(!text.contains("topology="), "default topology is elided");
        assert!(
            text.contains("recovery=irn\nshards=4\n"),
            "remaining facets stay adjacent:\n{text}"
        );
        sc.shards = 1;
        let text = sc.to_spec_string();
        assert!(!text.contains("shards="), "default shards is elided");
        let back = Scenario::parse(&text).expect("parse back");
        assert_eq!(text, back.to_spec_string());
    }

    #[test]
    fn selective_repeat_tightens_the_race_precondition() {
        // WRITE-WRITE overlap: PSN-ordered (safe) under go-back-N,
        // reorderable under out-of-order execution.
        let mut sc = Scenario::base("ww-overlap");
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Write { off: 16, len: 32 }),
        ];
        sc.validate().expect("write-write overlap fine under gbn");
        sc.recovery = RecoveryKind::SelectiveRepeat;
        let err = sc.validate().expect_err("rejected under irn");
        assert!(err.contains("unsequenced buffer race"), "{err}");

        // WRITE-then-READ overlap: cumulative acking makes it safe under
        // go-back-N; non-cumulative acking plus out-of-order READ service
        // does not.
        let mut sc = Scenario::base("wr-overlap");
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Read { off: 0, len: 32 }),
        ];
        sc.validate().expect("write-read overlap fine under gbn");
        sc.recovery = RecoveryKind::SelectiveRepeat;
        assert!(sc.validate().is_err(), "rejected under irn");

        // READ-READ overlap and disjoint mutators stay valid everywhere.
        let mut sc = Scenario::base("irn-safe");
        sc.recovery = RecoveryKind::SelectiveRepeat;
        sc.wrs = vec![
            (0, WrSpec::Read { off: 0, len: 32 }),
            (0, WrSpec::Read { off: 16, len: 32 }),
            (0, WrSpec::Write { off: 64, len: 32 }),
            (0, WrSpec::Send { off: 128, len: 16 }),
        ];
        sc.validate().expect("read-read overlap fine under irn");
        // On-demand pinning keeps go-back-N ordering, so the go-back-N
        // rule applies unchanged.
        let mut sc = Scenario::base("pin-keeps-gbn-rule");
        sc.recovery = RecoveryKind::OnDemandPin;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Write { off: 16, len: 32 }),
        ];
        sc.validate().expect("write-write overlap fine under pin");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("nonsense v9\n").is_err());
        let ok = "ibsim-scenario v1\nname=x\n";
        assert!(Scenario::parse(ok).is_ok());
        assert!(Scenario::parse("ibsim-scenario v1\nwat=1\n").is_err());
        assert!(Scenario::parse("ibsim-scenario v1\nwr=0 levitate 1 2\n").is_err());
    }

    /// A value the field's own type cannot hold, or a token
    /// `to_spec_string` never emits, is an error — not the nearest value
    /// (`cack=300` used to mean 44, `retry=256` 0, `prefetch=yes` off).
    #[test]
    fn parse_rejects_out_of_range_numbers_and_unknown_tokens() {
        for line in [
            "cack=300",
            "cack=-1",
            "cack=32",
            "retry=256",
            "retry=8",
            "prefetch=yes",
            "prefetch=",
            "prefetch=01",
            "odp=sc",
            "odp=c",
            "odp=cs-",
            "odp=",
            "qps=18446744073709551616",
            "shards=-2",
            "wr=-1 read 0 8",
            "fault=0 s 4294967296000000000000 1",
        ] {
            let text = format!("ibsim-scenario v1\nname=x\n{line}\n");
            assert!(Scenario::parse(&text).is_err(), "{line} parsed");
        }
        for line in ["cack=31", "retry=7", "prefetch=0", "odp=-s", "odp=--"] {
            let text = format!("ibsim-scenario v1\nname=x\n{line}\n");
            assert!(Scenario::parse(&text).is_ok(), "{line} rejected");
        }
    }

    /// A span or a region past `u64::MAX` is an error. It used to panic
    /// with an overflow in a debug build and, in a release build, to
    /// wrap into a span that passed the slot check.
    #[test]
    fn parse_rejects_spans_and_regions_that_overflow() {
        for (lines, want) in [
            ("wr=0 read 18446744073709551615 8", "outside slot"),
            ("wr=0 read 18446744073709551608 16", "outside slot"),
            ("wr=0 fadd 18446744073709551608 1", "outside slot"),
            ("qps=4294967296\nslot=4294967296", "overflow"),
            ("qps=2\nslot=9223372036854775808", "overflow"),
        ] {
            let text = format!("ibsim-scenario v1\nname=x\nqps=1\nslot=256\n{lines}\n");
            let err = Scenario::parse(&text).expect_err(lines);
            assert!(err.contains(want), "{lines}: {err}");
        }
    }

    /// A post schedule whose drain deadline is past the simulated clock
    /// is an error. It used to pass, then overflow in `run_scenario`: a
    /// panic in a debug build, a wrapped deadline in a release one.
    #[test]
    fn parse_rejects_a_post_schedule_that_overflows_the_clock() {
        // Two posts: the largest accepted interval puts the deadline at
        // `u64::MAX - 1` ns, and that scenario still runs clean.
        let edge = (u64::MAX - DRAIN_BUDGET.as_ns()) / 2;
        for (interval, ok) in [(edge, true), (edge + 1, false), (u64::MAX, false)] {
            let text = format!(
                "ibsim-scenario v1\nname=x\nqps=1\nslot=256\ninterval_ns={interval}\n\
                 wr=0 read 0 8\nwr=0 read 8 8\n"
            );
            match Scenario::parse(&text) {
                Ok(sc) => {
                    assert!(ok, "{interval} accepted");
                    let run = crate::run_scenario(&sc);
                    assert_eq!(run.end_ns, u64::MAX - 1);
                    let report = crate::check_run(&sc, &run);
                    assert!(report.is_clean(), "{interval}: {report:?}");
                }
                Err(err) => {
                    assert!(!ok, "{interval}: {err}");
                    assert!(err.contains("overflow the simulated clock"), "{err}");
                }
            }
        }
    }

    /// A region past the address ceiling is an error. It used to pass,
    /// then panic in the run's first allocation.
    #[test]
    fn parse_rejects_a_region_past_the_address_ceiling() {
        let top = Memory::ADDR_LIMIT - PAGE_SIZE;
        for (lines, ok) in [
            (format!("qps=1\nslot={top}"), true),
            (format!("qps=1\nslot={}", top + 1), false),
            (format!("qps=2\nslot={}", Memory::ADDR_LIMIT / 2), false),
            (format!("qps=8\nslot={top}\nlayout=shared"), true),
            (format!("qps=8\nslot={}\nlayout=shared", top + 1), false),
        ] {
            let text = format!("ibsim-scenario v1\nname=x\n{lines}\n");
            match Scenario::parse(&text) {
                Ok(_) => assert!(ok, "{lines} accepted"),
                Err(err) => {
                    assert!(!ok, "{lines}: {err}");
                    assert!(err.contains("address ceiling"), "{lines}: {err}");
                }
            }
        }
    }

    #[test]
    fn fig3_loop_round_trips_with_its_facets() {
        let mut sc = Scenario::fig3_loop(64, 4, 100, SimTime::from_us(350));
        sc.prefetch = Prefetch::AllButFirst;
        sc.device = DeviceProfile {
            resume_slots: 64,
            ..DeviceProfile::connectx4(LinkSpec::fdr())
        };
        sc.validate().expect("the Fig. 3 loop is valid");
        assert_eq!(sc.region_len(), 6400);
        assert_eq!(sc.window(3), 0);
        assert_eq!(sc.post_interval_ns, 350_500);
        let text = sc.to_spec_string();
        for line in [
            "device=cx4 resume_slots=64\n",
            "slot=6400\nlayout=shared\n",
            "prefetch=all-but-first\n",
        ] {
            assert!(text.contains(line), "{line:?} missing:\n{text}");
        }
        let back = Scenario::parse(&text).expect("parse back");
        assert_eq!(sc, back);
        assert_eq!(text, back.to_spec_string());
        // The defaults stay off the page.
        let text = sample().to_spec_string();
        assert!(!text.contains("layout=") && text.contains("device=cx6\n"));
    }

    /// Two QPs sharing a window are not ordered at all: only READ/READ
    /// may overlap across them, whatever the backend.
    #[test]
    fn shared_windows_refuse_cross_qp_overlaps() {
        let mut sc = Scenario::base("shared");
        sc.qps = 2;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (1, WrSpec::Write { off: 16, len: 32 }),
        ];
        sc.validate().expect("disjoint windows never meet");
        sc.layout = Layout::Shared;
        let err = sc.validate().expect_err("the windows meet");
        assert!(err.contains("unsequenced buffer race"), "{err}");
        sc.wrs = vec![
            (0, WrSpec::Read { off: 0, len: 32 }),
            (1, WrSpec::Read { off: 16, len: 32 }),
            (1, WrSpec::Write { off: 64, len: 32 }),
        ];
        sc.validate().expect("READ/READ overlap is fine");
    }

    #[test]
    fn validate_catches_bad_specs() {
        let mut sc = sample();
        sc.wrs.push((9, WrSpec::Read { off: 0, len: 1 }));
        assert!(sc.validate().is_err());

        let mut sc = sample();
        sc.wrs.push((0, WrSpec::Read { off: 500, len: 100 }));
        assert!(sc.validate().is_err(), "wr outside slot");

        let mut sc = sample();
        sc.wrs.push((0, WrSpec::FetchAdd { off: 4, add: 1 }));
        assert!(sc.validate().is_err(), "unaligned atomic");

        let mut sc = sample();
        sc.faults.push(FaultEvent {
            at_ns: 0,
            side: Side::Server,
            page: 999,
            count: 1,
        });
        assert!(sc.validate().is_err(), "fault page out of range");

        let mut sc = sample();
        sc.loss.push(LossPhase {
            at_ns: 0,
            model: LossSpec::Uniform {
                prob_milli: 2000,
                seed: 0,
            },
        });
        assert!(sc.validate().is_err(), "probability over 1.0");
    }

    /// `C_ack` has 5 bits and `C_retry` 3: a value past either is refused
    /// by name, never clamped to the widest one.
    #[test]
    fn validate_rejects_cack_and_retry_past_their_field_widths() {
        let mut sc = sample();
        (sc.cack, sc.retry_count) = (31, 7);
        sc.validate().expect("the widest values fit");
        for (cack, retry, want) in [
            (200, 7, FieldWidthError::Cack(200)),
            (31, 8, FieldWidthError::Retry(8)),
        ] {
            (sc.cack, sc.retry_count) = (cack, retry);
            assert_eq!(sc.check_field_widths(), Err(want));
            assert_eq!(sc.validate(), Err(want.to_string()));
        }
    }

    #[test]
    fn validate_rejects_unsequenced_buffer_races() {
        // Later WRITE sourcing bytes an outstanding READ lands into.
        let mut sc = Scenario::base("race-read-write");
        sc.wrs = vec![
            (0, WrSpec::Read { off: 0, len: 32 }),
            (0, WrSpec::Write { off: 16, len: 8 }),
        ];
        let err = sc.validate().expect_err("read/write race must be rejected");
        assert!(err.contains("unsequenced buffer race"), "{err}");

        // Later SEND sourcing an atomic's landing qword.
        let mut sc = Scenario::base("race-atomic-send");
        sc.wrs = vec![
            (0, WrSpec::FetchAdd { off: 64, add: 1 }),
            (0, WrSpec::Send { off: 60, len: 16 }),
        ];
        assert!(sc.validate().is_err(), "atomic/send race must be rejected");

        // Later atomic hitting an outstanding READ's server range
        // (duplicate-READ replay hazard under response loss).
        let mut sc = Scenario::base("race-read-atomic");
        sc.wrs = vec![
            (0, WrSpec::Read { off: 0, len: 32 }),
            (0, WrSpec::FetchAdd { off: 8, add: 1 }),
        ];
        assert!(sc.validate().is_err(), "read/atomic race must be rejected");

        // Safe shapes: different QPs, disjoint ranges, WRITE-then-READ
        // (the response that lands in the overlap cumulatively acks the
        // WRITE first), and overlapping same-kind pairs.
        let mut sc = Scenario::base("race-free");
        sc.qps = 2;
        sc.wrs = vec![
            (0, WrSpec::Read { off: 0, len: 32 }),
            (1, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Write { off: 32, len: 8 }),
            (1, WrSpec::Read { off: 0, len: 32 }),
            (0, WrSpec::Read { off: 0, len: 32 }),
            (0, WrSpec::FetchAdd { off: 40, add: 1 }),
            (
                0,
                WrSpec::CompareSwap {
                    off: 40,
                    compare: 0,
                    swap: 1,
                },
            ),
        ];
        sc.validate().expect("race-free workload must validate");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "ibsim-scenario v1\n\n# a comment\nname=c\n# another\nqps=2\n";
        let sc = Scenario::parse(text).expect("parse");
        assert_eq!(sc.name, "c");
        assert_eq!(sc.qps, 2);
    }
}
