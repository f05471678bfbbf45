//! Hosts, links, and the routed switch fabric.
//!
//! [`Fabric::transit`] tells the verbs layer when a frame sent now from
//! one LID reaches another, or why it is dropped. It walks
//! [`TopologyKind::next_hop`] hop by hop, so a frame makes one table
//! lookup per endpoint and per hop, with no virtual call and no
//! allocation (`tests/frame_path.rs` counts). Congestion signals only
//! observe: an ECN mark never changes a frame's timing, and no recovery
//! backend reacts to the echo.

use std::fmt;

use ibsim_event::{Line, Render, SimTime};

use crate::loss::LossModel;
use crate::routing::{DirectedLink, RouteNode, SwitchId, TopologyKind};

/// A Local IDentifier: the layer-2 address of a port on an InfiniBand
/// subnet. The subnet manager (implicit here) assigns them densely from 1.
///
/// LID 0 is reserved (it is the "permissive" LID in real InfiniBand) and
/// never assigned; sending to an unassigned LID models the paper's
/// Fig. 2 experiment of deliberately mis-addressing a QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lid(pub u16);

impl Lid {
    /// This LID's index in a table dense from LID 1. The reserved LID 0
    /// wraps to an index no table reaches, so it is never found.
    fn slot(self) -> usize {
        usize::from(self.0).wrapping_sub(1)
    }
}

impl Render for Lid {
    fn render(&self, out: &mut Line) {
        out.push(b"lid").uint(u64::from(self.0));
    }
}

impl fmt::Display for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Line::pad(self, f)
    }
}

/// Physical characteristics of one host↔switch link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way propagation + PHY latency of the cable.
    pub latency: SimTime,
    /// Signalling rate in whole gigabits per second. Integral so that
    /// serialization times are exact integer arithmetic (the crate
    /// denies `clippy::float_arithmetic`); every IB speed grade is a whole
    /// number of Gb/s.
    pub bandwidth_gbps: u64,
}

/// Error returned by [`LinkSpec::new`] / [`LinkSpec::validate`] for a
/// physically meaningless link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSpecError {
    /// `bandwidth_gbps` was zero: a link that can never serialize a
    /// frame has no defined serialization time.
    ZeroBandwidth,
}

impl fmt::Display for LinkSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkSpecError::ZeroBandwidth => {
                write!(f, "link bandwidth must be a nonzero number of Gb/s")
            }
        }
    }
}

impl std::error::Error for LinkSpecError {}

impl LinkSpec {
    /// Checked constructor: rejects a zero signalling rate instead of
    /// silently clamping it later (a zero-bandwidth link is a config
    /// bug, not a 1 Gb/s link).
    pub fn new(latency: SimTime, bandwidth_gbps: u64) -> Result<Self, LinkSpecError> {
        let spec = LinkSpec {
            latency,
            bandwidth_gbps,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates a spec built via struct literal (the fields are public
    /// so the speed-grade constants stay ergonomic).
    pub fn validate(&self) -> Result<(), LinkSpecError> {
        if self.bandwidth_gbps == 0 {
            return Err(LinkSpecError::ZeroBandwidth);
        }
        Ok(())
    }

    /// 56 Gb/s FDR (ConnectX-3/4 FDR systems in Table I).
    pub fn fdr() -> Self {
        LinkSpec {
            latency: SimTime::from_ns(300),
            bandwidth_gbps: 56,
        }
    }

    /// 100 Gb/s EDR (ConnectX-4/5 EDR systems in Table I).
    pub fn edr() -> Self {
        LinkSpec {
            latency: SimTime::from_ns(300),
            bandwidth_gbps: 100,
        }
    }

    /// 200 Gb/s HDR (ConnectX-6 systems in Table I).
    pub fn hdr() -> Self {
        LinkSpec {
            latency: SimTime::from_ns(300),
            bandwidth_gbps: 200,
        }
    }

    /// Time to serialize `bytes` onto the wire: `⌈8·bytes / gbps⌉` ns,
    /// in pure integer arithmetic (Gb/s over nanoseconds is bits per
    /// nanosecond, so no unit conversion factor survives).
    ///
    /// # Panics
    ///
    /// Panics on a zero-bandwidth spec, which [`LinkSpec::new`] and
    /// [`Fabric::add_host_with`] reject up front — an invalid link must
    /// fail loudly, not masquerade as a 1 Gb/s one.
    pub fn serialization(&self, bytes: u32) -> SimTime {
        assert!(
            self.bandwidth_gbps != 0,
            "invalid LinkSpec: {}",
            LinkSpecError::ZeroBandwidth
        );
        let bits = bytes as u64 * 8;
        SimTime::from_ns(bits.div_ceil(self.bandwidth_gbps))
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::edr()
    }
}

/// Why a frame did not reach its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No port with that LID exists on the subnet (mis-addressed QP).
    UnknownDestination,
    /// The configured [`LossModel`] discarded the frame.
    Injected,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::UnknownDestination => write!(f, "unknown destination LID"),
            DropReason::Injected => write!(f, "injected loss"),
        }
    }
}

/// The outcome of submitting a frame to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The frame arrives at the destination port at `at`.
    Deliver {
        /// Absolute arrival time at the destination port.
        at: SimTime,
        /// True when a congested inter-switch hop marked the frame
        /// (ECN-style). Always false on the crossbar (no inter-switch
        /// hops) and whenever no marking threshold is configured.
        ecn: bool,
    },
    /// The frame was lost in the fabric.
    Dropped(DropReason),
}

impl Delivery {
    /// Arrival time if delivered.
    pub fn arrival(self) -> Option<SimTime> {
        match self {
            Delivery::Deliver { at, .. } => Some(at),
            Delivery::Dropped(_) => None,
        }
    }
}

/// Per-link traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames sent from the host into the fabric.
    pub tx_frames: u64,
    /// Bytes sent from the host into the fabric.
    pub tx_bytes: u64,
    /// Frames delivered to the host.
    pub rx_frames: u64,
    /// Bytes delivered to the host.
    pub rx_bytes: u64,
    /// Frames from this host that were dropped in the fabric.
    pub dropped: u64,
}

/// Traffic and congestion counters for one *directed* inter-switch link.
///
/// Utilization is `busy_ns` over the observation window; `peak_backlog_ns`
/// is the worst store-and-forward queueing delay any single frame saw at
/// this hop — the per-link peak-demand signal the congestion studies plot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterLinkStats {
    /// Frames forwarded over this directed link.
    pub frames: u64,
    /// Bytes forwarded over this directed link.
    pub bytes: u64,
    /// Total nanoseconds this link spent serializing frames.
    pub busy_ns: u64,
    /// Worst queueing delay (ns) a frame waited for this link.
    pub peak_backlog_ns: u64,
    /// Frames that left this hop carrying an ECN mark.
    pub ecn_marks: u64,
}

#[derive(Debug, Clone)]
struct Port {
    spec: LinkSpec,
    /// The switch this port attaches to: the topology's `attach` of the
    /// port's table index, cached so a frame never recomputes it.
    switch: SwitchId,
    /// Egress (host → switch) serialization horizon.
    egress_busy_until: SimTime,
    /// Switch-egress (switch → host) serialization horizon.
    ingress_busy_until: SimTime,
    stats: LinkStats,
}

/// One directed inter-switch link's FIFO state, filed under its
/// transmitting switch. Created on first traffic so a crossbar fabric
/// (no inter-switch hops) allocates nothing.
#[derive(Debug, Clone, Copy)]
struct InterLink {
    to: SwitchId,
    busy_until: SimTime,
    stats: InterLinkStats,
}

/// Forwarding delay of every switch a frame crosses.
const SWITCH_LATENCY: SimTime = SimTime::from_ns(200);

/// A single-subnet InfiniBand fabric: hosts attach to the switches of a
/// [`TopologyKind`] (default: the historical one-switch
/// [`TopologyKind::Crossbar`], which keeps every pinned trace
/// byte-identical). Frames are store-and-forward FIFO-serialized at every
/// hop.
///
/// The model accounts for:
///
/// * serialization at the sending port (frames queue behind each other),
/// * link propagation latency plus per-switch forwarding delay,
/// * FIFO serialization on each directed inter-switch link of the route,
/// * serialization at the last switch's egress toward the destination,
/// * loss: unknown destination LIDs and an optional injected [`LossModel`],
/// * an optional congestion signal: ECN marking when a hop's queueing
///   delay exceeds a configured threshold (off by default). A mark is
///   accounting only: it never moves a frame, so a marked run's timing
///   is an unmarked one's.
#[derive(Debug)]
pub struct Fabric {
    default_spec: LinkSpec,
    /// Host ports, indexed by [`Lid::slot`] (LIDs are dense from 1).
    ports: Vec<Port>,
    loss: LossModel,
    topology: TopologyKind,
    /// Directed inter-switch links that have carried traffic: row `from`
    /// holds switch `from`'s outgoing links in ascending `to` order.
    /// Rows and entries appear on first traffic, so memory follows the
    /// links in use — never the square of the switch count.
    links: Vec<Vec<InterLink>>,
    /// Queueing delay beyond which a hop ECN-marks the frame.
    ecn_threshold: Option<SimTime>,
    total_frames: u64,
    total_drops: u64,
    total_ecn_marks: u64,
}

impl Fabric {
    /// Creates an empty fabric whose future hosts use `default_spec` links.
    pub fn new(default_spec: LinkSpec) -> Self {
        Fabric {
            default_spec,
            ports: Vec::new(),
            loss: LossModel::None,
            topology: TopologyKind::Crossbar,
            links: Vec::new(),
            ecn_threshold: None,
            total_frames: 0,
            total_drops: 0,
            total_ecn_marks: 0,
        }
    }

    /// Adds a host with the default link spec; returns its assigned LID.
    pub fn add_host(&mut self, name: &str) -> Lid {
        self.add_host_with(name, self.default_spec)
    }

    /// Adds a host with an explicit link spec; returns its assigned LID.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`LinkSpec::validate`] (e.g. zero
    /// bandwidth): an invalid link is a configuration bug and must not
    /// enter the fabric. Panics once the 16-bit LID space is exhausted.
    pub fn add_host_with(&mut self, name: &str, spec: LinkSpec) -> Lid {
        if let Err(e) = spec.validate() {
            panic!("fabric: cannot attach host {name:?}: {e}");
        }
        let index = u16::try_from(self.ports.len())
            .ok()
            .filter(|&i| i < u16::MAX)
            .unwrap_or_else(|| panic!("fabric: cannot attach host {name:?}: out of LIDs"));
        self.ports.push(Port {
            spec,
            switch: self.topology.attach(index),
            egress_busy_until: SimTime::ZERO,
            ingress_busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        });
        Lid(index + 1)
    }

    /// Installs a loss model applied to every frame after routing.
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = loss;
    }

    /// Replaces the switch topology: re-attaches every registered host
    /// and resets all inter-link FIFO state. Intended for construction
    /// time, before any traffic flows.
    ///
    /// # Panics
    ///
    /// Panics if `kind` fails [`TopologyKind::validate`]: an invalid
    /// topology is a configuration bug and must not enter the fabric.
    pub fn set_topology(&mut self, kind: TopologyKind) {
        if let Err(e) = kind.validate() {
            panic!("fabric: invalid topology: {e}");
        }
        self.topology = kind;
        for (port, index) in self.ports.iter_mut().zip(0..) {
            port.switch = kind.attach(index);
        }
        self.links.clear();
    }

    /// The serializable parameters of the installed topology.
    pub fn topology_kind(&self) -> TopologyKind {
        self.topology
    }

    /// Configures congestion signalling: a hop whose queueing delay
    /// exceeds `ecn` marks the frame. `None` disables marking (the
    /// default — plain runs never mark).
    pub fn set_congestion(&mut self, ecn: Option<SimTime>) {
        self.ecn_threshold = ecn;
    }

    /// Traffic counters for `lid`'s link.
    pub fn link_stats(&self, lid: Lid) -> Option<LinkStats> {
        self.ports.get(lid.slot()).map(|p| p.stats)
    }

    /// Traffic/congestion counters for every directed inter-switch link
    /// that has carried traffic, in deterministic `(from, to)` order.
    pub fn inter_links(&self) -> impl Iterator<Item = (SwitchId, SwitchId, InterLinkStats)> + '_ {
        self.links.iter().zip(0..).flat_map(|(row, from)| {
            row.iter()
                .map(move |link| (SwitchId(from), link.to, link.stats))
        })
    }

    /// Total frames submitted to the fabric.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Total frames lost (both unknown-LID and injected).
    pub fn total_drops(&self) -> u64 {
        self.total_drops
    }

    /// Total ECN marks applied across all hops.
    pub fn total_ecn_marks(&self) -> u64 {
        self.total_ecn_marks
    }

    /// The full directed route `src → dst` as host/switch nodes, or
    /// `None` if either endpoint is unregistered. Deterministic: depends
    /// only on the topology and the two LIDs.
    pub fn route(&self, src: Lid, dst: Lid) -> Option<Vec<DirectedLink>> {
        let (s, d) = (self.ports.get(src.slot())?, self.ports.get(dst.slot())?);
        let switches = self.topology.route_switches(s.switch, d.switch);
        let mut hops = Vec::with_capacity(switches.len() + 1);
        let mut prev = RouteNode::Host(src);
        for sw in switches {
            hops.push(DirectedLink {
                from: prev,
                to: RouteNode::Switch(sw),
            });
            prev = RouteNode::Switch(sw);
        }
        hops.push(DirectedLink {
            from: prev,
            to: RouteNode::Host(dst),
        });
        Some(hops)
    }

    /// Minimum one-way latency between two hosts for a frame of `bytes`,
    /// assuming idle links: the exact sum [`Fabric::transit`] produces on
    /// an idle fabric, including every inter-switch store-and-forward
    /// stage of the route, and so a lower bound on any contended
    /// transit.
    pub fn idle_transit(&self, src: Lid, dst: Lid, bytes: u32) -> Option<SimTime> {
        let (s, d) = (self.ports.get(src.slot())?, self.ports.get(dst.slot())?);
        let inter = self.default_spec.serialization(bytes) + self.default_spec.latency;
        let mut t = s.spec.serialization(bytes) + s.spec.latency + SWITCH_LATENCY;
        for _ in self.topology.hops(s.switch, d.switch) {
            t = t + inter + SWITCH_LATENCY;
        }
        Some(t + d.spec.serialization(bytes) + d.spec.latency)
    }

    /// Submits a frame of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Returns the delivery time at the destination port, or the drop
    /// reason. Port serialization state advances even for frames that are
    /// dropped past the sending port (they consumed wire time). Injected
    /// loss is evaluated once, at the first switch, with the submit-time
    /// clock — identical to the historical crossbar behavior regardless
    /// of route length.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a registered host: a NIC cannot transmit from
    /// a port that does not exist.
    pub fn transit(&mut self, now: SimTime, src: Lid, dst: Lid, bytes: u32) -> Delivery {
        self.total_frames += 1;
        // Egress serialization at the source port.
        let src_slot = src.slot();
        let Some(sport) = self.ports.get_mut(src_slot) else {
            panic!("transmit from unregistered port {src}");
        };
        let start = now.max(sport.egress_busy_until);
        let ser = sport.spec.serialization(bytes);
        sport.egress_busy_until = start + ser;
        sport.stats.tx_frames += 1;
        sport.stats.tx_bytes += bytes as u64;
        let src_sw = sport.switch;
        let at_switch = start + ser + sport.spec.latency + SWITCH_LATENCY;

        // Routing: unknown LIDs die at the first switch.
        let dst_slot = dst.slot();
        let Some(dst_sw) = self.ports.get(dst_slot).map(|p| p.switch) else {
            return self.drop_frame(src_slot, DropReason::UnknownDestination);
        };

        // Injected loss (applied post-routing, i.e. in the fabric).
        if self.loss.drop(now, src, dst) {
            return self.drop_frame(src_slot, DropReason::Injected);
        }

        // Inter-switch hops. On the crossbar (and whenever src and dst
        // share a switch) there are none, and `t` is exactly the
        // historical `at_switch` — no arithmetic drift. The walk itself
        // allocates nothing; only a link's first frame creates its entry.
        let mut t = at_switch;
        let mut ecn = false;
        if src_sw != dst_sw {
            let ser = self.default_spec.serialization(bytes);
            let inter_latency = self.default_spec.latency;
            for (from, to) in self.topology.hops(src_sw, dst_sw) {
                let row = usize::from(from.0);
                if self.links.len() <= row {
                    self.links.resize_with(row + 1, Vec::new);
                }
                let out = &mut self.links[row];
                let at = out
                    .binary_search_by_key(&to, |l| l.to)
                    .unwrap_or_else(|at| {
                        let idle = InterLink {
                            to,
                            busy_until: SimTime::ZERO,
                            stats: InterLinkStats::default(),
                        };
                        out.insert(at, idle);
                        at
                    });
                let link = &mut out[at];
                let start = t.max(link.busy_until);
                let wait = start.saturating_sub(t);
                if self.ecn_threshold.is_some_and(|thr| wait > thr) {
                    ecn = true;
                    link.stats.ecn_marks += 1;
                    self.total_ecn_marks += 1;
                }
                link.busy_until = start + ser;
                link.stats.frames += 1;
                link.stats.bytes += bytes as u64;
                link.stats.busy_ns += ser.as_ns();
                link.stats.peak_backlog_ns = link.stats.peak_backlog_ns.max(wait.as_ns());
                t = start + ser + inter_latency + SWITCH_LATENCY;
            }
        }

        // Last-switch egress serialization toward the destination.
        let dport = &mut self.ports[dst_slot];
        let start = t.max(dport.ingress_busy_until);
        let ser = dport.spec.serialization(bytes);
        dport.ingress_busy_until = start + ser;
        dport.stats.rx_frames += 1;
        dport.stats.rx_bytes += bytes as u64;
        Delivery::Deliver {
            at: start + ser + dport.spec.latency,
            ecn,
        }
    }

    /// Accounts one dropped frame against the fabric totals and the
    /// source port at `src_slot`, which [`Fabric::transit`] validated.
    fn drop_frame(&mut self, src_slot: usize, reason: DropReason) -> Delivery {
        self.total_drops += 1;
        self.ports[src_slot].stats.dropped += 1;
        Delivery::Dropped(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hosts() -> (Fabric, Lid, Lid) {
        let mut f = Fabric::new(LinkSpec::fdr());
        let a = f.add_host("a");
        let b = f.add_host("b");
        (f, a, b)
    }

    /// Two hosts on opposite leaves of the smallest fat-tree: every
    /// a→b frame crosses leaf0 → spine → leaf1 (two inter-switch hops).
    fn fat_tree_pair() -> (Fabric, Lid, Lid) {
        let mut f = Fabric::new(LinkSpec::fdr());
        f.set_topology(TopologyKind::FatTree { k: 2 });
        let a = f.add_host("a");
        let b = f.add_host("b");
        (f, a, b)
    }

    #[test]
    fn lids_assigned_densely_from_one() {
        let (f, a, b) = two_hosts();
        assert_eq!(a, Lid(1));
        assert_eq!(b, Lid(2));
        assert!(
            f.link_stats(Lid(0)).is_none(),
            "the reserved LID names no port"
        );
    }

    #[test]
    fn serialization_matches_bandwidth() {
        // 56 Gb/s: 7 bytes per ns, so 56 bytes take 8 ns.
        assert_eq!(LinkSpec::fdr().serialization(56), SimTime::from_ns(8));
        // 100 Gb/s: 4096 bytes take ceil(4096*8/100) = 328 ns.
        assert_eq!(LinkSpec::edr().serialization(4096), SimTime::from_ns(328));
    }

    #[test]
    fn transit_accumulates_all_stages() {
        let (mut f, a, b) = two_hosts();
        let d = f.transit(SimTime::ZERO, a, b, 56);
        // ser(8) + latency(300) + switch(200) + ser(8) + latency(300)
        assert_eq!(
            d,
            Delivery::Deliver {
                at: SimTime::from_ns(816),
                ecn: false
            }
        );
        assert_eq!(f.idle_transit(a, b, 56), Some(SimTime::from_ns(816)));
    }

    #[test]
    fn explicit_crossbar_is_identical_to_the_default() {
        let (mut f, a, b) = two_hosts();
        f.set_topology(TopologyKind::Crossbar);
        assert_eq!(f.topology_kind(), TopologyKind::Crossbar);
        let d = f.transit(SimTime::ZERO, a, b, 56);
        assert_eq!(
            d,
            Delivery::Deliver {
                at: SimTime::from_ns(816),
                ecn: false
            }
        );
        // The crossbar has no inter-switch links, ever.
        assert_eq!(f.inter_links().count(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn installing_an_invalid_topology_panics() {
        Fabric::new(LinkSpec::fdr()).set_topology(TopologyKind::Ring { switches: 0 });
    }

    #[test]
    fn idle_transit_is_what_transit_does_on_an_idle_fabric() {
        let kinds = TopologyKind::ALL_SAMPLES.into_iter().chain([
            TopologyKind::FatTree { k: 4 },
            TopologyKind::FatTree { k: 8 },
            TopologyKind::Ring { switches: 2 },
            TopologyKind::Ring { switches: 5 },
            TopologyKind::Ring { switches: 8 },
            TopologyKind::Dragonfly { groups: 3 },
            TopologyKind::Dragonfly { groups: 4 },
        ]);
        for kind in kinds {
            // One host more than there are switches, so the sweep covers
            // every attachment switch and one pair that shares a switch.
            let hosts = kind.switch_count() + 1;
            for (src, dst) in (1..=hosts).flat_map(|s| (1..=hosts).map(move |d| (Lid(s), Lid(d)))) {
                for bytes in [0, 13, 4096] {
                    let mut f = Fabric::new(LinkSpec::edr());
                    f.set_topology(kind);
                    for h in 0..hosts {
                        f.add_host(&format!("h{h}"));
                    }
                    let idle = f.idle_transit(src, dst, bytes);
                    assert!(idle.is_some(), "{kind} {src}->{dst}");
                    assert_eq!(
                        f.transit(SimTime::ZERO, src, dst, bytes).arrival(),
                        idle,
                        "{kind} {src}->{dst} {bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_transit_adds_store_and_forward_hops() {
        let (mut f, a, b) = fat_tree_pair();
        // Route: host a → leaf0 → spine2 → leaf1 → host b. Per hop:
        // egress ser(8)+lat(300), switch(200) at each of 3 switches,
        // two inter-switch stages of ser(8)+lat(300), dst ser(8)+lat(300):
        // 308 + 3·200 + 2·308 + 308 = 1832 ns.
        let d = f.transit(SimTime::ZERO, a, b, 56);
        assert_eq!(
            d,
            Delivery::Deliver {
                at: SimTime::from_ns(1832),
                ecn: false
            }
        );
        assert_eq!(f.idle_transit(a, b, 56), Some(SimTime::from_ns(1832)));
        // Both directed hops saw exactly one frame.
        let links: Vec<_> = f.inter_links().collect();
        assert_eq!(links.len(), 2);
        for (_, _, stats) in links {
            assert_eq!(stats.frames, 1);
            assert_eq!(stats.bytes, 56);
            assert_eq!(stats.busy_ns, 8);
            assert_eq!(stats.peak_backlog_ns, 0);
        }
    }

    #[test]
    fn reverse_direction_uses_disjoint_links() {
        let (mut f, a, b) = fat_tree_pair();
        f.transit(SimTime::ZERO, a, b, 4096);
        f.transit(SimTime::ZERO, b, a, 4096);
        // Four directed links now exist (two per direction) and neither
        // direction queued behind the other.
        assert_eq!(f.inter_links().count(), 4);
        for (_, _, stats) in f.inter_links() {
            assert_eq!(stats.peak_backlog_ns, 0);
        }
    }

    #[test]
    fn shared_uplink_serializes_competing_frames() {
        // Hosts a (leaf0) and c (leaf0) both target b (leaf1): their
        // frames meet on the leaf0→spine uplink and FIFO-queue.
        let (mut f, _a, b) = fat_tree_pair();
        let c = f.add_host("c"); // host index 2 → leaf 0
        let first = f.transit(SimTime::ZERO, Lid(1), b, 4096).arrival().unwrap();
        let second = f.transit(SimTime::ZERO, c, b, 4096).arrival().unwrap();
        // Same submit time, distinct source ports: the second frame
        // waits one full uplink serialization (586 ns at 56 Gb/s), and
        // then again at the destination port.
        assert!(second > first);
        let backlog: u64 = f
            .inter_links()
            .map(|(_, _, s)| s.peak_backlog_ns)
            .max()
            .unwrap();
        assert_eq!(
            backlog,
            LinkSpec::fdr().serialization(4096).as_ns(),
            "loser of the uplink race waits exactly one serialization"
        );
    }

    #[test]
    fn ecn_marks_frames_past_the_threshold() {
        let (mut f, _a, b) = fat_tree_pair();
        let c = f.add_host("c");
        f.set_congestion(Some(SimTime::from_ns(100)));
        let d1 = f.transit(SimTime::ZERO, Lid(1), b, 4096);
        let d2 = f.transit(SimTime::ZERO, c, b, 4096);
        assert!(matches!(d1, Delivery::Deliver { ecn: false, .. }));
        assert!(
            matches!(d2, Delivery::Deliver { ecn: true, .. }),
            "586 ns uplink wait exceeds the 100 ns ECN threshold: {d2:?}"
        );
        assert_eq!(f.total_ecn_marks(), 1);
    }

    #[test]
    fn congestion_signals_default_off() {
        let (mut f, _a, b) = fat_tree_pair();
        let c = f.add_host("c");
        for _ in 0..8 {
            f.transit(SimTime::ZERO, Lid(1), b, 4096);
            f.transit(SimTime::ZERO, c, b, 4096);
        }
        assert_eq!(f.total_ecn_marks(), 0);
    }

    #[test]
    fn route_composes_hosts_and_switches() {
        let (f, a, b) = fat_tree_pair();
        let route = f.route(a, b).unwrap();
        assert_eq!(route.len(), 4); // host→leaf, leaf→spine, spine→leaf, leaf→host
        assert_eq!(route[0].from, RouteNode::Host(a));
        assert_eq!(route[route.len() - 1].to, RouteNode::Host(b));
        for w in route.windows(2) {
            assert_eq!(w[0].to, w[1].from, "route must be contiguous");
        }
        assert!(f.route(a, Lid(99)).is_none());
        // Crossbar: host → switch → host only.
        let (g, x, y) = two_hosts();
        assert_eq!(g.route(x, y).unwrap().len(), 2);
    }

    #[test]
    fn div_ceil_boundary_holds_at_every_store_and_forward_joint() {
        // 100 Gb/s EDR: 12 bytes serialize in ceil(96/100) = 1 ns but
        // 13 bytes take ceil(104/100) = 2 ns. On a two-inter-hop route
        // there are four serialization points (src, two inter-switch,
        // dst), so the one-byte bump must cost exactly 4 ns end to end.
        let mut f = Fabric::new(LinkSpec::edr());
        f.set_topology(TopologyKind::FatTree { k: 2 });
        let a = f.add_host("a");
        let b = f.add_host("b");
        let t12 = f.idle_transit(a, b, 12).unwrap();
        let t13 = f.idle_transit(a, b, 13).unwrap();
        assert_eq!(t13 - t12, SimTime::from_ns(4));
        // And transit on an idle fabric agrees with the analytical sum.
        assert_eq!(f.transit(SimTime::ZERO, a, b, 13).arrival(), Some(t13));
    }

    #[test]
    fn back_to_back_frames_queue_at_source() {
        let (mut f, a, b) = two_hosts();
        let first = f.transit(SimTime::ZERO, a, b, 4096).arrival().unwrap();
        let second = f.transit(SimTime::ZERO, a, b, 4096).arrival().unwrap();
        // Second frame waits a full serialization (586 ns at 56 Gb/s).
        assert_eq!(second - first, LinkSpec::fdr().serialization(4096));
    }

    #[test]
    fn unknown_lid_drops() {
        let (mut f, a, _) = two_hosts();
        let d = f.transit(SimTime::ZERO, a, Lid(99), 100);
        assert_eq!(d, Delivery::Dropped(DropReason::UnknownDestination));
        assert_eq!(f.total_drops(), 1);
        assert_eq!(f.link_stats(a).unwrap().dropped, 1);
        assert_eq!(d.arrival(), None);
    }

    #[test]
    fn injected_loss_drops_matching_frames() {
        let (mut f, a, b) = two_hosts();
        f.set_loss(LossModel::DropAll);
        assert!(matches!(
            f.transit(SimTime::ZERO, a, b, 100),
            Delivery::Dropped(DropReason::Injected)
        ));
        f.set_loss(LossModel::None);
        assert!(matches!(
            f.transit(SimTime::ZERO, a, b, 100),
            Delivery::Deliver { .. }
        ));
    }

    #[test]
    fn injected_loss_still_fires_on_multi_hop_routes() {
        let (mut f, a, b) = fat_tree_pair();
        f.set_loss(LossModel::DropAll);
        assert!(matches!(
            f.transit(SimTime::ZERO, a, b, 100),
            Delivery::Dropped(DropReason::Injected)
        ));
        // Dropped at the first switch: no inter-link state was touched.
        assert_eq!(f.inter_links().count(), 0);
    }

    #[test]
    fn stats_track_tx_rx() {
        let (mut f, a, b) = two_hosts();
        f.transit(SimTime::ZERO, a, b, 100);
        f.transit(SimTime::ZERO, b, a, 50);
        let sa = f.link_stats(a).unwrap();
        let sb = f.link_stats(b).unwrap();
        assert_eq!(sa.tx_frames, 1);
        assert_eq!(sa.tx_bytes, 100);
        assert_eq!(sa.rx_frames, 1);
        assert_eq!(sa.rx_bytes, 50);
        assert_eq!(sb.tx_frames, 1);
        assert_eq!(sb.rx_bytes, 100);
        assert_eq!(f.total_frames(), 2);
    }

    #[test]
    #[should_panic(expected = "unregistered port")]
    fn transmit_from_unknown_port_panics() {
        let mut f = Fabric::new(LinkSpec::fdr());
        f.transit(SimTime::ZERO, Lid(7), Lid(1), 10);
    }

    #[test]
    fn zero_bandwidth_link_is_rejected() {
        assert_eq!(
            LinkSpec::new(SimTime::from_ns(300), 0),
            Err(LinkSpecError::ZeroBandwidth)
        );
        let bad = LinkSpec {
            latency: SimTime::from_ns(300),
            bandwidth_gbps: 0,
        };
        assert_eq!(bad.validate(), Err(LinkSpecError::ZeroBandwidth));
        // Valid specs round-trip through the checked constructor.
        assert_eq!(
            LinkSpec::new(SimTime::from_ns(300), 56),
            Ok(LinkSpec::fdr())
        );
        assert!(LinkSpec::hdr().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "nonzero number of Gb/s")]
    fn zero_bandwidth_host_cannot_join_fabric() {
        let mut f = Fabric::new(LinkSpec::fdr());
        f.add_host_with(
            "broken",
            LinkSpec {
                latency: SimTime::from_ns(300),
                bandwidth_gbps: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "nonzero number of Gb/s")]
    fn zero_bandwidth_serialization_panics_not_clamps() {
        // Before this was fixed, bandwidth 0 was silently treated as
        // 1 Gb/s; now it fails loudly.
        let bad = LinkSpec {
            latency: SimTime::ZERO,
            bandwidth_gbps: 0,
        };
        let _ = bad.serialization(4096);
    }

    #[test]
    fn loss_order_dependence_classification() {
        let (_, _, b) = two_hosts();
        assert!(!LossModel::None.is_order_dependent());
        assert!(!LossModel::DropAll.is_order_dependent());
        assert!(!LossModel::ToDestination(b).is_order_dependent());
        assert!(LossModel::uniform(500, 7).is_order_dependent());
        assert!(LossModel::nth(vec![3]).is_order_dependent());
        assert!(LossModel::burst(100, 500, 7).is_order_dependent());
    }

    #[test]
    fn heterogeneous_links() {
        let mut f = Fabric::new(LinkSpec::fdr());
        let a = f.add_host_with("fast", LinkSpec::hdr());
        let b = f.add_host_with("slow", LinkSpec::fdr());
        // Arrival dominated by the slower destination link serialization.
        let at = f.transit(SimTime::ZERO, a, b, 4096).arrival().unwrap();
        let expected = LinkSpec::hdr().serialization(4096)
            + SimTime::from_ns(300)
            + SimTime::from_ns(200)
            + LinkSpec::fdr().serialization(4096)
            + SimTime::from_ns(300);
        assert_eq!(at, expected);
    }
}
