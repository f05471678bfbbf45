//! The shared-uplink congestion study: a §VI flood storm and an
//! innocent victim flow contending for the same fat-tree uplink.
//!
//! The paper measures the packet flood's damage to the *faulting*
//! connections; this bench measures its collateral damage. On a
//! two-leaf fat-tree, a storm pair (QPs replaying the §VI flood —
//! READs landing in one cold client-side ODP page, so every response is
//! dropped, every requester times out, and the recovery backend decides
//! how much gets retransmitted) and a victim pair (one QP of small,
//! paced, pinned-memory READs) both route over the single leaf→spine→
//! leaf path. Every retransmitted storm packet re-serializes on the
//! shared uplink ahead of the victim's traffic, so the victim's
//! post-to-completion p99 is a direct congestion gauge:
//!
//! * go-back-N replays the whole outstanding window per timeout — the
//!   flood multiplies itself onto the uplink and the victim's tail
//!   latency inflates accordingly;
//! * IRN-style selective repeat replays only what was actually lost —
//!   measurably less damaging to the bystander at identical offered
//!   load and identical fault schedule.
//!
//! The `congestion` bin asserts both inequalities.

use ibsim_event::SimTime;
use ibsim_fabric::{Fabric, LinkSpec, TopologyKind};
use ibsim_telemetry::{Histogram, Labels};
use ibsim_verbs::{Cluster, DeviceProfile, MrMode, QpConfig, ReadWr, RecoveryKind, Sim};

/// Storm QPs (full scale; `--quick` runs a quarter).
const STORM_QPS: usize = 32;
/// READs posted per storm QP at t = 0.
const STORM_READS: usize = 8;
/// Bytes per storm READ: large responses so retransmitted windows cost
/// real serialization time on the shared uplink.
const STORM_LEN: u32 = 2048;
/// Paced victim READs.
const VICTIM_READS: usize = 100;
/// Victim post pacing, nanoseconds.
const VICTIM_INTERVAL_NS: u64 = 150_000;
/// First victim post. The initial storm burst is identical under every
/// backend (recovery has not engaged yet), so the victim starts sampling
/// after that burst has drained: everything it measures from then on is
/// the backend's own retransmit traffic.
const VICTIM_START_NS: u64 = 1_500_000;

/// By when a run must have quiesced; the full-size storm ends by 0.2 s.
const HORIZON: SimTime = SimTime::from_secs(10);

/// The oversubscribed inter-switch spec: edge ports run full-rate FDR,
/// but the leaf→spine uplinks serialize at 2 Gb/s — the classic
/// oversubscription shape that turns a retransmit storm into queueing
/// delay for everyone sharing the uplink.
fn uplink_spec() -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_ns(300),
        bandwidth_gbps: 2,
    }
}

/// Simulated outcome of one congestion run.
#[derive(Debug, Clone, Copy)]
pub struct CongestionRun {
    /// Victim post-to-completion p99, in nanoseconds (log2-bucket lower
    /// bound, from the victim host's `cq.wr_latency_ns` histogram).
    pub victim_p99_ns: u64,
    /// Victim mean completion latency, nanoseconds.
    pub victim_mean_ns: u64,
    /// Victim completions drained (must equal the posted count — the
    /// pitfalls degrade performance, never correctness).
    pub victim_completions: usize,
    /// Cluster-wide retransmitted request packets (storm recovery
    /// traffic; the victim never faults or times out in practice).
    pub retransmits: u64,
    /// Peak queueing delay observed on any inter-switch link, ns.
    pub uplink_peak_backlog_ns: u64,
    /// ECN marks accumulated across inter-switch links.
    pub ecn_marks: u64,
    /// Simulated end-to-end time.
    pub exec: SimTime,
}

/// p99 from a log2 histogram: the lower bound of the bucket containing
/// the 99th-percentile sample. Bucket resolution is a factor of two,
/// which is ample for the order-of-magnitude gaps this study asserts.
fn p99_ns(h: &Histogram) -> u64 {
    let total = h.count();
    if total == 0 {
        return 0;
    }
    let target = total - total / 100;
    let mut cum = 0u64;
    for (lo, n) in h.nonzero_buckets() {
        cum += n;
        if cum >= target {
            return lo;
        }
    }
    h.max()
}

/// Runs the study's cluster once. `storm` is `None` for the unloaded
/// baseline (storm hosts exist but post nothing, so topology, LIDs and
/// routes are identical) or `Some(backend)` to run the flood on that
/// recovery backend. The victim QP is created first and always runs
/// go-back-N: only the storm's backend varies between runs.
///
/// # Panics
///
/// Panics if the run stalls: events still pending at 10 simulated seconds.
pub fn run_congestion(storm: Option<RecoveryKind>, quick: bool) -> CongestionRun {
    let storm_qps = if quick { STORM_QPS / 4 } else { STORM_QPS };
    let device = DeviceProfile::connectx4(LinkSpec::fdr());

    let mut eng = Sim::new();
    let mut cl = Cluster::new(4242);
    // Replace the fabric before any host attaches: inter-switch hops
    // serialize on the fabric's default spec, so this is where the
    // uplink oversubscription lives.
    cl.fabric = Fabric::new(uplink_spec());
    // Two leaves, one spine: hosts attach to leaves round-robin by add
    // order, so the storm pair (hosts 0, 1) and the victim pair (hosts
    // 2, 3) both cross the unique leaf0→spine→leaf1 path.
    cl.fabric.set_topology(TopologyKind::FatTree { k: 2 });
    // Mark ECN aggressively so the run also exercises the marking and
    // echo path end to end; marking is observational (it changes no
    // packet timing), so it cannot perturb the latency comparison.
    cl.fabric.set_congestion(Some(SimTime::from_ns(500)));
    cl.telemetry_enable();

    let storm_client = cl.add_host("storm-client", device.clone());
    let storm_server = cl.add_host("storm-server", device.clone());
    let victim_client = cl.add_host("victim-client", device.clone());
    let victim_server = cl.add_host("victim-server", device);

    // Victim: one pinned-memory QP, default (go-back-N) recovery.
    let victim_src = cl.alloc_mr(victim_server, 4096, MrMode::Pinned);
    let victim_dst = cl.alloc_mr(victim_client, 4096, MrMode::Pinned);
    let victim_qp = cl
        .connect_pair(&mut eng, victim_client, victim_server, QpConfig::default())
        .0;
    for k in 0..VICTIM_READS {
        let at = SimTime::from_ns(VICTIM_START_NS + k as u64 * VICTIM_INTERVAL_NS);
        let read = ReadWr::new(victim_dst.at((k % 32) as u64 * 64), victim_src).len(64);
        cl.post_at(&mut eng, at, victim_client, victim_qp, read.id(k as u64));
    }

    // Storm: the §VI flood. Every READ lands in one cold client-side
    // ODP page, so the responses race a single fault resolution; C_ack
    // of 6 puts the timeout (~262 µs) inside the resolution window, so
    // the requesters fire while the page is still missing.
    if let Some(kind) = storm {
        let span = STORM_QPS * STORM_READS * STORM_LEN as usize;
        let remote = cl.alloc_mr(storm_server, span as u64, MrMode::Pinned);
        let local = cl.alloc_mr(storm_client, span as u64, MrMode::Odp);
        let cfg = QpConfig {
            cack: 6,
            recovery: kind,
            ..QpConfig::default()
        };
        for q in 0..storm_qps {
            let qp = cl
                .connect_pair(&mut eng, storm_client, storm_server, cfg.clone())
                .0;
            for i in 0..STORM_READS {
                let off = ((q * STORM_READS + i) * STORM_LEN as usize) as u64;
                cl.post(
                    &mut eng,
                    storm_client,
                    qp,
                    ReadWr::new((local.key, off), remote.key)
                        .len(STORM_LEN)
                        .id(i as u64),
                );
            }
        }
    }

    eng.run(&mut cl, HORIZON)
        .unwrap_or_else(|s| panic!("the congestion study {s}"));
    cl.sync_telemetry_at(&eng, eng.now());

    let victim_completions = cl.poll_cq(victim_client).len();
    let (p99, mean) = cl
        .telemetry()
        .registry()
        .histogram("cq.wr_latency_ns", Labels::host(victim_client.0 as u64))
        .map_or((0, 0), |h| (p99_ns(h), h.mean()));
    let mut peak = 0u64;
    let mut marks = 0u64;
    for (_, _, ls) in cl.fabric.inter_links() {
        peak = peak.max(ls.peak_backlog_ns);
        marks += ls.ecn_marks;
    }
    CongestionRun {
        victim_p99_ns: p99,
        victim_mean_ns: mean,
        victim_completions,
        retransmits: cl.stats.retransmit_packets,
        uplink_peak_backlog_ns: peak,
        ecn_marks: marks,
        exec: eng.now(),
    }
}

/// The three-way study: unloaded baseline, go-back-N storm, selective-
/// repeat storm — identical topology, victim and fault schedule.
#[derive(Debug, Clone, Copy)]
pub struct CongestionStudy {
    /// Victim alone on the fabric.
    pub baseline: CongestionRun,
    /// Storm on go-back-N (the hardware the paper measured).
    pub gbn: CongestionRun,
    /// Storm on IRN-style selective repeat.
    pub irn: CongestionRun,
}

/// Runs the full study.
pub fn congestion_study(quick: bool) -> CongestionStudy {
    CongestionStudy {
        baseline: run_congestion(None, quick),
        gbn: run_congestion(Some(RecoveryKind::GoBackN), quick),
        irn: run_congestion(Some(RecoveryKind::SelectiveRepeat), quick),
    }
}

impl CongestionStudy {
    /// The study's two load-bearing inequalities, as `(claim, holds)`
    /// pairs: the flood must inflate the victim's p99, and selective
    /// repeat must be measurably less damaging than go-back-N. The bin
    /// asserts these; CI runs it in `--quick` mode.
    pub fn verdicts(&self) -> [(&'static str, bool); 3] {
        [
            (
                "go-back-N storm inflates the victim p99 over baseline",
                self.gbn.victim_p99_ns > self.baseline.victim_p99_ns,
            ),
            (
                "selective repeat is less damaging than go-back-N",
                self.irn.victim_p99_ns < self.gbn.victim_p99_ns,
            ),
            (
                "every victim READ still completes under both storms",
                self.baseline.victim_completions == VICTIM_READS
                    && self.gbn.victim_completions == VICTIM_READS
                    && self.irn.victim_completions == VICTIM_READS,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_inequalities_hold() {
        let study = congestion_study(true);
        for (claim, holds) in study.verdicts() {
            assert!(holds, "{claim}: {study:?}");
        }
        assert!(
            study.gbn.retransmits > study.irn.retransmits,
            "go-back-N must retransmit more than selective repeat: {study:?}"
        );
        assert_eq!(study.baseline.retransmits, 0, "unloaded baseline is clean");
        assert!(study.gbn.ecn_marks > 0, "the storm must trip ECN marking");
    }
}
