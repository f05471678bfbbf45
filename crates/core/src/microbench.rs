//! The paper's micro-benchmark (Fig. 3) as a library.
//!
//! ```c
//! for (i = 0; i < num_ops; i++) {
//!     local  = &local_buf[size * i];
//!     remote = &remote_buf[size * i];
//!     QP     = QPs[i % num_QPs];
//!     post_rdma_read(local, remote, QP, size);
//!     usleep(interval);
//! }
//! wait();
//! ```
//!
//! Every §V and §VI experiment is a parameterization of this loop; the
//! figure-level sweeps live in [`crate::experiment`].

use ibsim_event::{Engine, QueueStats, SimTime};
use ibsim_verbs::{
    run_plan, Cluster, DeviceProfile, HostId, MrBuilder, MrDesc, MrMode, QpConfig, Qpn, ReadWr,
    RecoveryKind, ShardPlan, Sim, Telemetry, WcStatus, PAGE_SIZE,
};

/// Which side(s) register their buffers with On-Demand Paging (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OdpMode {
    /// No ODP: both buffers pinned (the baseline).
    None,
    /// Only the server (responder) buffer uses ODP.
    ServerSide,
    /// Only the client (requester) buffer uses ODP.
    ClientSide,
    /// Both buffers use ODP.
    BothSide,
}

impl OdpMode {
    /// All four modes in Fig. 9's legend order.
    pub const ALL: [OdpMode; 4] = [
        OdpMode::None,
        OdpMode::ServerSide,
        OdpMode::ClientSide,
        OdpMode::BothSide,
    ];

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            OdpMode::None => "No ODP",
            OdpMode::ServerSide => "Server-side ODP",
            OdpMode::ClientSide => "Client-side ODP",
            OdpMode::BothSide => "Both-side ODP",
        }
    }

    fn server_mode(self) -> MrMode {
        match self {
            OdpMode::ServerSide | OdpMode::BothSide => MrMode::Odp,
            _ => MrMode::Pinned,
        }
    }

    fn client_mode(self) -> MrMode {
        match self {
            OdpMode::ClientSide | OdpMode::BothSide => MrMode::Odp,
            _ => MrMode::Pinned,
        }
    }
}

/// Parameters of one micro-benchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// RNIC model on both hosts.
    pub device: DeviceProfile,
    /// Message size per READ (paper §V default: 100 bytes).
    pub size: u32,
    /// Number of READ operations.
    pub num_ops: usize,
    /// Number of queue pairs; ops are assigned round-robin.
    pub num_qps: usize,
    /// Sleep between consecutive posts (`usleep(interval)`).
    pub interval: SimTime,
    /// CPU cost of one `post_rdma_read` iteration of the Fig. 3 loop
    /// (verb posting is not free; ~0.5 µs on the paper's hosts). With
    /// `interval = 0` this is what paces the posting loop.
    pub post_overhead: SimTime,
    /// ODP sides.
    pub odp: OdpMode,
    /// Minimal RNR NAK delay advertised by the responder.
    pub min_rnr_delay: SimTime,
    /// Local ACK Timeout field (`C_ack`).
    pub cack: u8,
    /// Transport retry budget (`C_retry`).
    pub retry_count: u8,
    /// Seed for fault-latency jitter.
    pub seed: u64,
    /// Record an `ibdump`-style capture at the client.
    pub capture: bool,
    /// §V-C variant: pre-touch every buffer page except the first
    /// communication's page.
    pub touch_all_but_first: bool,
    /// Record sim-time telemetry (metric registry + fault-lifecycle
    /// spans) during the run; read it back via
    /// [`Cluster::telemetry`] on [`MicrobenchRun::cluster`].
    pub telemetry: bool,
    /// Loss-recovery backend on every QP (the ablation knob). Defaults
    /// to [`RecoveryKind::GoBackN`], the hardware the paper measured.
    pub recovery: RecoveryKind,
}

impl Default for MicrobenchConfig {
    /// The §V defaults: KNL-like ConnectX-4, 100-byte messages, one QP,
    /// both-side ODP, 1.28 ms minimal RNR NAK delay, `C_ack = 1`,
    /// `C_retry = 7`.
    fn default() -> Self {
        MicrobenchConfig {
            device: DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
            size: 100,
            num_ops: 2,
            num_qps: 1,
            interval: SimTime::ZERO,
            post_overhead: SimTime::from_ns(500),
            odp: OdpMode::BothSide,
            min_rnr_delay: SimTime::from_ms_f64(1.28),
            cack: 1,
            retry_count: 7,
            seed: 1,
            capture: false,
            touch_all_but_first: false,
            telemetry: false,
            recovery: RecoveryKind::GoBackN,
        }
    }
}

impl MicrobenchConfig {
    /// The buffer page index op `i` touches (Fig. 10's layout).
    pub fn page_of_op(&self, i: usize) -> usize {
        (i * self.size as usize) / PAGE_SIZE as usize
    }

    /// Total buffer pages involved.
    pub fn pages_involved(&self) -> usize {
        if self.num_ops == 0 {
            0
        } else {
            self.page_of_op(self.num_ops - 1) + 1
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct MicrobenchRun {
    /// Completion time of each op, indexed by op number; `None` if the op
    /// failed (e.g. `IBV_WC_RETRY_EXC_ERR`).
    pub op_completions: Vec<Option<SimTime>>,
    /// Time of the last completion — the benchmark's execution time.
    pub execution_time: SimTime,
    /// Transport timeouts that fired on the client.
    pub timeouts: u64,
    /// Request retransmissions from the client.
    pub retransmissions: u64,
    /// READ responses discarded by client-side ODP.
    pub responses_discarded: u64,
    /// Network page faults (both sides).
    pub faults: u64,
    /// Pages pinned on first touch (both sides); nonzero only under
    /// [`RecoveryKind::OnDemandPin`].
    pub pages_pinned: u64,
    /// Every packet submitted, as `ibdump` would count them.
    pub total_packets: u64,
    /// Ops that completed with an error status.
    pub errors: usize,
    /// True if every successful READ returned the expected bytes.
    pub data_ok: bool,
    /// The cluster after the run (capture, per-QP stats, driver stats).
    pub cluster: Cluster,
    /// Client host id within [`MicrobenchRun::cluster`].
    pub client: HostId,
    /// Server host id within [`MicrobenchRun::cluster`].
    pub server: HostId,
}

impl MicrobenchRun {
    /// True if at least one transport timeout fired (the §V "packet
    /// damming" signature at micro-benchmark level).
    pub fn timed_out(&self) -> bool {
        self.timeouts > 0
    }

    /// The client capture rendered as an `ibdump`-style timeline.
    pub fn client_timeline(&self) -> String {
        self.cluster.capture(self.client).timeline()
    }

    /// Completion times grouped per buffer page (Fig. 11's series).
    pub fn completions_per_page(&self, cfg: &MicrobenchConfig) -> Vec<Vec<SimTime>> {
        let mut per_page = vec![Vec::new(); cfg.pages_involved()];
        for (i, t) in self.op_completions.iter().enumerate() {
            if let Some(t) = t {
                per_page[cfg.page_of_op(i)].push(*t);
            }
        }
        for v in &mut per_page {
            v.sort_unstable();
        }
        per_page
    }
}

/// What `build_microbench` wires up besides the engine and cluster.
struct Setup {
    client: HostId,
    server: HostId,
    local: MrDesc,
    pattern: Vec<u8>,
}

/// Builds the two-host micro-benchmark world and schedules the Fig. 3
/// posting loop. With `shard` set, the replica is converted to that
/// shard of a sharded run, and [`Cluster::post_at`] leaves the posts
/// (the only build-time events) to the client's owner.
fn build_microbench(
    cfg: &MicrobenchConfig,
    shard: Option<(usize, &[usize])>,
) -> (Sim, Cluster, Setup) {
    assert!(cfg.num_ops > 0, "need at least one op");
    assert!(cfg.num_qps > 0, "need at least one QP");
    assert!(cfg.size > 0, "need a positive message size");

    let mut eng = Engine::new();
    let mut cl = Cluster::new(cfg.seed);
    if cfg.telemetry {
        cl.telemetry_enable();
    }
    let client = cl.add_host("client", cfg.device.clone());
    let server = cl.add_host("server", cfg.device.clone());
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }

    let buf_len = cfg.num_ops as u64 * cfg.size as u64;
    let remote = cl.mr(server, MrBuilder::new(buf_len, cfg.odp.server_mode()));
    let local = cl.mr(client, MrBuilder::new(buf_len, cfg.odp.client_mode()));

    // Fill the server buffer with a recognizable pattern.
    let pattern: Vec<u8> = (0..buf_len as u32).map(|i| (i % 241) as u8).collect();
    // mem_write touches the OS pages only: the NIC mapping is independent
    // of OS residency and stays cold for the experiment.
    cl.mem_write(server, remote.base, &pattern);
    if cfg.touch_all_but_first {
        touch_all_but_first(&mut cl, &local, &remote, cfg);
    }
    if cfg.capture {
        cl.capture_enable(client);
    }

    let qp_cfg = QpConfig {
        cack: cfg.cack,
        retry_count: cfg.retry_count,
        min_rnr_delay: cfg.min_rnr_delay,
        recovery: cfg.recovery,
        ..QpConfig::default()
    };
    let qps: Vec<(Qpn, Qpn)> = (0..cfg.num_qps)
        .map(|_| cl.connect_pair(&mut eng, client, server, qp_cfg.clone()))
        .collect();

    // The Fig. 3 loop: post op i at time i * interval on QP i % num_QPs.
    for i in 0..cfg.num_ops {
        let (qa, _) = qps[i % cfg.num_qps];
        let off = i as u64 * cfg.size as u64;
        let at = (cfg.interval + cfg.post_overhead) * i as u64;
        let read = ReadWr::new(local.at(off), remote.at(off)).len(cfg.size);
        cl.post_at(&mut eng, at, client, qa, read.id(i as u64));
    }
    let setup = Setup {
        client,
        server,
        local,
        pattern,
    };
    (eng, cl, setup)
}

/// Drains the client CQ and verifies the read-back data.
fn collect_client(
    cl: &mut Cluster,
    setup: &Setup,
    cfg: &MicrobenchConfig,
) -> (Vec<Option<SimTime>>, SimTime, usize, bool) {
    let mut op_completions = vec![None; cfg.num_ops];
    let mut errors = 0;
    let mut last = SimTime::ZERO;
    for c in cl.poll_cq(setup.client) {
        let idx = c.wr_id.0 as usize;
        if c.status == WcStatus::Success {
            op_completions[idx] = Some(c.at);
            last = last.max(c.at);
        } else {
            errors += 1;
        }
    }
    let mut data_ok = true;
    for (i, t) in op_completions.iter().enumerate() {
        if t.is_some() {
            let off = i as u64 * cfg.size as u64;
            let got = cl.mem_read(setup.client, setup.local.base + off, cfg.size as usize);
            let want = &setup.pattern[off as usize..off as usize + cfg.size as usize];
            if got != want {
                data_ok = false;
            }
        }
    }
    (op_completions, last, errors, data_ok)
}

/// Runs the micro-benchmark once.
///
/// # Panics
///
/// Panics if `num_ops` or `num_qps` is zero, or `size` is zero.
pub fn run_microbench(cfg: &MicrobenchConfig) -> MicrobenchRun {
    let (mut eng, mut cl, setup) = build_microbench(cfg, None);
    eng.run(&mut cl);
    if cfg.telemetry {
        cl.sync_telemetry_at(&eng, eng.now());
    }
    let (op_completions, last, errors, data_ok) = collect_client(&mut cl, &setup, cfg);
    let client_stats = cl.qp_stats_sum(setup.client);
    let server_stats = cl.qp_stats_sum(setup.server);
    let faults = server_stats.faults_raised + client_stats.faults_raised;
    MicrobenchRun {
        op_completions,
        execution_time: last,
        timeouts: client_stats.timeouts,
        retransmissions: client_stats.retransmissions,
        responses_discarded: client_stats.responses_discarded,
        faults,
        pages_pinned: server_stats.pages_pinned + client_stats.pages_pinned,
        total_packets: cl.stats.total_packets,
        errors,
        data_ok,
        cluster: cl,
        client: setup.client,
        server: setup.server,
    }
}

/// The shard-count-invariant view of one micro-benchmark run: everything
/// the cross-shard conformance battery compares between a sequential run
/// and a sharded one. The telemetry hub is canonically ordered (spans
/// sorted by completion, the non-mergeable `event.peak_depth` gauge
/// dropped) so [`ibsim_verbs::export_jsonl`] output is byte-equal
/// across shard counts.
#[derive(Debug)]
pub struct MicrobenchDigest {
    /// The client capture rendered as an `ibdump`-style timeline (the
    /// string the golden FNV hashes pin).
    pub client_timeline: String,
    /// Completion time of each op, indexed by op number.
    pub op_completions: Vec<Option<SimTime>>,
    /// Time of the last successful completion.
    pub execution_time: SimTime,
    /// Transport timeouts on the client.
    pub timeouts: u64,
    /// Request retransmissions from the client.
    pub retransmissions: u64,
    /// READ responses discarded by client-side ODP.
    pub responses_discarded: u64,
    /// Network page faults (both sides).
    pub faults: u64,
    /// Pages pinned on first touch (both sides).
    pub pages_pinned: u64,
    /// Every packet submitted.
    pub total_packets: u64,
    /// Ops completing with an error status.
    pub errors: usize,
    /// True if every successful READ returned the expected bytes.
    pub data_ok: bool,
    /// The (merged, canonically ordered) telemetry hub.
    pub telemetry: Telemetry,
    /// The (merged) engine queue statistics; `peak_depth` is zeroed.
    pub queue_stats: QueueStats,
}

/// Builds, runs and collects the micro-benchmark under an explicit
/// [`ShardPlan`] through [`run_plan`], which picks the executor from the
/// plan, and reduces it to the shard-count-invariant digest.
/// `ShardPlan::pair(1)` is the plain engine on the calling thread;
/// `ShardPlan::pair(n)` puts the client on shard 0, the server on shard
/// 1 and leaves further shards idle replicas. The cross-shard
/// conformance battery asserts the digest is identical under every plan.
///
/// # Panics
///
/// Panics as [`run_plan`] does (malformed plan, lookahead violation), or
/// if `num_ops`/`num_qps`/`size` is zero.
pub fn run_microbench_plan(cfg: &MicrobenchConfig, plan: ShardPlan) -> MicrobenchDigest {
    let done = run_plan(
        &plan,
        None,
        |shard| build_microbench(cfg, shard),
        |eng, cl, setup, end| {
            if cfg.telemetry {
                cl.sync_telemetry_at(eng, end);
            }
            // Each host's artifacts come from the replica that owns it.
            let client = cl.owns(setup.client).then(|| {
                let collected = collect_client(cl, &setup, cfg);
                let timeline = cl.capture(setup.client).timeline();
                (collected, cl.qp_stats_sum(setup.client), timeline)
            });
            let server = cl.owns(setup.server).then(|| cl.qp_stats_sum(setup.server));
            (client, server, cl.stats.total_packets)
        },
    );
    let mut client = None;
    let mut server = None;
    let mut total_packets = 0;
    for (c, s, n) in done.shards {
        client = client.or(c);
        server = server.or(s);
        total_packets += n;
    }
    let (Some((collected, cs, client_timeline)), Some(ss)) = (client, server) else {
        unreachable!("invariant: exactly one replica owns each host");
    };
    let (op_completions, last, errors, data_ok) = collected;
    MicrobenchDigest {
        client_timeline,
        op_completions,
        execution_time: last,
        timeouts: cs.timeouts,
        retransmissions: cs.retransmissions,
        responses_discarded: cs.responses_discarded,
        faults: cs.faults_raised + ss.faults_raised,
        pages_pinned: cs.pages_pinned + ss.pages_pinned,
        total_packets,
        errors,
        data_ok,
        telemetry: done.telemetry,
        queue_stats: done.queue,
    }
}

/// Pre-touches every page of both buffers except the one used by the
/// first communication (§V-C).
fn touch_all_but_first(cl: &mut Cluster, local: &MrDesc, remote: &MrDesc, cfg: &MicrobenchConfig) {
    if cfg.odp.client_mode() == MrMode::Odp {
        cl.prefetch_mr(local.host, local.key);
        cl.invalidate_page(local.host, local.key, cfg.page_of_op(0));
    }
    if cfg.odp.server_mode() == MrMode::Odp {
        cl.prefetch_mr(remote.host, remote.key);
        cl.invalidate_page(remote.host, remote.key, cfg.page_of_op(0));
    }
}

/// Fraction of `trials` (different seeds) in which at least one transport
/// timeout fired — the y-axis of Figures 6 and 7.
pub fn timeout_probability(cfg: &MicrobenchConfig, trials: u64) -> f64 {
    let mut hits = 0;
    for t in 0..trials {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(t + 1);
        if run_microbench(&c).timed_out() {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// Mean execution time over `trials` seeds — the y-axis of Fig. 4.
pub fn average_execution(cfg: &MicrobenchConfig, trials: u64) -> SimTime {
    let total: SimTime = (0..trials)
        .map(|t| {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(t + 1);
            run_microbench(&c).execution_time
        })
        .sum();
    total / trials
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_layout_matches_fig10() {
        let cfg = MicrobenchConfig {
            size: 32,
            num_ops: 512,
            num_qps: 128,
            ..Default::default()
        };
        // 128 ops of 32 B fill exactly one 4096-byte page.
        assert_eq!(cfg.page_of_op(0), 0);
        assert_eq!(cfg.page_of_op(127), 0);
        assert_eq!(cfg.page_of_op(128), 1);
        assert_eq!(cfg.pages_involved(), 4);
    }

    #[test]
    fn fig9_parameters_span_200_pages() {
        let cfg = MicrobenchConfig {
            size: 100,
            num_ops: 8192,
            ..Default::default()
        };
        // "8192 operations and size of communication at 100 bytes with
        // 200 pages involved" (Fig. 9 caption).
        assert_eq!(cfg.pages_involved(), 200);
    }

    #[test]
    fn baseline_run_is_fast_and_correct() {
        let cfg = MicrobenchConfig {
            odp: OdpMode::None,
            num_ops: 8,
            ..Default::default()
        };
        let run = run_microbench(&cfg);
        assert!(!run.timed_out());
        assert_eq!(run.errors, 0);
        assert!(run.data_ok);
        assert!(run.execution_time < SimTime::from_us(100));
        assert!(run.op_completions.iter().all(|t| t.is_some()));
    }

    #[test]
    fn both_side_odp_two_reads_at_1ms_interval_dams() {
        // The headline §V-A result: two READs, 1 ms apart, both-side ODP
        // → several hundred milliseconds.
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(1),
            capture: true,
            ..Default::default()
        };
        let run = run_microbench(&cfg);
        assert!(run.timed_out());
        assert!(run.execution_time >= SimTime::from_ms(400));
        assert!(run.data_ok);
        assert!(run.client_timeline().contains("RNR_NAK"));
    }

    #[test]
    fn probability_is_zero_outside_window() {
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(6),
            ..Default::default()
        };
        assert_eq!(timeout_probability(&cfg, 5), 0.0);
    }

    #[test]
    fn probability_is_one_inside_window() {
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(1),
            ..Default::default()
        };
        assert_eq!(timeout_probability(&cfg, 5), 1.0);
    }

    #[test]
    fn sharded_damming_matches_sequential() {
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(1),
            capture: true,
            telemetry: true,
            ..Default::default()
        };
        let seq = run_microbench_plan(&cfg, ShardPlan::pair(1));
        assert!(seq.timeouts > 0, "damming config must dam");
        for shards in [1, 2, 4] {
            let sh = run_microbench_plan(&cfg, ShardPlan::pair(shards));
            assert_eq!(seq.client_timeline, sh.client_timeline, "shards={shards}");
            assert_eq!(seq.op_completions, sh.op_completions, "shards={shards}");
            assert_eq!(seq.execution_time, sh.execution_time, "shards={shards}");
            assert_eq!(seq.total_packets, sh.total_packets, "shards={shards}");
            assert_eq!(seq.faults, sh.faults, "shards={shards}");
            assert_eq!(seq.queue_stats, sh.queue_stats, "shards={shards}");
            assert_eq!(
                ibsim_verbs::export_jsonl(&seq.telemetry),
                ibsim_verbs::export_jsonl(&sh.telemetry),
                "shards={shards}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a sharded run needs at least one shard")]
    fn zero_shards_is_rejected_with_a_diagnostic() {
        run_microbench_plan(&MicrobenchConfig::default(), ShardPlan::pair(0));
    }

    #[test]
    fn average_execution_reflects_damming() {
        let fast = MicrobenchConfig {
            interval: SimTime::from_ms(6),
            ..Default::default()
        };
        let slow = MicrobenchConfig {
            interval: SimTime::from_ms(1),
            ..Default::default()
        };
        let t_fast = average_execution(&fast, 3);
        let t_slow = average_execution(&slow, 3);
        assert!(
            t_slow > t_fast * 10,
            "damming dominates: {t_slow} vs {t_fast}"
        );
    }
}
