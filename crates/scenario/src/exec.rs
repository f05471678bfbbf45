//! The scenario executor — the one way the repository builds and runs a
//! two-host world, the paper's figures included: spins up the cluster,
//! installs the fault and loss schedules as engine events, posts the
//! workload, runs the simulation up to the scenario's drain deadline and
//! collects every observable artifact — completions, memory images,
//! per-side QP counters, the merged lint report, runtime invariant
//! counts, the telemetry hub and a trace hash.
//!
//! There is one path: [`run_scenario_with`] builds the world on one
//! engine in the calling thread, runs it to [`Scenario::drain_deadline`]
//! and moves each host's capture out of it, not copied. A world still
//! busy at the deadline reports [`ScenarioRun::stalled`]; none runs past
//! it.
//!
//! What a run records besides the simulation is a [`RunOptions`], never
//! a spec facet: observation does not perturb a run, so every option
//! simulates the same trace.

use std::fmt;

use ibsim_analysis::{check_conservation, lint_capture, LintConfig, LintReport};
use ibsim_event::{Fnv1a, Line, SimTime};
use ibsim_fabric::{Capture, LossModel};
use ibsim_verbs::{
    Cluster, ClusterBuilder, CompareSwapWr, Completion, FetchAddWr, HostId, MrBuilder, MrDesc,
    MrMode, Packet, QpConfig, QpStats, Qpn, ReadWr, RecvWr, SendWr, Sim, Telemetry, WorkRequest,
    WrId, WriteWr, PAGE_SIZE,
};

use crate::reference::{client_init_byte, server_init_byte, RECV_ID_BASE};
use crate::spec::{LossSpec, Prefetch, Scenario, Side, WrSpec};

/// What the telemetry hub of a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Nothing: the hub stays disabled.
    Off,
    /// Fault spans and counters — what the oracle's stage-sum law reads.
    Spans,
    /// Spans, counters and every gauge, synced at the run's last event —
    /// what an export reads.
    Synced,
}

/// What a run records besides the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Capture both hosts' packets: [`ScenarioRun::lint`],
    /// [`ScenarioRun::timeline`] and [`ScenarioRun::captures`] read them.
    pub capture: bool,
    /// What [`ScenarioRun::telemetry`] holds.
    pub telemetry: TelemetryMode,
}

impl RunOptions {
    /// What [`run_scenario`] records: captures and spans, enough for
    /// [`crate::check_run`], and no sync it would never read.
    pub const ORACLE: RunOptions = RunOptions {
        capture: true,
        telemetry: TelemetryMode::Spans,
    };
    /// Everything: captures and a synced hub, for a run that is
    /// rendered or exported.
    pub const FULL: RunOptions = RunOptions {
        capture: true,
        telemetry: TelemetryMode::Synced,
    };
    /// Nothing but the simulation: a figure cell that reads only
    /// completions and counters.
    pub const BARE: RunOptions = RunOptions {
        capture: false,
        telemetry: TelemetryMode::Off,
    };
}

/// Everything one scenario run produced that the oracle (or a human)
/// might want to inspect.
#[derive(Debug)]
pub struct ScenarioRun {
    /// Requester-side completions, grouped by QP index in poll order.
    pub client_comps: Vec<Vec<Completion>>,
    /// Responder-side completions, grouped by QP index in poll order.
    pub server_comps: Vec<Vec<Completion>>,
    /// Completions whose QP number matched no scenario QP (always a bug).
    pub stray_comps: usize,
    /// Final client region contents.
    pub client_mem: Vec<u8>,
    /// Final server region contents.
    pub server_mem: Vec<u8>,
    /// Requester-side protocol counters, summed over the client's QPs.
    pub client_stats: QpStats,
    /// Responder-side protocol counters, summed over the server's QPs.
    pub server_stats: QpStats,
    /// Every packet submitted, as `ibdump` would count them.
    pub total_packets: u64,
    /// Merged protocol lint: client capture + server capture + pairwise
    /// packet conservation. Empty without capture.
    pub lint: LintReport,
    /// Total runtime invariant violations counted across the cluster and
    /// engine; zero on a healthy run.
    pub invariant_violations: u64,
    /// The hub: closed spans in the order they closed, and counters; when
    /// synced, every gauge too, `event.peak_depth` included. Empty when
    /// off.
    pub telemetry: Telemetry,
    /// The run hit its drain deadline with events still pending.
    pub stalled: bool,
    /// Where the run's clock stopped, in nanoseconds: the scenario's
    /// drain deadline.
    pub end_ns: u64,
    /// The run's identity for determinism comparisons across worker
    /// counts: FNV-1a over [`ScenarioRun::timeline`] followed by
    /// the client then the server memory image, streamed into the
    /// hasher without the text being built.
    pub trace_hash: u64,
    /// Both hosts' packet captures, client first: what `lint` and
    /// [`ScenarioRun::timeline`] read.
    pub captures: [Capture<Packet>; 2],
    /// The client's then the server's completion log, one line per
    /// completion in poll order.
    comp_logs: [String; 2],
}

impl ScenarioRun {
    /// The textual part of the `trace_hash` preimage: the client's packet
    /// timeline, `\n`, the server's, `\n`, then the client's and the
    /// server's completion logs. Rendered on demand, so a divergence or
    /// a lint finding can be read instead of re-instrumented.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        let _ = self.write_timeline(&mut out);
        out
    }

    /// Writes [`ScenarioRun::timeline`] to `out`.
    fn write_timeline(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let [client, server] = &self.captures;
        client.write_timeline(out)?;
        out.write_char('\n')?;
        server.write_timeline(out)?;
        out.write_char('\n')?;
        self.comp_logs.iter().try_for_each(|log| out.write_str(log))
    }

    /// The [`ScenarioRun::trace_hash`] of this run's artifacts.
    fn identity(&self) -> u64 {
        let mut h = Fnv1a::new();
        let _ = self.write_timeline(&mut h);
        h.write_bytes(&self.client_mem)
            .write_bytes(&self.server_mem)
            .finish()
    }

    /// The time of the last successful requester completion — the
    /// micro-benchmark's execution time.
    pub fn execution_time(&self) -> SimTime {
        self.client_comps
            .iter()
            .flatten()
            .filter(|c| c.status.is_success())
            .map(|c| c.at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Requester completions with an error status (e.g.
    /// `IBV_WC_RETRY_EXC_ERR`).
    pub fn errors(&self) -> usize {
        let all = self.client_comps.iter().flatten();
        all.filter(|c| !c.status.is_success()).count()
    }
}

/// Handles into a built scenario world that collection needs after the
/// run: host ids, region descriptors and the QP number maps.
struct World {
    client: HostId,
    server: HostId,
    cmr: MrDesc,
    smr: MrDesc,
    client_qpns: Vec<Qpn>,
    server_qpns: Vec<Qpn>,
}

/// Builds the two-host cluster, registers regions, connects QPs and
/// schedules the workload, fault and loss timelines.
fn build_scenario_world(sc: &Scenario, opts: RunOptions) -> (Sim, Cluster, World) {
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(sc.seed)
        .host("client", sc.device.clone())
        .host("server", sc.device.clone())
        .capture(opts.capture)
        .telemetry(opts.telemetry != TelemetryMode::Off)
        .topology(sc.topology)
        .build();
    let (client, server) = (hosts[0], hosts[1]);

    let len = sc.region_len();
    let mode = |odp: bool| if odp { MrMode::Odp } else { MrMode::Pinned };
    let warm = sc.prefetch != Prefetch::Off;
    let mk = |mb: MrBuilder| if warm { mb.prefetch() } else { mb };
    let cmr = cl.mr(client, mk(MrBuilder::new(len, mode(sc.client_odp))));
    let smr = cl.mr(server, mk(MrBuilder::new(len, mode(sc.server_odp))));

    let client_init: Vec<u8> = (0..len).map(client_init_byte).collect();
    let server_init: Vec<u8> = (0..len).map(server_init_byte).collect();
    cl.mem_write(client, cmr.base, &client_init);
    cl.mem_write(server, smr.base, &server_init);

    // §V-C's warm buffer: the page the first request touches goes cold
    // again, at build time, so it is cold when that request arrives.
    if sc.prefetch == Prefetch::AllButFirst {
        let first = sc.wrs.first().map_or(0, |&(qp, wr)| {
            ((sc.window(qp) + wr.footprint().0) / PAGE_SIZE) as usize
        });
        for (host, mr, odp) in [(client, &cmr, sc.client_odp), (server, &smr, sc.server_odp)] {
            if odp {
                cl.invalidate_page(host, mr.key, first);
            }
        }
    }

    let cfg = QpConfig {
        cack: sc.cack,
        retry_count: sc.retry_count,
        min_rnr_delay: SimTime::from_ns(sc.min_rnr_delay_ns),
        recovery: sc.recovery,
        ..QpConfig::default()
    };
    let mut client_qpns = Vec::with_capacity(sc.qps);
    let mut server_qpns = Vec::with_capacity(sc.qps);
    for _ in 0..sc.qps {
        let (qc, qs) = cl.connect_pair(&mut eng, client, server, cfg.clone());
        client_qpns.push(qc);
        server_qpns.push(qs);
    }

    // Receives are posted up front, at the same window offset as the
    // matching SEND: RC pairs sends with posted receives FIFO per QP, and
    // posting order follows the workload list, so the k-th SEND on a QP
    // consumes the k-th receive posted on it.
    for (k, &(qp, wr)) in sc.wrs.iter().enumerate() {
        if let WrSpec::Send { off, len } = wr {
            cl.post_recv(
                server,
                server_qpns[qp],
                RecvWr {
                    id: WrId(RECV_ID_BASE + k as u64),
                    mr: smr.key,
                    offset: sc.window(qp) + off,
                    max_len: len,
                },
            );
        }
    }

    // The workload loop: the k-th request is posted at k * interval (the
    // Fig. 3 `usleep` pacing), with the global list index as its id.
    for (k, &(qp, wr)) in sc.wrs.iter().enumerate() {
        let wr = work_request(wr, k as u64, sc.window(qp), &cmr, &smr);
        cl.post_at(&mut eng, sc.post_time(k), client, client_qpns[qp], wr);
    }

    // The fault schedule. Invalidations only make sense on ODP regions:
    // pinned pages can never be reclaimed, so events against a pinned
    // side are skipped rather than simulating an impossible kernel.
    let pages = len.div_ceil(PAGE_SIZE) as usize;
    for f in &sc.faults {
        let (host, key, odp) = match f.side {
            Side::Client => (client, cmr.key, sc.client_odp),
            Side::Server => (server, smr.key, sc.server_odp),
        };
        if odp {
            let last = f.page + f.count.min(pages.saturating_sub(f.page));
            cl.invalidate_at(&mut eng, SimTime::from_ns(f.at_ns), host, key, f.page..last);
        }
    }

    // The loss schedule: each phase swaps the fabric's loss model.
    for phase in &sc.loss {
        let at = SimTime::from_ns(phase.at_ns);
        cl.set_loss_at(&mut eng, at, loss_model(&phase.model));
    }

    let world = World {
        client,
        server,
        cmr,
        smr,
        client_qpns,
        server_qpns,
    };
    (eng, cl, world)
}

/// One host's post-run artifacts: grouped completions, the textual
/// completion log, final memory image, QP counters and the packet
/// capture.
struct HostCollect {
    comps: Vec<Vec<Completion>>,
    comp_log: String,
    stray: usize,
    mem: Vec<u8>,
    stats: QpStats,
    capture: Capture<Packet>,
}

/// Drains one host's completion queue, snapshots its region and
/// counters and moves its capture out of the cluster.
fn collect_host(
    cl: &mut Cluster,
    sc: &Scenario,
    tag: &str,
    host: HostId,
    qpns: &[Qpn],
    mr: &MrDesc,
) -> HostCollect {
    let mut comps = vec![Vec::new(); sc.qps];
    let mut stray = 0usize;
    let mut comp_log = String::new();
    let mut line = Line::new();
    for comp in cl.poll_cq(host) {
        comp_log.push_str(comp_line(&mut line, tag, &comp));
        match qpns.iter().position(|&q| q == comp.qpn) {
            Some(i) => comps[i].push(comp),
            None => stray += 1,
        }
    }
    let mem = cl.mem_read(host, mr.base, sc.region_len() as usize);
    HostCollect {
        comps,
        comp_log,
        stray,
        mem,
        stats: cl.qp_stats_sum(host),
        capture: cl.take_capture(host),
    }
}

/// One completion-log line: `{tag} qp=… id=… st=… op=… b=… t=…`.
fn comp_line<'l>(line: &'l mut Line, tag: &str, comp: &Completion) -> &'l str {
    line.clear().push(tag.as_bytes());
    line.push(b" qp=").uint(u64::from(comp.qpn.0));
    line.push(b" id=").uint(comp.wr_id.0);
    line.push(b" st=").put(&comp.status);
    line.push(b" op=").put(&comp.opcode);
    line.push(b" b=").uint(u64::from(comp.bytes));
    line.push(b" t=").uint(comp.at.as_ns());
    line.push(b"\n").as_str()
}

/// Runs one scenario up to its drain deadline, recording
/// [`RunOptions::ORACLE`]. Deterministic: the same scenario always
/// produces the same [`ScenarioRun`], including its `trace_hash`.
///
/// The scenario should satisfy [`Scenario::validate`]; out-of-range
/// offsets would make the run itself meaningless.
pub fn run_scenario(sc: &Scenario) -> ScenarioRun {
    run_scenario_with(sc, RunOptions::ORACLE)
}

/// [`run_scenario`] recording what `opts` asks for. Every option runs
/// the same events to the same deadline: observation does not perturb.
///
/// # Panics
///
/// Panics on a post schedule past the simulated clock, which
/// [`Scenario::validate`] rejects.
pub fn run_scenario_with(sc: &Scenario, opts: RunOptions) -> ScenarioRun {
    let Some(deadline) = sc.drain_deadline() else {
        panic!(
            "scenario {}: its post schedule overflows the clock",
            sc.name
        )
    };
    let (mut eng, mut cl, w) = build_scenario_world(sc, opts);
    eng.run_until(&mut cl, deadline);
    if opts.telemetry == TelemetryMode::Synced {
        cl.sync_telemetry_at(&eng, eng.last_executed_at());
    }
    let ccol = collect_host(&mut cl, sc, "C", w.client, &w.client_qpns, &w.cmr);
    let scol = collect_host(&mut cl, sc, "S", w.server, &w.server_qpns, &w.smr);
    // The runtime invariants: illegal QP transitions on both hosts, and
    // event pops that moved the clock backwards.
    let invariant_violations = ccol.stats.invariant_violations
        + scol.stats.invariant_violations
        + eng.monotonicity_violations();

    // The justification rules come from the backend under test.
    let lint_cfg = LintConfig {
        recovery: sc.recovery,
    };
    let mut lint = lint_capture(&ccol.capture, &lint_cfg);
    lint.merge(lint_capture(&scol.capture, &lint_cfg));
    lint.merge(check_conservation(&ccol.capture, &scol.capture));

    let mut run = ScenarioRun {
        client_comps: ccol.comps,
        server_comps: scol.comps,
        stray_comps: ccol.stray + scol.stray,
        client_mem: ccol.mem,
        server_mem: scol.mem,
        client_stats: ccol.stats,
        server_stats: scol.stats,
        total_packets: cl.stats.total_packets,
        lint,
        invariant_violations,
        telemetry: std::mem::take(cl.telemetry_mut()),
        stalled: eng.pending_events() > 0,
        end_ns: eng.now().as_ns(),
        trace_hash: 0,
        captures: [ccol.capture, scol.capture],
        comp_logs: [ccol.comp_log, scol.comp_log],
    };
    run.trace_hash = run.identity();
    run
}

/// The work request `spec` posts as list entry `id` from the QP window
/// that starts `window` bytes into both regions.
fn work_request(spec: WrSpec, id: u64, window: u64, cmr: &MrDesc, smr: &MrDesc) -> WorkRequest {
    let off = window + spec.footprint().0;
    let (local, remote) = (cmr.at(off), smr.at(off));
    match spec {
        WrSpec::Read { len, .. } => ReadWr::new(local, remote).len(len).id(id).into(),
        WrSpec::Write { len, .. } => WriteWr::new(local, remote).len(len).id(id).into(),
        WrSpec::Send { len, .. } => SendWr::new(local).len(len).id(id).into(),
        WrSpec::FetchAdd { add, .. } => FetchAddWr::new(local, remote).add(add).id(id).into(),
        WrSpec::CompareSwap { compare, swap, .. } => CompareSwapWr::new(local, remote)
            .compare(compare)
            .swap(swap)
            .id(id)
            .into(),
    }
}

/// Instantiates the fabric loss model a [`LossSpec`] describes.
fn loss_model(spec: &LossSpec) -> LossModel {
    match spec {
        LossSpec::None => LossModel::None,
        LossSpec::Uniform { prob_milli, seed } => LossModel::uniform(*prob_milli, *seed),
        LossSpec::Burst {
            enter_milli,
            exit_milli,
            drop_milli,
            seed,
        } => LossModel::burst_with(*enter_milli, *exit_milli, *drop_milli, *seed),
        LossSpec::Nth(indices) => LossModel::nth(indices.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultEvent, LossPhase, Scenario};

    /// Every status and opcode, seeded ids, sizes and times: each line is
    /// the `writeln!` text the log was built with, names kept verbatim.
    #[test]
    fn completion_lines_match_the_format_text() {
        use ibsim_verbs::{WcOpcode, WcStatus};
        let statuses = [
            (WcStatus::Success, "IBV_WC_SUCCESS"),
            (WcStatus::RetryExcErr, "IBV_WC_RETRY_EXC_ERR"),
            (WcStatus::RnrRetryExcErr, "IBV_WC_RNR_RETRY_EXC_ERR"),
            (WcStatus::RemoteAccessErr, "IBV_WC_REM_ACCESS_ERR"),
            (WcStatus::WrFlushErr, "IBV_WC_WR_FLUSH_ERR"),
            (WcStatus::LocalProtErr, "IBV_WC_LOC_PROT_ERR"),
        ];
        let opcodes = [
            (WcOpcode::Read, "READ"),
            (WcOpcode::Write, "WRITE"),
            (WcOpcode::Send, "SEND"),
            (WcOpcode::Recv, "RECV"),
            (WcOpcode::FetchAdd, "FETCH_ADD"),
            (WcOpcode::CompareSwap, "CMP_SWAP"),
        ];
        let mut rng = ibsim_event::SplitMix64::new(0xc0_1e);
        let mut spread = || rng.next_u64() >> (rng.next_u64() % 64);
        let mut line = Line::new();
        for (status, st) in statuses {
            for (opcode, op) in opcodes {
                for tag in ["C", "S"] {
                    let comp = Completion {
                        wr_id: WrId(spread()),
                        qpn: Qpn(spread() as u32),
                        status,
                        opcode,
                        bytes: spread() as u32,
                        at: SimTime::from_ns(spread()),
                    };
                    let old = format!(
                        "{tag} qp={} id={} st={st} op={op} b={} t={}\n",
                        comp.qpn.0,
                        comp.wr_id.0,
                        comp.bytes,
                        comp.at.as_ns()
                    );
                    assert_eq!(comp_line(&mut line, tag, &comp), old);
                }
            }
        }
    }

    #[test]
    fn identical_scenarios_hash_identically() {
        let mut sc = Scenario::base("det");
        sc.slot = 64;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Read { off: 0, len: 32 }),
        ];
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert!(!a.stalled);
        assert_eq!(a.stray_comps, 0);
        assert_eq!(a.client_comps[0].len(), 2);
    }

    #[test]
    fn seed_changes_the_run_when_randomness_is_drawn() {
        // ODP fault latencies are drawn from the cluster RNG, so two
        // seeds must diverge once a fault occurs.
        let mut sc = Scenario::base("seeded");
        sc.client_odp = true;
        sc.slot = 64;
        sc.wrs = vec![(0, WrSpec::Read { off: 0, len: 32 })];
        let a = run_scenario(&sc);
        sc.seed = 2;
        let b = run_scenario(&sc);
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn faults_on_pinned_regions_are_skipped() {
        let mut sc = Scenario::base("pinned-fault");
        sc.slot = 64;
        sc.wrs = vec![(0, WrSpec::Read { off: 0, len: 32 })];
        sc.faults = vec![FaultEvent {
            at_ns: 10,
            side: Side::Client,
            page: 0,
            count: 1,
        }];
        let run = run_scenario(&sc);
        assert!(
            run.telemetry.spans().is_empty(),
            "pinned region must never fault"
        );
        assert!(!run.stalled);
    }

    /// A READ whose every frame is lost fails `(C_retry + 1) · T_o` after
    /// its post. At `C_ack = 21` that is past the flat 30 s drain budget
    /// on every device, so the deadline must cover the retry schedule.
    #[test]
    fn an_all_loss_read_exhausts_its_retries_before_the_deadline() {
        use ibsim_fabric::LinkSpec;
        use ibsim_verbs::{DeviceProfile, WcStatus};
        let devices = [
            DeviceProfile::connectx3(),
            DeviceProfile::connectx4(LinkSpec::fdr()),
            DeviceProfile::connectx4(LinkSpec::edr()),
            DeviceProfile::connectx5(),
            DeviceProfile::connectx6(),
        ];
        for device in devices {
            let mut sc = Scenario::base("all-loss");
            (sc.device, sc.cack) = (device, 21);
            sc.wrs = vec![(0, WrSpec::Read { off: 0, len: 100 })];
            sc.loss = vec![LossPhase {
                at_ns: 0,
                model: LossSpec::Uniform {
                    prob_milli: 1000,
                    seed: 1,
                },
            }];
            let run = run_scenario_with(&sc, RunOptions::BARE);
            let t_o = sc.device.t_o(sc.cack).expect("C_ack 21 times out");
            assert!(!run.stalled, "{:?}", sc.device.model);
            let [c] = &run.client_comps[0][..] else {
                panic!("one completion: {:?}", run.client_comps)
            };
            assert_eq!(c.status, WcStatus::RetryExcErr);
            assert_eq!(c.at / 8, t_o, "{:?}", sc.device.model);
        }
    }

    #[test]
    fn loss_phase_perturbs_the_trace() {
        let mut sc = Scenario::base("lossy");
        sc.slot = 64;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Write { off: 32, len: 32 }),
        ];
        let clean = run_scenario(&sc);
        sc.loss = vec![LossPhase {
            at_ns: 0,
            model: LossSpec::Nth(vec![0]),
        }];
        let lossy = run_scenario(&sc);
        assert_ne!(clean.trace_hash, lossy.trace_hash);
        // The dropped first frame must be retransmitted and both writes
        // must still complete.
        assert_eq!(lossy.client_comps[0].len(), 2);
    }
}
