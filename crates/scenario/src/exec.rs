//! The scenario executor: spins up a two-host cluster, installs the
//! fault and loss schedules as engine events, posts the workload, runs
//! the simulation to completion and collects every observable artifact
//! the oracle checks — completions, memory images, the merged lint
//! report, runtime invariant counts, fault spans and a trace hash.
//!
//! There is one path: every entry point builds a [`ShardPlan`] and hands
//! the same build and collect closures to [`run_plan`], which runs a
//! one-owner plan on the plain engine in the calling thread and a split
//! plan on the conservative-lookahead PDES executor. Either way the
//! world is built once per replica and each host's capture is moved out
//! of it, not copied. The [`ScenarioRun`] — including `trace_hash` — is
//! required to be the same byte for byte under every plan; the
//! conformance battery and the seeded shard-assignment fuzzer enforce
//! that for every corpus entry and random partition.
//!
//! The path does not call `Cluster::sync_telemetry_at`: a [`ScenarioRun`]
//! takes the hub's spans and stage-sum count only, and the gauges a sync
//! writes have no reader here.

use ibsim_analysis::{
    check_conservation, lint_capture, InvariantSnapshot, LintConfig, LintReport, RecoveryRules,
};
use ibsim_event::SimTime;
use ibsim_fabric::{Capture, LinkSpec, LossModel};
use ibsim_telemetry::FaultSpan;
use ibsim_verbs::{
    run_plan, Cluster, ClusterBuilder, CompareSwapWr, Completion, DeviceProfile, FetchAddWr,
    HostId, MrBuilder, MrDesc, MrMode, Packet, QpConfig, Qpn, ReadWr, RecvWr, SendWr, ShardPlan,
    Sim, WorkRequest, WrId, WriteWr, PAGE_SIZE,
};

use crate::reference::{client_init_byte, server_init_byte, RECV_ID_BASE};
use crate::spec::{DeviceKind, LossSpec, Scenario, Side, WrSpec};

/// FNV-1a over raw bytes: the dependency-free stable hash used for all
/// trace-identity checks in this repository. Re-exported from
/// [`ibsim_odp::hash`] so every crate hashes with the same pinned
/// implementation.
///
/// # Examples
///
/// ```
/// assert_eq!(ibsim_scenario::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(ibsim_scenario::fnv1a(b"a"), ibsim_scenario::fnv1a(b"b"));
/// ```
pub use ibsim_odp::hash::fnv1a;

/// Everything one scenario run produced that the oracle (or a human)
/// might want to inspect.
#[derive(Debug, Clone)]
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
    /// Merged protocol lint: client capture + server capture + pairwise
    /// packet conservation.
    pub lint: LintReport,
    /// Total runtime invariant violations counted across the cluster and
    /// engine; zero on a healthy run.
    pub invariant_violations: u64,
    /// Closed fault-lifecycle spans recorded by telemetry, in the
    /// canonical `(completed, raised, host, mr, page)` order under every
    /// plan. (Its readers — the span count and the oracle's stage-sum
    /// law — are order-insensitive.)
    pub spans: Vec<FaultSpan>,
    /// Telemetry closed spans whose stage durations do not sum to their
    /// end-to-end latency (see `Telemetry::stage_sum_violations`).
    pub stage_sum_violations: usize,
    /// The run hit its drain deadline with events still pending.
    pub stalled: bool,
    /// Simulated completion time of the run, in nanoseconds.
    pub end_ns: u64,
    /// FNV-1a hash over both packet timelines, the completion log and
    /// the final memory images — the run's identity for determinism
    /// comparisons across worker counts.
    pub trace_hash: u64,
    /// The textual part of the hash preimage (both packet timelines and
    /// the completion log), kept so a divergence or lint finding can be
    /// read instead of re-instrumented.
    pub timeline: String,
    /// Both hosts' packet captures, client first: what `lint` and
    /// `timeline` were read from.
    pub captures: [Capture<Packet>; 2],
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
///
/// `shard` is `None` for the plain cluster; `Some((id, owner))` builds
/// shard `id`'s replica of a sharded run. Replicas are construction-time
/// identical (registration, memory init and QP connection schedule no
/// events); which of them schedules each post, invalidation and
/// loss-model swap is [`Cluster::post_at`]'s, [`Cluster::invalidate_at`]'s
/// and [`Cluster::set_loss_at`]'s decision.
fn build_scenario_world(sc: &Scenario, shard: Option<(usize, &[usize])>) -> (Sim, Cluster, World) {
    let profile = match sc.device {
        DeviceKind::ConnectX4 => DeviceProfile::connectx4(LinkSpec::fdr()),
        DeviceKind::ConnectX6 => DeviceProfile::connectx6(),
    };
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(sc.seed)
        .host("client", profile.clone())
        .host("server", profile)
        .capture(true)
        .telemetry(true)
        .topology(sc.topology)
        .build();
    let (client, server) = (hosts[0], hosts[1]);
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }

    let len = sc.region_len();
    let mode = |odp: bool| if odp { MrMode::Odp } else { MrMode::Pinned };
    let mk = |mb: MrBuilder| if sc.prefetch { mb.prefetch() } else { mb };
    let cmr = cl.mr(client, mk(MrBuilder::new(len, mode(sc.client_odp))));
    let smr = cl.mr(server, mk(MrBuilder::new(len, mode(sc.server_odp))));

    let client_init: Vec<u8> = (0..len).map(client_init_byte).collect();
    let server_init: Vec<u8> = (0..len).map(server_init_byte).collect();
    cl.mem_write(client, cmr.base, &client_init);
    cl.mem_write(server, smr.base, &server_init);

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
    // consumes the k-th receive posted on it. Posting is pure queue
    // state, so every replica posts them (replica symmetry is free).
    for (k, &(qp, wr)) in sc.wrs.iter().enumerate() {
        if let WrSpec::Send { off, len } = wr {
            cl.post_recv(
                server,
                server_qpns[qp],
                RecvWr {
                    id: WrId(RECV_ID_BASE + k as u64),
                    mr: smr.key,
                    offset: qp as u64 * sc.slot + off,
                    max_len: len,
                },
            );
        }
    }

    // The workload loop: the k-th request is posted at k * interval (the
    // Fig. 3 `usleep` pacing), with the global list index as its id.
    for (k, &(qp, wr)) in sc.wrs.iter().enumerate() {
        let at = SimTime::from_ns(k as u64 * sc.post_interval_ns);
        let wr = work_request(wr, k as u64, qp as u64 * sc.slot, &cmr, &smr);
        cl.post_at(&mut eng, at, client, client_qpns[qp], wr);
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
/// completion log, final memory image and the packet capture.
struct HostCollect {
    comps: Vec<Vec<Completion>>,
    comp_log: String,
    stray: usize,
    mem: Vec<u8>,
    capture: Capture<Packet>,
}

/// Drains one host's completion queue, snapshots its region and moves
/// its capture out of the cluster. Only meaningful on the replica that
/// owns the host.
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
    for comp in cl.poll_cq(host) {
        comp_log.push_str(&format!(
            "{tag} qp={} id={} st={} op={} b={} t={}\n",
            comp.qpn.0,
            comp.wr_id.0,
            comp.status,
            comp.opcode,
            comp.bytes,
            comp.at.as_ns()
        ));
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
        capture: cl.take_capture(host),
    }
}

/// Runs one scenario to completion under [`ShardPlan::pair`] of
/// [`Scenario::shards`] (a zero runs as one). Deterministic: the same
/// scenario always produces the same [`ScenarioRun`], including its
/// `trace_hash` — whatever the shard count, because the sharded
/// executor reproduces the sequential trace bit for bit.
///
/// The scenario should satisfy [`Scenario::validate`]; out-of-range
/// offsets would make the run itself meaningless.
pub fn run_scenario(sc: &Scenario) -> ScenarioRun {
    run_scenario_plan(sc, ShardPlan::pair(sc.shards.max(1)))
}

/// Runs a scenario under an explicit [`ShardPlan`] — the entry point for
/// the shard-assignment fuzzer, which exercises arbitrary host→shard
/// partitions. When any loss phase is order-dependent (its model
/// consumes a PRNG or counter per inspected packet) the plan is
/// collapsed onto the client's shard: cross-shard traffic would consult
/// replicated loss state in a shard-local order and diverge from the
/// sequential drop pattern.
///
/// # Panics
///
/// Panics as [`run_plan`] does on a malformed plan: no shards, an owner
/// map that does not name a shard for both hosts, a shard out of range;
/// and on a post schedule past the simulated clock, which
/// [`Scenario::validate`] rejects.
pub fn run_scenario_plan(sc: &Scenario, mut plan: ShardPlan) -> ScenarioRun {
    // Every plan runs exactly to this instant, so `end_ns` is identical
    // whatever the shard count.
    let Some(deadline) = sc.drain_deadline() else {
        panic!(
            "scenario {}: its post schedule overflows the clock",
            sc.name
        )
    };
    let order_dependent_loss = sc
        .loss
        .iter()
        .any(|p| loss_model(&p.model).is_order_dependent());
    if order_dependent_loss {
        if let Some(&shard) = plan.owner.first() {
            plan.owner.fill(shard);
        }
    }
    let done = run_plan(
        &plan,
        Some(deadline),
        |shard| build_scenario_world(sc, shard),
        |eng, cl, w, _end| {
            // Each host's artifacts come from the replica that owns it.
            let client = cl
                .owns(w.client)
                .then(|| collect_host(cl, sc, "C", w.client, &w.client_qpns, &w.cmr));
            let server = cl
                .owns(w.server)
                .then(|| collect_host(cl, sc, "S", w.server, &w.server_qpns, &w.smr));
            let invariants = InvariantSnapshot::collect(cl, &[w.client, w.server], eng).total();
            (client, server, invariants)
        },
    );
    let mut client = None;
    let mut server = None;
    let mut invariant_violations = 0u64;
    for (c, s, n) in done.shards {
        client = client.or(c);
        server = server.or(s);
        invariant_violations += n;
    }
    let (Some(ccol), Some(scol)) = (client, server) else {
        unreachable!("invariant: exactly one replica owns each host")
    };

    // The justification rules come from the backend under test (see
    // RecoveryRules).
    let lint_cfg = LintConfig {
        rules: RecoveryRules::for_kind(sc.recovery),
    };
    let mut lint = lint_capture(&ccol.capture, &lint_cfg);
    lint.merge(lint_capture(&scol.capture, &lint_cfg));
    lint.merge(check_conservation(&ccol.capture, &scol.capture));

    let mut timeline = ccol.capture.timeline();
    timeline.push('\n');
    timeline.push_str(&scol.capture.timeline());
    timeline.push('\n');
    timeline.push_str(&ccol.comp_log);
    timeline.push_str(&scol.comp_log);
    let mut ident = timeline.clone().into_bytes();
    ident.extend_from_slice(&ccol.mem);
    ident.extend_from_slice(&scol.mem);

    ScenarioRun {
        client_comps: ccol.comps,
        server_comps: scol.comps,
        stray_comps: ccol.stray + scol.stray,
        client_mem: ccol.mem,
        server_mem: scol.mem,
        lint,
        invariant_violations,
        spans: done.telemetry.spans().to_vec(),
        stage_sum_violations: done.telemetry.stage_sum_violations(),
        stalled: done.queue.live > 0,
        end_ns: done.end.as_ns(),
        trace_hash: fnv1a(&ident),
        timeline,
        captures: [ccol.capture, scol.capture],
    }
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
        LossSpec::Uniform { prob_milli, seed } => {
            LossModel::uniform(*prob_milli as f64 / 1000.0, *seed)
        }
        LossSpec::Burst {
            enter_milli,
            exit_milli,
            drop_milli,
            seed,
        } => LossModel::burst_with(
            *enter_milli as f64 / 1000.0,
            *exit_milli as f64 / 1000.0,
            *drop_milli as f64 / 1000.0,
            *seed,
        ),
        LossSpec::Nth(indices) => LossModel::nth(indices.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultEvent, LossPhase, Scenario};

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
        assert!(run.spans.is_empty(), "pinned region must never fault");
        assert!(!run.stalled);
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

    #[test]
    fn shards_facet_dispatches_and_reproduces_the_sequential_hash() {
        let mut sc = Scenario::base("dispatch");
        sc.client_odp = true;
        sc.slot = 64;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Read { off: 0, len: 32 }),
        ];
        let seq = run_scenario(&sc);
        sc.shards = 4;
        let sharded = run_scenario(&sc);
        assert_eq!(seq.trace_hash, sharded.trace_hash);
        assert_eq!(seq.timeline, sharded.timeline);
        assert_eq!(seq.end_ns, sharded.end_ns);
        assert_eq!(seq.spans.len(), sharded.spans.len());
        assert_eq!(seq.lint.findings.len(), sharded.lint.findings.len());
    }

    #[test]
    fn order_dependent_loss_collapses_split_plans() {
        // A uniform-loss scenario across a split plan must co-locate the
        // hosts (cross-shard traffic would consult replicated PRNG state
        // out of order) and still reproduce the sequential trace.
        let mut sc = Scenario::base("lossy-sharded");
        sc.slot = 64;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 32 }),
            (0, WrSpec::Write { off: 32, len: 32 }),
        ];
        sc.loss = vec![
            LossPhase {
                at_ns: 0,
                model: LossSpec::Uniform {
                    prob_milli: 200,
                    seed: 7,
                },
            },
            LossPhase {
                at_ns: 1_000_000,
                model: LossSpec::None,
            },
        ];
        let seq = run_scenario(&sc);
        let sharded = run_scenario_plan(&sc, ShardPlan::new(4, vec![0, 3]));
        assert_eq!(seq.trace_hash, sharded.trace_hash);
    }

    #[test]
    fn an_unvalidated_zero_shard_count_runs_as_one() {
        let mut sc = Scenario::base("zero-shards");
        sc.slot = 64;
        sc.wrs = vec![(0, WrSpec::Write { off: 0, len: 32 })];
        let one = run_scenario(&sc);
        sc.shards = 0;
        assert_eq!(run_scenario(&sc).trace_hash, one.trace_hash);
    }

    #[test]
    #[should_panic(expected = "a sharded run needs at least one shard")]
    fn zero_shards_is_rejected_with_a_diagnostic() {
        run_scenario_plan(&Scenario::base("no-shards"), ShardPlan::pair(0));
    }

    #[test]
    #[should_panic(expected = "owner map must name a shard for every host")]
    fn an_empty_owner_map_is_rejected_with_a_diagnostic() {
        // Order-dependent loss, so the collapse onto the client's shard
        // looks at the map before `run_plan` validates it.
        let mut sc = Scenario::base("no-owners");
        sc.loss = vec![LossPhase {
            at_ns: 0,
            model: LossSpec::Uniform {
                prob_milli: 200,
                seed: 7,
            },
        }];
        run_scenario_plan(&sc, ShardPlan::new(2, Vec::new()));
    }
}
