//! The PDES epoch loop that remains, [`run_sharded`], against the plain
//! engine: the same completions, clock, engine counters and fault spans
//! at 2 and 4 shards, and at one shard the same export; a deadline;
//! panic payloads; malformed plans; and the plans it rejects before the
//! first epoch (a split QP pair, a split plan on a routed fabric or
//! with an order-dependent loss model, a zero fault-latency floor). The
//! benchmark's `wide` workload is the loop's one caller outside these
//! tests.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

use ibsim_event::{QueueStats, SimTime};
use ibsim_fabric::{LinkSpec, LossModel, TopologyKind};
use ibsim_telemetry::FaultSpan;
use ibsim_verbs::{
    export_jsonl, merge_queue_stats, run_sharded, Cluster, Completion, DeviceProfile, HostId,
    MrMode, QpConfig, ReadWr, ShardPlan, Sim, Telemetry,
};

/// How far a plain run may go before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(20);

/// What a world's build is handed: `None` for the plain engine, or a
/// shard id and the plan's owner map.
type Shard<'a> = Option<(usize, &'a [usize])>;

/// A world's build.
type World = fn(Shard) -> (Sim, Cluster);

/// The §V damming shape: two hosts, both regions ODP, two READs 1 ms
/// apart on one QP, telemetry on.
fn two_host_world(shard: Shard) -> (Sim, Cluster) {
    damming_on(DeviceProfile::connectx4(LinkSpec::fdr()), shard)
}

/// [`two_host_world`] on a device whose faults may resolve in 0 ns.
fn zero_floor_world(shard: Shard) -> (Sim, Cluster) {
    let mut device = DeviceProfile::connectx4(LinkSpec::fdr());
    device.fault_latency_min = SimTime::ZERO;
    damming_on(device, shard)
}

fn damming_on(device: DeviceProfile, shard: Shard) -> (Sim, Cluster) {
    let mut eng = Sim::new();
    let mut cl = Cluster::new(1);
    cl.telemetry_enable();
    let a = cl.add_host("client", device.clone());
    let b = cl.add_host("server", device);
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }
    let remote = cl.alloc_mr(b, 4096, MrMode::Odp);
    let local = cl.alloc_mr(a, 4096, MrMode::Odp);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    for i in 0..2u64 {
        let wr = ReadWr::new(local.at(i * 100), remote.at(i * 100));
        cl.post_at(&mut eng, SimTime::from_ms(i), a, qp, wr.len(100).id(i));
    }
    (eng, cl)
}

/// Two pinned hosts and one READ at t = 0 whose request the first of two
/// loss phases drops: `ToDestination(server)` from t = 0, no loss from
/// 1 ms.
fn lossy_world(shard: Shard) -> (Sim, Cluster) {
    let mut eng = Sim::new();
    let mut cl = Cluster::new(2);
    cl.telemetry_enable();
    let a = cl.add_host("client", DeviceProfile::connectx6());
    let b = cl.add_host("server", DeviceProfile::connectx6());
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    let server = cl.lid(b);
    cl.set_loss_at(&mut eng, SimTime::ZERO, LossModel::ToDestination(server));
    cl.set_loss_at(&mut eng, SimTime::from_ms(1), LossModel::None);
    let read = ReadWr::new(local, remote).len(64);
    cl.post_at(&mut eng, SimTime::ZERO, a, qp, read);
    (eng, cl)
}

const PAIRS: usize = 4;
const PAIR_QPS: usize = 64;

/// The `wide` rung in small: `PAIRS` independent client/server pairs,
/// each a §VI flood of `PAIR_QPS` QPs posting one 32 B READ at t = 0
/// against the pair's one cold client-side ODP page. No QP leaves its
/// pair, so a pair-aligned plan is shard-closed.
fn flood_world(shard: Shard) -> (Sim, Cluster) {
    flood_on(TopologyKind::Crossbar, shard)
}

/// [`flood_world`] losing the frame of index 40 through `Nth`, an
/// order-dependent model: which frame that is depends on the order in
/// which every frame meets it.
fn nth_loss_flood_world(shard: Shard) -> (Sim, Cluster) {
    let (mut eng, mut cl) = flood_world(shard);
    cl.set_loss_at(&mut eng, SimTime::ZERO, LossModel::nth(vec![40]));
    (eng, cl)
}

/// [`flood_world`] on a two-leaf fat-tree: every client on one leaf,
/// every server on the other, so all pairs share the one spine.
fn fat_tree_flood_world(shard: Shard) -> (Sim, Cluster) {
    flood_on(TopologyKind::FatTree { k: 2 }, shard)
}

fn flood_on(topology: TopologyKind, shard: Shard) -> (Sim, Cluster) {
    let mut eng = Sim::new();
    let mut cl = Cluster::new((PAIRS * PAIR_QPS) as u64);
    cl.fabric.set_topology(topology);
    cl.telemetry_enable();
    let device = DeviceProfile::connectx4(LinkSpec::fdr());
    for s in 0..PAIRS {
        cl.add_host(&format!("client{s}"), device.clone());
        cl.add_host(&format!("server{s}"), device.clone());
    }
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }
    let qp_cfg = QpConfig {
        cack: 18,
        ..QpConfig::default()
    };
    for s in 0..PAIRS {
        let (a, b) = (HostId(2 * s), HostId(2 * s + 1));
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Odp);
        for i in 0..PAIR_QPS as u64 {
            let qp = cl.connect_pair(&mut eng, a, b, qp_cfg.clone()).0;
            if cl.owns(a) {
                let wr = ReadWr::new((local.key, i * 32), remote.key);
                cl.post(&mut eng, a, qp, wr.len(32).id(i));
            }
        }
    }
    (eng, cl)
}

/// Both hosts of a two-host world on one shard, the first or the last,
/// so the leader once runs them and once idles; further shards idle.
fn closed(shards: usize) -> [ShardPlan; 2] {
    [
        ShardPlan::new(shards, vec![0, 0]),
        ShardPlan::new(shards, vec![shards - 1; 2]),
    ]
}

/// Client and server of a flood pair on one shard, pairs in blocks.
fn pair_aligned(shards: usize) -> ShardPlan {
    let owner = (0..2 * PAIRS).map(|h| (h / 2) * shards / PAIRS).collect();
    ShardPlan::new(shards, owner)
}

/// One finished engine: the plain one, or one shard's replica.
struct Replica {
    /// Every completion of the hosts it owns, in host order.
    completions: Vec<Completion>,
    queue: QueueStats,
    /// [`Cluster::shard_global_counters`].
    globals: (u64, u64),
    hub: Telemetry,
    end: SimTime,
}

/// Syncs the hub at `end` and drains every owned host's completions.
fn finish(eng: &Sim, cl: &mut Cluster, end: SimTime) -> Replica {
    cl.sync_telemetry_at(eng, end);
    let mut completions = Vec::new();
    for host in (0..cl.host_count()).map(HostId) {
        if cl.owns(host) {
            completions.extend(cl.poll_cq(host));
        }
    }
    Replica {
        completions,
        queue: eng.queue_stats(),
        globals: cl.shard_global_counters(),
        hub: std::mem::take(cl.telemetry_mut()),
        end,
    }
}

/// `world` on the plain engine, up to `deadline` or until it is quiet.
fn plain(world: World, deadline: Option<SimTime>) -> Replica {
    let (mut eng, mut cl) = world(None);
    match deadline {
        Some(d) => eng.run_until(&mut cl, d),
        None => {
            eng.run(&mut cl, HORIZON).expect("the world quiesces");
        }
    }
    let end = eng.now();
    finish(&eng, &mut cl, end)
}

/// `world` under `plan`, one replica per shard.
fn sharded(world: World, plan: &ShardPlan, deadline: Option<SimTime>) -> Vec<Replica> {
    run_sharded(
        plan,
        deadline,
        |id| world(Some((id, &plan.owner))),
        |_, eng, mut cl, end| finish(&eng, &mut cl, end),
    )
}

/// Everything of a run that must not depend on the plan.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Owners are assigned in host order, so shard order is host order.
    completions: Vec<Completion>,
    end: SimTime,
    /// Merged as [`merge_queue_stats`] merges `wide`'s shards.
    queue: QueueStats,
    /// Every replica's closed spans, sorted by content: close order is a
    /// per-engine artifact.
    spans: Vec<FaultSpan>,
}

fn outcome(replicas: Vec<Replica>) -> Outcome {
    let end = replicas[0].end;
    assert!(replicas.iter().all(|r| r.end == end), "shards disagree");
    let queues: Vec<QueueStats> = replicas.iter().map(|r| r.queue).collect();
    let (scheduled, executed) = replicas[0].globals;
    let mut spans: Vec<FaultSpan> = replicas
        .iter()
        .flat_map(|r| r.hub.spans().iter().cloned())
        .collect();
    spans.sort_by_key(|s| (s.completed, s.raised, s.host, s.mr, s.page));
    Outcome {
        completions: replicas.into_iter().flat_map(|r| r.completions).collect(),
        end,
        queue: merge_queue_stats(&queues, scheduled, executed),
        spans,
    }
}

fn assert_drained(o: &Outcome, ctx: &str) {
    let q = &o.queue;
    assert_eq!(
        (q.live, q.keyed_live, q.dead_pending),
        (0, 0, 0),
        "{ctx}: heap residue"
    );
    assert_eq!(q.dead_pops, 0, "{ctx}: a cancelled entry was popped");
    assert_eq!(q.peak_depth, 0, "{ctx}: peak depth is not mergeable");
    assert!(q.executed > 0, "{ctx}: nothing ran");
}

#[test]
fn two_host_world_finishes_the_same_under_every_plan() {
    let seq = outcome(vec![plain(two_host_world, None)]);
    assert_eq!(seq.completions.len(), 2);
    assert!(seq.completions.iter().all(|c| c.status.is_success()));
    assert!(
        seq.spans.len() >= 2,
        "both sides must fault: {} spans",
        seq.spans.len()
    );
    assert_drained(&seq, "plain engine");
    for plan in closed(2).into_iter().chain(closed(4)) {
        let got = outcome(sharded(two_host_world, &plan, None));
        assert_drained(&got, &format!("{plan:?}"));
        assert_eq!(seq, got, "{plan:?}");
    }
}

#[test]
fn pair_aligned_flood_finishes_the_same_under_every_plan() {
    let seq = outcome(vec![plain(flood_world, None)]);
    assert_eq!(seq.completions.len(), PAIRS * PAIR_QPS, "one per QP");
    assert_eq!(seq.spans.len(), PAIRS, "one cold page per pair");
    assert_drained(&seq, "plain engine");
    for shards in [2, 4] {
        let split = outcome(sharded(flood_world, &pair_aligned(shards), None));
        assert_drained(&split, &format!("{shards} shards"));
        assert_eq!(seq, split, "{shards} shards");
    }
}

/// A loss swap runs on every replica and is counted once: the merged
/// queue of a many-shard plan is the plain engine's.
#[test]
fn replicated_loss_phases_merge_into_the_one_owner_queue() {
    let seq = outcome(vec![plain(lossy_world, None)]);
    assert_eq!(seq.completions.len(), 1);
    assert!(seq.completions[0].status.is_success());
    assert!(
        seq.completions[0].at > SimTime::from_ms(1),
        "the first phase must drop the request"
    );
    for plan in closed(2).into_iter().chain(closed(4)) {
        let got = outcome(sharded(lossy_world, &plan, None));
        assert_drained(&got, &format!("{plan:?}"));
        assert_eq!(seq, got, "{plan:?}");
    }
}

#[test]
fn a_deadline_parks_every_plan_at_the_same_clock() {
    // Mid-run: the first READ is still inside its fault window.
    let deadline = Some(SimTime::from_us(500));
    let seq = outcome(vec![plain(two_host_world, deadline)]);
    assert_eq!(seq.end, SimTime::from_us(500));
    assert!(seq.queue.live > 0, "the run must be cut short");
    for plan in closed(2).into_iter().chain(closed(4)) {
        let got = outcome(sharded(two_host_world, &plan, deadline));
        assert_eq!(seq, got, "{plan:?}");
    }
}

/// At one shard the loop has nothing to exchange: its one replica
/// exports what the plain engine exports, byte for byte.
#[test]
fn run_sharded_at_one_shard_equals_the_plain_engine() {
    let seq = plain(two_host_world, None);
    let mut one = sharded(two_host_world, &ShardPlan::new(1, vec![0, 0]), None);
    assert_eq!(one.len(), 1);
    let jsonl = |r: &Replica| export_jsonl(&r.hub);
    assert_eq!(jsonl(&seq), jsonl(&one[0]));
    assert_eq!(outcome(vec![seq]), outcome(vec![one.remove(0)]));
}

/// A payload no library code raises.
#[derive(Debug, PartialEq)]
struct Boom(&'static str);

#[test]
fn a_panic_in_build_or_finish_keeps_its_payload() {
    // Both hosts on shard 1, then both on shard 0.
    for plan in closed(2).into_iter().rev() {
        // Only shard 1 panics; shard 0 unwinds on the poisoned barrier
        // and must not mask it.
        let in_build = catch_unwind(AssertUnwindSafe(|| {
            run_sharded(
                &plan,
                None,
                |id| {
                    if id == 1 {
                        panic_any(Boom("build"));
                    }
                    two_host_world(Some((id, &plan.owner)))
                },
                |_, _, _, _| (),
            )
        }));
        let payload = in_build.expect_err("build panicked");
        assert_eq!(
            payload.downcast_ref(),
            Some(&Boom("build")),
            "{plan:?}: payload replaced"
        );

        let in_finish = catch_unwind(AssertUnwindSafe(|| {
            run_sharded(
                &plan,
                None,
                |id| two_host_world(Some((id, &plan.owner))),
                |id, _, _, _| {
                    if id == 1 {
                        panic_any(Boom("finish"));
                    }
                },
            )
        }));
        let payload = in_finish.expect_err("finish panicked");
        assert_eq!(
            payload.downcast_ref(),
            Some(&Boom("finish")),
            "{plan:?}: payload replaced"
        );
    }
}

/// The message `run_sharded` dies with when it runs `world` under
/// `plan`.
fn rejection(world: World, plan: &ShardPlan) -> String {
    let run = catch_unwind(AssertUnwindSafe(|| {
        sharded(world, plan, None);
    }));
    let payload = run.expect_err("a malformed plan must be rejected");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(other) => (*other.downcast::<&str>().expect("a message payload")).to_owned(),
    }
}

#[test]
fn a_malformed_plan_is_rejected_whatever_its_shape() {
    // Each defect once with both hosts on one shard and once split.
    let cases = [
        (vec![0, 0], vec![0, 1], 0, "needs at least one shard"),
        (
            vec![0],
            vec![0, 1, 1],
            2,
            "owner map must name a shard for every host",
        ),
        (vec![], vec![0, 1, 0], 2, "owner map must name a shard"),
        (vec![5, 5], vec![0, 5], 2, "owner map names shard >= 2"),
    ];
    for (one_owner, split, shards, want) in cases {
        for owner in [one_owner, split] {
            let plan = ShardPlan::new(shards, owner);
            let msg = rejection(two_host_world, &plan);
            assert!(msg.contains(want), "{plan:?}: {msg}");
        }
    }
}

#[test]
fn a_qp_pair_split_across_shards_is_rejected() {
    let msg = rejection(two_host_world, &ShardPlan::new(2, vec![0, 1]));
    assert!(
        msg.contains("needs every connected QP pair on one shard"),
        "{msg}"
    );
}

/// Shard-closed pairs still share the fat-tree's spine links.
#[test]
fn a_split_plan_on_a_routed_fabric_is_rejected() {
    let msg = rejection(fat_tree_flood_world, &pair_aligned(2));
    assert!(msg.contains("needs the crossbar, not fattree2"), "{msg}");
    // On one shard the fat-tree is the plain engine's.
    let seq = outcome(vec![plain(fat_tree_flood_world, None)]);
    let one = outcome(sharded(
        fat_tree_flood_world,
        &ShardPlan::new(2, vec![1; 2 * PAIRS]),
        None,
    ));
    assert_eq!(seq, one);
}

/// Each replica would draw `Nth` for its own frames only, and lose
/// other frames than the plain engine loses.
#[test]
fn an_order_dependent_loss_model_on_a_split_plan_is_rejected() {
    let msg = rejection(nth_loss_flood_world, &pair_aligned(2));
    assert!(msg.contains("order-dependent loss model Nth"), "{msg}");
    // On one shard every frame meets the model in the plain order.
    let seq = outcome(vec![plain(nth_loss_flood_world, None)]);
    let one = outcome(sharded(
        nth_loss_flood_world,
        &ShardPlan::new(2, vec![1; 2 * PAIRS]),
        None,
    ));
    assert_eq!(seq, one);
}

/// The epoch width is the fault floor; a zero width would rerun one
/// boundary for ever.
#[test]
fn a_zero_fault_latency_floor_is_rejected() {
    let seq = outcome(vec![plain(zero_floor_world, None)]);
    assert_eq!(seq.completions.len(), 2, "the plain engine runs it");
    let msg = rejection(zero_floor_world, &ShardPlan::new(1, vec![0, 0]));
    assert!(msg.contains("positive minimum fault latency"), "{msg}");
}
