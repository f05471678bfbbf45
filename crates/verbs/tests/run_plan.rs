//! `run_plan` driven directly: one build and one finish per replica, the
//! executor chosen from the plan, and the same [`Finished`] whichever
//! executor ran — the conformance the harnesses (`ibsim-odp`'s
//! micro-benchmark digest, `ibsim-scenario`'s executor) rely on.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::thread::{self, ThreadId};

use ibsim_event::{QueueStats, SimTime};
use ibsim_fabric::{LinkSpec, LossModel};
use ibsim_verbs::{
    export_jsonl, merge_queue_stats, run_plan, run_sharded, Cluster, Completion, DeviceProfile,
    Finished, HostId, Labels, MrMode, QpConfig, ReadWr, ShardPlan, Sim,
};

/// What `run_plan` passes its `build`.
type Shard<'a> = Option<(usize, &'a [usize])>;

/// The §V damming shape: two hosts, both regions ODP, two READs 1 ms
/// apart on one QP, telemetry on. The handles are the client hosts.
fn two_host_world(shard: Shard) -> (Sim, Cluster, Vec<HostId>) {
    let mut eng = Sim::new();
    let mut cl = Cluster::new(1);
    cl.telemetry_enable();
    let device = DeviceProfile::connectx4(LinkSpec::fdr());
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
    (eng, cl, vec![a])
}

/// Two pinned hosts and one READ at t = 0 whose request the first of two
/// loss phases drops: `ToDestination(server)` from t = 0, no loss from
/// 1 ms. Both models judge each frame alone, so the plan may split.
fn lossy_world(shard: Shard) -> (Sim, Cluster, Vec<HostId>) {
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
    (eng, cl, vec![a])
}

/// A loss swap runs on every replica and is counted once: the merged
/// queue of a split plan is the one-owner plan's.
#[test]
fn replicated_loss_phases_merge_into_the_one_owner_queue() {
    let seq = outcome(run_plan(&ShardPlan::pair(1), None, lossy_world, drain));
    assert_eq!(seq.completions.len(), 1);
    assert!(seq.completions[0].status.is_success());
    assert!(
        seq.completions[0].at > SimTime::from_ms(1),
        "the first phase must drop the request"
    );
    for shards in [2, 4] {
        let split = outcome(run_plan(&ShardPlan::pair(shards), None, lossy_world, drain));
        assert_drained(&split, &format!("{shards} shards"));
        assert_eq!(seq.queue, split.queue, "{shards} shards");
        assert_eq!(seq, split, "{shards} shards");
    }
}

const PAIRS: usize = 4;
const PAIR_QPS: usize = 64;

/// The retired `qpsweep` rung: `PAIRS` independent client/server pairs,
/// each a §VI flood of `PAIR_QPS` QPs posting one 32 B READ at t = 0
/// against the pair's one cold client-side ODP page. No QP leaves its
/// pair, so a pair-aligned plan has no cross-shard link and the epoch
/// width is the fault-draw floor.
fn flood_world(shard: Shard) -> (Sim, Cluster, Vec<HostId>) {
    let mut eng = Sim::new();
    let mut cl = Cluster::new((PAIRS * PAIR_QPS) as u64);
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
    (eng, cl, (0..PAIRS).map(|s| HostId(2 * s)).collect())
}

/// Client and server of a pair on one shard, pairs in blocks.
fn pair_aligned(shards: usize) -> ShardPlan {
    let owner = (0..2 * PAIRS).map(|h| (h / 2) * shards / PAIRS).collect();
    ShardPlan::new(shards, owner)
}

/// The `finish` of both worlds: sync the hub, drain the owned clients.
fn drain(eng: &Sim, cl: &mut Cluster, clients: Vec<HostId>, end: SimTime) -> Vec<Completion> {
    cl.sync_telemetry_at(eng, end);
    let mut completions = Vec::new();
    for host in clients {
        if cl.owns(host) {
            completions.extend(cl.poll_cq(host));
        }
    }
    completions
}

/// Everything of a [`Finished`] that must not depend on the plan.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Owners are assigned in host order, so shard order is host order.
    completions: Vec<Completion>,
    end: SimTime,
    queue: QueueStats,
    spans: usize,
    jsonl: String,
}

fn outcome(done: Finished<Vec<Completion>>) -> Outcome {
    Outcome {
        completions: done.shards.into_iter().flatten().collect(),
        end: done.end,
        queue: done.queue,
        spans: done.telemetry.spans().len(),
        jsonl: export_jsonl(&done.telemetry),
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
    let seq = outcome(run_plan(
        &ShardPlan::new(1, vec![0, 0]),
        None,
        two_host_world,
        drain,
    ));
    assert_eq!(seq.completions.len(), 2);
    assert!(seq.completions.iter().all(|c| c.status.is_success()));
    assert!(seq.spans >= 2, "both sides must fault: {} spans", seq.spans);
    assert!(
        seq.jsonl.contains("event.executed"),
        "the hub was not synced"
    );
    assert!(!seq.jsonl.contains("event.peak_depth"));
    assert_drained(&seq, "one owner");
    for shards in [2, 4] {
        let split = outcome(run_plan(
            &ShardPlan::pair(shards),
            None,
            two_host_world,
            drain,
        ));
        assert_drained(&split, &format!("{shards} shards"));
        assert_eq!(seq, split, "{shards} shards");
    }
}

#[test]
fn pair_aligned_flood_finishes_the_same_under_every_plan() {
    let seq = outcome(run_plan(&pair_aligned(1), None, flood_world, drain));
    assert_eq!(seq.completions.len(), PAIRS * PAIR_QPS, "one per QP");
    assert_eq!(seq.spans, PAIRS, "one cold page per pair");
    assert_drained(&seq, "one owner");
    for shards in [2, 4] {
        let split = outcome(run_plan(&pair_aligned(shards), None, flood_world, drain));
        assert_drained(&split, &format!("{shards} shards"));
        assert_eq!(seq, split, "{shards} shards");
    }
}

#[test]
fn a_deadline_parks_every_plan_at_the_same_clock() {
    // Mid-run: the first READ is still inside its fault window.
    let deadline = Some(SimTime::from_us(500));
    let seq = outcome(run_plan(
        &ShardPlan::pair(1),
        deadline,
        two_host_world,
        drain,
    ));
    assert_eq!(seq.end, SimTime::from_us(500));
    assert!(seq.queue.live > 0, "the run must be cut short");
    let split = outcome(run_plan(
        &ShardPlan::pair(2),
        deadline,
        two_host_world,
        drain,
    ));
    assert_eq!(seq, split);
}

#[test]
fn build_runs_once_per_replica_and_finish_gets_its_own_handles() {
    let plans = [
        (ShardPlan::new(1, vec![0, 0]), 1),
        (ShardPlan::pair(2), 2),
        (ShardPlan::pair(4), 4),
    ];
    for (plan, replicas) in plans {
        let builds = AtomicUsize::new(0);
        let finishes = AtomicUsize::new(0);
        let done = run_plan(
            &plan,
            None,
            |shard| {
                assert_eq!(finishes.load(SeqCst), 0, "build ran after a finish began");
                let nth = builds.fetch_add(1, SeqCst);
                let (eng, cl, _) = two_host_world(shard);
                // An `Rc` is not `Send`: handles stay on their replica's
                // thread from `build` to `finish`.
                let handles: Rc<(usize, Option<usize>, ThreadId)> =
                    Rc::new((nth, shard.map(|(id, _)| id), thread::current().id()));
                (eng, cl, handles)
            },
            |_, cl, handles, _| {
                finishes.fetch_add(1, SeqCst);
                assert_eq!(handles.1, cl.shard_id(), "another replica's handles");
                assert_eq!(handles.2, thread::current().id(), "handles changed thread");
                handles.0
            },
        );
        assert_eq!(builds.load(SeqCst), replicas, "{plan:?}");
        assert_eq!(finishes.load(SeqCst), replicas, "{plan:?}");
        let mut seen = done.shards;
        seen.sort_unstable();
        assert_eq!(seen, (0..replicas).collect::<Vec<_>>(), "{plan:?}");
    }
}

#[test]
fn a_plan_whose_owners_are_all_equal_runs_on_the_callers_thread() {
    let caller = thread::current().id();
    let where_built = |plan: ShardPlan| {
        let done = run_plan(
            &plan,
            None,
            |shard| {
                let (eng, cl, _) = two_host_world(shard);
                (eng, cl, (shard.is_some(), thread::current().id()))
            },
            |_, _, built, _| (built, thread::current().id()),
        );
        done.shards
    };
    // Four shards, one owner: nothing to synchronise, nothing spawned.
    assert_eq!(
        where_built(ShardPlan::new(4, vec![2, 2])),
        [((false, caller), caller)]
    );
    // The same four shards split: every replica is sharded and off the
    // caller's thread.
    let split = where_built(ShardPlan::new(4, vec![2, 0]));
    assert_eq!(split.len(), 4);
    for ((sharded, built_on), finished_on) in split {
        assert!(sharded);
        assert_ne!(built_on, caller);
        assert_eq!(built_on, finished_on);
    }
}

#[test]
fn run_sharded_at_one_shard_equals_the_plain_engine() {
    // `run_plan` never takes a one-owner plan through the epoch loop, so
    // PDES at one shard is pinned here, on the loop itself.
    let seq = outcome(run_plan(&ShardPlan::pair(1), None, two_host_world, drain));
    let plan = ShardPlan::pair(1);
    let mut outs = run_sharded(
        &plan,
        None,
        |id| {
            let (eng, cl, _) = two_host_world(Some((id, &plan.owner)));
            (eng, cl)
        },
        |_, eng, mut cl, end| {
            assert_eq!(cl.shard_id(), Some(0));
            let completions = drain(&eng, &mut cl, vec![HostId(0)], end);
            let mut hub = std::mem::take(cl.telemetry_mut());
            hub.sort_spans_by_completion();
            hub.remove_metric("event.peak_depth", Labels::NONE);
            let (scheduled, executed) = cl.shard_global_counters();
            Outcome {
                completions,
                end,
                queue: merge_queue_stats(&[eng.queue_stats()], scheduled, executed),
                spans: hub.spans().len(),
                jsonl: export_jsonl(&hub),
            }
        },
    );
    assert_eq!(outs.len(), 1);
    assert_eq!(outs.pop(), Some(seq));
}

/// A payload no library code raises.
#[derive(Debug, PartialEq)]
struct Boom(&'static str);

fn one_owner_and_split() -> [ShardPlan; 2] {
    [ShardPlan::new(2, vec![1, 1]), ShardPlan::pair(2)]
}

#[test]
fn a_panic_in_build_or_finish_keeps_its_payload_on_either_executor() {
    for plan in one_owner_and_split() {
        // Only one replica of the split plan panics; the others unwind
        // on the poisoned barrier and must not mask it.
        let in_build = catch_unwind(AssertUnwindSafe(|| {
            run_plan(
                &plan,
                None,
                |shard| {
                    if shard.is_none_or(|(id, _)| id == 1) {
                        panic_any(Boom("build"));
                    }
                    two_host_world(shard)
                },
                drain,
            )
        }));
        let payload = in_build.expect_err("build panicked");
        assert_eq!(
            payload.downcast_ref(),
            Some(&Boom("build")),
            "{plan:?}: payload replaced"
        );

        let in_finish = catch_unwind(AssertUnwindSafe(|| {
            run_plan(&plan, None, two_host_world, |_, cl, _, _| {
                if cl.shard_id().is_none_or(|id| id == 1) {
                    panic_any(Boom("finish"));
                }
            })
        }));
        let payload = in_finish.expect_err("finish panicked");
        assert_eq!(
            payload.downcast_ref(),
            Some(&Boom("finish")),
            "{plan:?}: payload replaced"
        );
    }
}

/// The message `run_plan` dies with under `plan`.
fn rejection(plan: &ShardPlan) -> String {
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_plan(plan, None, two_host_world, drain)
    }));
    let payload = run.expect_err("a malformed plan must be rejected");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(other) => (*other.downcast::<&str>().expect("a message payload")).to_owned(),
    }
}

#[test]
fn a_malformed_plan_is_rejected_the_same_way_on_either_executor() {
    // Each defect once in a one-owner shape and once in a split shape.
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
            let msg = rejection(&plan);
            assert!(msg.contains(want), "{plan:?}: {msg}");
        }
    }
}
