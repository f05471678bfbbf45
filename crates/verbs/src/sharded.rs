//! Conservative-lookahead sharded execution (PDES) of a cluster run.
//!
//! ## Model
//!
//! Every shard thread builds a **full replica** of the cluster (same
//! hosts, QPs, seeds) but only *executes* events for the hosts it owns
//! (`ShardPlan::owner`). The shards advance in lock-step epochs:
//!
//! 1. each shard runs its local event heap up to the current epoch
//!    boundary, diverting cross-shard packet deliveries into an outbox
//!    and deferring ODP fault-latency draws;
//! 2. at the [`EpochBarrier`], a leader (shard 0) merges the deposits in
//!    a deterministic `(time, src_shard, seq)` order, draws the deferred
//!    fault latencies from *its own* cluster RNG (the only RNG consumer,
//!    so the stream matches the sequential run exactly), routes each
//!    envelope to its destination shard and publishes the next boundary;
//! 3. each shard applies its fills and injections — sorted by
//!    [`injection_sort_key`] so they enter the destination heap in the
//!    sequential insertion order — and runs the next epoch.
//!
//! The epoch width is the *conservative lookahead*: the minimum of the
//! fastest possible cross-shard packet
//! ([`Cluster::cross_shard_lookahead`]) and the smallest possible fault
//! latency ([`Cluster::fault_draw_floor`]). Any cross-shard effect
//! created at or after the epoch's earliest pending event therefore
//! lands at or beyond the next boundary, so no shard can ever miss an
//! incoming injection ("lookahead violation" is a panic, not a silent
//! reordering). With identical replicas, deterministic merge order and a
//! sequential-order RNG stream, a sharded run produces **bit-identical
//! traces** at every shard count — the property the cross-shard
//! conformance battery in `tests/end_to_end.rs` pins.
//!
//! ## Entry points
//!
//! Harnesses call [`run_plan`]: it hands `finish` back the handles
//! `build` returned, merges telemetry and queue statistics into the
//! shard-count-invariant [`Finished`], and picks the executor from the
//! plan itself — an owner map that names a single shard has nothing to
//! synchronise, so it runs the plain engine on the caller's thread and
//! none of the machinery above exists for that run. [`run_sharded`] is
//! the bare epoch loop, always threaded, for callers that time it.
//!
//! ## Single-writer contract
//!
//! [`Fabric::transit`] runs on the replica that executes the send and
//! advances the serialization clock of **every directed link** on the
//! frame's route: the source port's egress, each inter-switch link of a
//! routed topology, and the destination port's ingress. Every directed
//! link must therefore carry frames sent from a single shard — on the
//! crossbar that is the rule "all hosts whose QPs peer into one
//! destination live on one shard (not necessarily the destination's
//! own)"; on a fat-tree it also forbids two shards sharing an uplink.
//! [`Cluster::validate_sharding`] walks [`Fabric::route`] for every
//! connected QP pair to check this after the build, and the fabric's
//! per-port and per-link counters merge by summation.
//!
//! [`Fabric::transit`]: ibsim_fabric::Fabric::transit
//! [`Fabric::route`]: ibsim_fabric::Fabric::route

use std::collections::BTreeMap;
use std::sync::Mutex;

use ibsim_event::{
    epoch_end, injection_sort_key, EpochBarrier, PoisonGuard, QueueStats, SimTime, POISON_PAYLOAD,
};
use ibsim_telemetry::{Labels, Telemetry};

use crate::cluster::{set_mergeable_engine_gauges, Cluster, ClusterEvent, Sim};
use crate::packet::Packet;
use crate::types::HostId;

/// A host-to-shard partition plus the epoch parameters of one sharded
/// run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards — and of threads, when the owner map splits.
    pub shards: usize,
    /// `owner[h]` is the shard executing host `h`'s events.
    pub owner: Vec<usize>,
    /// Replaces the computed cross-shard packet lookahead (testing knob:
    /// an override larger than the real minimum latency manufactures a
    /// lookahead violation). The fault-draw floor still applies.
    pub lookahead_override: Option<SimTime>,
}

impl ShardPlan {
    /// A plan with an explicit owner map and no lookahead override.
    pub fn new(shards: usize, owner: Vec<usize>) -> Self {
        ShardPlan {
            shards,
            owner,
            lookahead_override: None,
        }
    }

    /// The two-host default: host 0 on shard 0, host 1 on shard 1 when
    /// there is one, further shards idle replicas. Total for every
    /// `shards` — a zero is left for [`run_plan`] to reject.
    pub fn pair(shards: usize) -> Self {
        ShardPlan::new(shards, vec![0, usize::from(shards > 1)])
    }

    /// True when the owner map names more than one shard — the only
    /// plans on which anything can cross a shard boundary.
    fn splits(&self) -> bool {
        self.owner.windows(2).any(|w| w[0] != w[1])
    }

    /// The checks that need no cluster; [`assert_covers`] is the one
    /// that does.
    fn check(&self) {
        assert!(self.shards >= 1, "a sharded run needs at least one shard");
        assert!(
            self.owner.iter().all(|&s| s < self.shards),
            "owner map names shard >= {}",
            self.shards
        );
    }
}

/// Panics unless `owner` names a shard for each of `hosts` hosts.
pub(crate) fn assert_covers(owner: &[usize], hosts: usize) {
    assert_eq!(
        owner.len(),
        hosts,
        "owner map must name a shard for every host"
    );
}

/// Per-replica sharding state carried by a [`Cluster`].
///
/// Created by [`Cluster::enable_sharding`]; drained by the epoch loop.
#[derive(Debug)]
pub struct ShardState {
    /// This replica's shard id.
    pub(crate) id: usize,
    /// Host → shard map (shared by every replica of the run).
    pub(crate) owner: Vec<usize>,
    /// Monotone per-shard sequence number stamping outbox envelopes,
    /// pending draws and stalls, so same-time items keep their local
    /// creation order through the leader's global merge sort.
    pub(crate) seq: u64,
    /// Cross-shard packet deliveries generated this epoch.
    pub(crate) outbox: Vec<Envelope>,
    /// ODP faults raised this epoch whose latency draw is deferred to
    /// the leader (global draw order == sequential RNG order).
    pub(crate) pending_draws: Vec<PendingDraw>,
    /// Hosts whose driver is idle but head-of-line blocked on an undrawn
    /// fault: `host → (stall time, seq)`. Rekicked next epoch.
    pub(crate) stalls: BTreeMap<usize, (SimTime, u64)>,
    /// Loss-model swaps scheduled via [`Cluster::set_loss_at`]
    /// (replicated on every shard; merged queue stats must not count
    /// them `shards` times).
    pub(crate) global_scheduled: u64,
    /// Replicated events that actually executed.
    pub(crate) global_executed: u64,
}

impl ShardState {
    pub(crate) fn new(id: usize, owner: Vec<usize>) -> Self {
        ShardState {
            id,
            owner,
            seq: 0,
            outbox: Vec::new(),
            pending_draws: Vec::new(),
            stalls: BTreeMap::new(),
            global_scheduled: 0,
            global_executed: 0,
        }
    }
}

/// One cross-shard packet delivery in flight between epochs.
#[derive(Debug)]
pub(crate) struct Envelope {
    /// Absolute delivery time (fabric arrival + receive overhead).
    pub(crate) deliver_at: SimTime,
    /// When the sending event executed — the moment the sequential run
    /// would have inserted the delivery into the heap.
    pub(crate) sent_at: SimTime,
    /// Originating shard (merge-order tiebreak).
    pub(crate) src_shard: usize,
    /// Originating shard's sequence number (merge-order tiebreak).
    pub(crate) seq: u64,
    /// Destination host index.
    pub(crate) dst_host: usize,
    /// The packet itself.
    pub(crate) pkt: Packet,
}

/// A deferred ODP fault-latency draw request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingDraw {
    /// When the fault was raised (primary global sort key).
    pub(crate) raised_at: SimTime,
    /// Raising shard (tiebreak).
    pub(crate) src_shard: usize,
    /// Raising shard's sequence number (tiebreak).
    pub(crate) seq: u64,
    /// Faulting host index.
    pub(crate) host: usize,
    /// Draw range lower bound, in nanoseconds.
    pub(crate) lo: u64,
    /// Draw range width upper bound, in nanoseconds.
    pub(crate) hi: u64,
}

/// What one shard hands the leader at an epoch boundary.
struct Deposit {
    outbox: Vec<Envelope>,
    draws: Vec<PendingDraw>,
    /// `(host, stall time, that host's minimum fault latency)`.
    stalls: Vec<(usize, SimTime, SimTime)>,
    next_event: Option<SimTime>,
    last_executed: SimTime,
}

/// What the leader hands each shard back.
struct Directive {
    /// `(host, latency)` fills in global draw order, restricted to this
    /// shard's hosts.
    fills: Vec<(usize, SimTime)>,
    /// Envelopes destined for this shard's hosts.
    injections: Vec<Envelope>,
    /// Next epoch boundary; `None` means the run is complete.
    epoch_end: Option<SimTime>,
    /// On completion: the canonical end-of-run clock (max last-executed
    /// event across shards, or the deadline) — what the sequential
    /// engine's `now()` would read. Zero until the final round.
    canonical_end: SimTime,
}

/// Leader-side merge state shared through a mutex; barrier phases make
/// every slot single-writer single-reader per round.
struct Coordinator {
    deposits: Vec<Option<Deposit>>,
    directives: Vec<Option<Directive>>,
    prev_epoch_end: SimTime,
    width: Option<SimTime>,
}

/// What [`run_plan`] returns: `finish`'s results plus the run's
/// telemetry and engine statistics in the one form every executor and
/// every shard count produces.
#[derive(Debug)]
pub struct Finished<D> {
    /// `finish`'s result for each replica, in shard order: one entry on
    /// a one-owner plan, `plan.shards` otherwise. A host's artifacts
    /// come from the replica that [`Cluster::owns`] it.
    pub shards: Vec<D>,
    /// The hub: counters, gauges and histograms summed over replicas,
    /// closed spans in `(completed, raised, host, mr, page)` order, the
    /// `event.*` gauges rewritten from [`Finished::queue`] and
    /// `event.peak_depth` dropped, so [`ibsim_telemetry::export_jsonl`]
    /// gives the same bytes at every shard count. Open-span and
    /// in-flight-WR book-keeping is not part of that form.
    pub telemetry: Telemetry,
    /// Engine statistics as one engine would report them (replicated
    /// [`Cluster::set_loss_at`] events counted once); `peak_depth` is 0
    /// because per-shard peaks do not compose.
    pub queue: QueueStats,
    /// The clock the sequential engine reads at the end of the run: the
    /// deadline, or the last executed event without one.
    pub end: SimTime,
}

/// One replica's share of a [`Finished`].
struct Replica<D> {
    out: D,
    telemetry: Telemetry,
    queue: QueueStats,
    globals: (u64, u64),
    end: SimTime,
}

impl<D> Replica<D> {
    /// Runs `finish` on a completed replica, then takes what the merge
    /// needs out of it.
    fn close<H>(
        eng: &Sim,
        cl: &mut Cluster,
        handles: H,
        end: SimTime,
        finish: &impl Fn(&Sim, &mut Cluster, H, SimTime) -> D,
    ) -> Self {
        Replica {
            out: finish(eng, cl, handles, end),
            telemetry: std::mem::take(cl.telemetry_mut()),
            queue: eng.queue_stats(),
            globals: cl.shard_global_counters(),
            end,
        }
    }
}

/// Builds, runs and collects one world under `plan` — the one way a
/// harness executes a simulation.
///
/// `build` constructs the world and returns the harness's handles into
/// it (host ids, region descriptors, QP numbers). It is called once per
/// replica, on the thread that will run it: with `None` it builds the
/// plain cluster; with `Some((id, owner))` it builds shard `id`'s **full
/// replica** — add every host, call [`Cluster::enable_sharding`] with
/// `id` and `owner`, then install the workload through
/// [`Cluster::post_at`], [`Cluster::invalidate_at`] and
/// [`Cluster::set_loss_at`], which schedule each operation on the
/// replicas that run it. `finish` receives each completed
/// replica with the handles its own `build` returned (same thread, so
/// `H` need not be `Send`) and the canonical end-of-run clock — pass it
/// to [`Cluster::sync_telemetry_at`] if the hub's gauges are wanted.
/// `deadline` bounds the run like `Engine::run_until`; `None` runs to
/// exhaustion.
///
/// The executor follows from the plan, never from an option: when the
/// owner map names a single shard nothing can cross a shard boundary,
/// so the world is built with `None` and run by the plain engine on the
/// calling thread; otherwise it runs in conservative-lookahead epochs on
/// `plan.shards` threads. [`Finished`] is identical either way.
///
/// # Panics
///
/// Panics on a malformed plan — no shards, an owner map that does not
/// cover the cluster's hosts or names a shard out of range — with the
/// same message on either executor; if the plan and replicas disagree
/// (an ingress single-writer violation); or with a "lookahead violation"
/// diagnostic if a cross-shard packet arrives inside the epoch it was
/// sent in. A panic on any shard poisons the barrier and unwinds every
/// thread; the original panic payload is re-raised.
pub fn run_plan<H, D, B, F>(
    plan: &ShardPlan,
    deadline: Option<SimTime>,
    build: B,
    finish: F,
) -> Finished<D>
where
    D: Send,
    B: Fn(Option<(usize, &[usize])>) -> (Sim, Cluster, H) + Sync,
    F: Fn(&Sim, &mut Cluster, H, SimTime) -> D + Sync,
{
    plan.check();
    let replicas = if plan.splits() {
        run_epochs(
            plan,
            deadline,
            |id| build(Some((id, &plan.owner))),
            |_, eng, mut cl, handles, end| Replica::close(&eng, &mut cl, handles, end, &finish),
        )
    } else {
        let (mut eng, mut cl, handles) = build(None);
        assert_covers(&plan.owner, cl.host_count());
        eng.run_until(&mut cl, deadline.unwrap_or(SimTime::MAX));
        let end = eng.now();
        vec![Replica::close(&eng, &mut cl, handles, end, &finish)]
    };
    // Replicated counters and the canonical end are the same on every
    // replica; shard 0's stand for all.
    let (globals, end) = (replicas[0].globals, replicas[0].end);
    let queues: Vec<QueueStats> = replicas.iter().map(|r| r.queue).collect();
    let queue = merge_queue_stats(&queues, globals.0, globals.1);
    let (shards, hubs): (Vec<D>, Vec<Telemetry>) =
        replicas.into_iter().map(|r| (r.out, r.telemetry)).unzip();
    Finished {
        shards,
        telemetry: merge_telemetry(hubs, &queue),
        queue,
        end,
    }
}

/// The bare epoch loop: runs one simulation split across `plan.shards`
/// OS threads in conservative-lookahead epochs, always threaded, even
/// for one shard — the form the benchmark times. Harnesses use
/// [`run_plan`], which adds handles, the merge and the executor choice.
///
/// `build` is called once per shard (inside its thread — [`Cluster`] is
/// not `Send`) and must construct the full replica as [`run_plan`]
/// describes. `finish` maps each completed shard to its result; it
/// receives the canonical end-of-run clock (pass it to
/// [`Cluster::sync_telemetry_at`] so dwell flushes match the sequential
/// run).
///
/// # Panics
///
/// As [`run_plan`].
pub fn run_sharded<D, B, F>(
    plan: &ShardPlan,
    deadline: Option<SimTime>,
    build: B,
    finish: F,
) -> Vec<D>
where
    D: Send,
    B: Fn(usize) -> (Sim, Cluster) + Sync,
    F: Fn(usize, Sim, Cluster, SimTime) -> D + Sync,
{
    plan.check();
    run_epochs(
        plan,
        deadline,
        |id| {
            let (eng, cl) = build(id);
            (eng, cl, ())
        },
        |id, eng, cl, (), end| finish(id, eng, cl, end),
    )
}

/// The epoch loop behind [`run_plan`] and [`run_sharded`]: one thread
/// per shard, each carrying its `build`'s handles `H` through to its
/// `finish`.
fn run_epochs<H, D, B, F>(
    plan: &ShardPlan,
    deadline: Option<SimTime>,
    build: B,
    finish: F,
) -> Vec<D>
where
    D: Send,
    B: Fn(usize) -> (Sim, Cluster, H) + Sync,
    F: Fn(usize, Sim, Cluster, H, SimTime) -> D + Sync,
{
    let barrier = EpochBarrier::new(plan.shards);
    let coord = Mutex::new(Coordinator {
        deposits: (0..plan.shards).map(|_| None).collect(),
        directives: (0..plan.shards).map(|_| None).collect(),
        prev_epoch_end: SimTime::ZERO,
        width: None,
    });
    let mut results: Vec<Option<D>> = (0..plan.shards).map(|_| None).collect();
    let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.shards)
            .map(|id| {
                let barrier = &barrier;
                let coord = &coord;
                let build = &build;
                let finish = &finish;
                scope.spawn(move || shard_main(id, plan, deadline, barrier, coord, build, finish))
            })
            .collect();
        for (id, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(d) => results[id] = Some(d),
                Err(payload) => panics.push(payload),
            }
        }
    });
    if !panics.is_empty() {
        // Re-raise the *original* panic, not a secondary barrier-poison
        // unwind, so `#[should_panic(expected = ...)]` sees the real
        // diagnostic.
        let primary = panics
            .iter()
            .position(|p| !is_poison_payload(p.as_ref()))
            .unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(primary));
    }
    results
        .into_iter()
        .map(|d| d.expect("invariant: every shard joined cleanly"))
        .collect()
}

fn is_poison_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    msg == Some(POISON_PAYLOAD)
}

/// One shard thread: build the replica, then loop deposit → leader
/// merge → apply → run until the leader declares the run complete.
fn shard_main<H, D, B, F>(
    id: usize,
    plan: &ShardPlan,
    deadline: Option<SimTime>,
    barrier: &EpochBarrier,
    coord: &Mutex<Coordinator>,
    build: &B,
    finish: &F,
) -> D
where
    B: Fn(usize) -> (Sim, Cluster, H),
    F: Fn(usize, Sim, Cluster, H, SimTime) -> D,
{
    let guard = PoisonGuard::new(barrier);
    let (mut eng, mut cl, handles) = build(id);
    assert_eq!(
        cl.shard_id(),
        Some(id),
        "a sharded build closure must call enable_sharding(id, owner)"
    );
    cl.validate_sharding();
    if id == 0 {
        // The leader computes the epoch width once, from its own replica
        // (all replicas are identical post-build).
        let lookahead = plan
            .lookahead_override
            .or_else(|| cl.cross_shard_lookahead());
        let width = match (lookahead, cl.fault_draw_floor()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        lock(coord).width = width;
    }
    loop {
        let deposit = Deposit {
            outbox: cl.take_outbox(),
            draws: cl.take_pending_draws(),
            stalls: cl.snapshot_stalls(),
            next_event: eng.next_event_time(),
            last_executed: eng.last_executed_at(),
        };
        lock(coord).deposits[id] = Some(deposit);
        barrier.wait();
        if id == 0 {
            let mut c = lock(coord);
            leader_merge(&mut c, &mut cl, plan, deadline);
        }
        barrier.wait();
        let directive = lock(coord).directives[id]
            .take()
            .expect("invariant: leader left a directive for every shard");
        // Fills first (in the leader's global draw order), so rekicked
        // drivers see their latencies.
        for (host, latency) in directive.fills {
            cl.apply_draw_fill(host, latency);
        }
        apply_injections(&mut eng, &mut cl, directive.injections);
        match directive.epoch_end {
            None => {
                if let Some(d) = deadline {
                    // Park the clock exactly as the sequential run would.
                    eng.run_until(&mut cl, d);
                }
                guard.defuse();
                return finish(id, eng, cl, handles, directive.canonical_end);
            }
            Some(end) => {
                let mut target = if end == SimTime::MAX {
                    SimTime::MAX
                } else {
                    // Run *strictly before* the boundary; injections for
                    // the boundary instant arrive next round.
                    SimTime::from_ns(end.as_ns() - 1)
                };
                if let Some(d) = deadline {
                    target = target.min(d);
                }
                eng.run_until(&mut cl, target);
            }
        }
    }
}

/// Applies this epoch's rekicks and envelope injections in the order the
/// sequential run would have *inserted* them into its heap: rekicks are
/// keyed by their stall time (when the sequential driver would have
/// scheduled the fault's completion), envelopes by their send time.
fn apply_injections(eng: &mut Sim, cl: &mut Cluster, envelopes: Vec<Envelope>) {
    enum Item {
        Rekick { host: usize, at: SimTime },
        Deliver(Envelope),
    }
    let mut items: Vec<((SimTime, usize, u64), Item)> = Vec::new();
    let own_shard = cl.shard_id().expect("invariant: sharded replica");
    for (host, at, seq) in cl.take_stalls() {
        items.push((
            injection_sort_key(at, own_shard, seq),
            Item::Rekick { host, at },
        ));
    }
    for env in envelopes {
        items.push((
            injection_sort_key(env.sent_at, env.src_shard, env.seq),
            Item::Deliver(env),
        ));
    }
    items.sort_by_key(|&(key, _)| key);
    for (_, item) in items {
        match item {
            Item::Rekick { host, at } => cl.driver_kick_at(eng, HostId(host), at),
            Item::Deliver(env) => {
                let deliver = ClusterEvent::Deliver {
                    host: HostId(env.dst_host),
                    pkt: env.pkt,
                };
                eng.post_at(env.deliver_at, deliver);
            }
        }
    }
}

/// The leader's barrier-phase work: violation check, global-order fault
/// draws, envelope routing, and the next epoch verdict.
fn leader_merge(
    c: &mut Coordinator,
    cl: &mut Cluster,
    plan: &ShardPlan,
    deadline: Option<SimTime>,
) {
    let deposits: Vec<Deposit> = c
        .deposits
        .iter_mut()
        .map(|d| d.take().expect("invariant: every shard deposited"))
        .collect();
    for dep in &deposits {
        for env in &dep.outbox {
            assert!(
                env.deliver_at >= c.prev_epoch_end,
                "lookahead violation: cross-shard packet from shard {} sent at {} \
                 arrives at {} inside the epoch ending at {}; the configured \
                 lookahead exceeds the real minimum cross-shard latency",
                env.src_shard,
                env.sent_at.as_ns(),
                env.deliver_at.as_ns(),
                c.prev_epoch_end.as_ns()
            );
        }
    }
    // Draw deferred fault latencies in global (raised_at, shard, seq)
    // order — the order the sequential run consumed the RNG in. The
    // leader's own replica RNG is the stream: fault draws are its only
    // consumer, and sharded replicas never draw locally.
    let mut draws: Vec<&PendingDraw> = deposits.iter().flat_map(|d| d.draws.iter()).collect();
    draws.sort_by_key(|d| injection_sort_key(d.raised_at, d.src_shard, d.seq));
    let mut fills: Vec<Vec<(usize, SimTime)>> = (0..plan.shards).map(|_| Vec::new()).collect();
    for d in draws {
        let latency = cl.draw_fault_latency(d.lo, d.hi);
        fills[plan.owner[d.host]].push((d.host, latency));
    }
    // Route envelopes and compute the earliest pending work anywhere:
    // local heaps, in-flight envelopes, and stalled drivers (whose next
    // event lands no earlier than stall time + that host's fault floor).
    let mut injections: Vec<Vec<Envelope>> = (0..plan.shards).map(|_| Vec::new()).collect();
    let mut min_next: Option<SimTime> = None;
    let mut stalled = false;
    let mut canonical_end = SimTime::ZERO;
    let fold = |t: SimTime, min_next: &mut Option<SimTime>| {
        *min_next = Some(min_next.map_or(t, |m: SimTime| m.min(t)));
    };
    for dep in deposits {
        canonical_end = canonical_end.max(dep.last_executed);
        if let Some(t) = dep.next_event {
            fold(t, &mut min_next);
        }
        for &(_, at, fault_floor) in &dep.stalls {
            stalled = true;
            fold(at + fault_floor, &mut min_next);
        }
        for env in dep.outbox {
            fold(env.deliver_at, &mut min_next);
            injections[plan.owner[env.dst_host]].push(env);
        }
    }
    // Done only when nothing is pending within the deadline *and* no
    // driver is stalled: a stall at t <= deadline must still be rekicked
    // (the sequential run began that fault even if its completion falls
    // past the deadline).
    let done = match min_next {
        None => true,
        Some(m) => !stalled && deadline.is_some_and(|d| m > d),
    };
    let end = if done {
        None
    } else {
        let m = min_next.expect("invariant: not done implies pending work");
        let e = epoch_end(m, c.width);
        c.prev_epoch_end = e;
        Some(e)
    };
    if let Some(d) = deadline {
        canonical_end = d;
    }
    for (id, (fills, injections)) in fills.into_iter().zip(injections).enumerate() {
        c.directives[id] = Some(Directive {
            fills,
            injections,
            epoch_end: end,
            canonical_end,
        });
    }
}

/// Locks the coordinator, absorbing mutex poisoning: barrier poisoning
/// (not mutex state) is the cross-thread failure protocol here, and
/// every critical section leaves the slots consistent.
fn lock(coord: &Mutex<Coordinator>) -> std::sync::MutexGuard<'_, Coordinator> {
    match coord.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Merges per-shard engine queue statistics into the numbers one
/// sequential engine would have reported.
///
/// Replicated events ([`Cluster::set_loss_at`]) exist once per shard,
/// so their schedule/execute counts are discounted by `shards - 1` (the
/// per-shard counters are identical across replicas — pass shard 0's).
/// `peak_depth` is not derivable from per-shard peaks (the maxima need
/// not coincide in time) and is reported as 0; sharded merges drop the
/// `event.peak_depth` gauge rather than publish a lie.
pub fn merge_queue_stats(
    per_shard: &[QueueStats],
    global_scheduled: u64,
    global_executed: u64,
) -> QueueStats {
    let mut m = QueueStats::default();
    for qs in per_shard {
        m.live += qs.live;
        m.dead_pending += qs.dead_pending;
        m.executed += qs.executed;
        m.dead_pops += qs.dead_pops;
        m.scheduled += qs.scheduled;
        m.cancelled += qs.cancelled;
        m.replaced += qs.replaced;
        m.keyed_live += qs.keyed_live;
    }
    let extra = per_shard.len().saturating_sub(1) as u64;
    m.executed -= extra * global_executed;
    m.scheduled -= extra * global_scheduled;
    m.live -= (extra * (global_scheduled - global_executed)) as usize;
    m.peak_depth = 0;
    m
}

/// Puts the replicas' hubs into the form [`Finished::telemetry`]
/// documents. The hubs fold into the first — counters and gauges sum
/// (per-host instruments are zero on non-owner replicas, so sums are
/// exact), histograms merge bucket-wise, spans concatenate. Then spans
/// sort by completion and the `event.*` engine gauges are rewritten from
/// the merged `queue`, minus the non-derivable peak depth (see
/// [`merge_queue_stats`]).
fn merge_telemetry(hubs: Vec<Telemetry>, queue: &QueueStats) -> Telemetry {
    let mut hubs = hubs.into_iter();
    let mut hub = hubs.next().unwrap_or_default();
    for t in hubs {
        hub.absorb(&t);
    }
    hub.sort_spans_by_completion();
    set_mergeable_engine_gauges(&mut hub, queue);
    hub.remove_metric("event.peak_depth", Labels::NONE);
    hub
}
