//! Sharded execution (PDES) of a cluster whose hosts fall into
//! shard-closed groups.
//!
//! ## Model
//!
//! Every shard thread builds a **full replica** of the cluster (same
//! hosts, QPs, seeds) but only *executes* events for the hosts it owns
//! (`ShardPlan::owner`). Every connected QP pair sits on one shard, so
//! no packet crosses a shard, and on the crossbar every port a frame
//! touches belongs to the sender's shard. What the replicas still share
//! is the cluster RNG, whose only consumer is the ODP fault-latency
//! draw. The shards advance in lock-step epochs:
//!
//! 1. each shard runs its local event heap up to the current epoch
//!    boundary, deferring its fault-latency draws;
//! 2. at the [`EpochBarrier`], a leader (shard 0) draws the deferred
//!    latencies from *its own* cluster RNG in `(raise time, shard, seq)`
//!    order, the order the sequential run consumed the stream in, and
//!    publishes the next boundary;
//! 3. each shard applies its fills, rekicks its stalled drivers in
//!    `(stall time, seq)` order and runs the next epoch.
//!
//! The epoch width is the fault-draw floor
//! ([`Cluster::fault_draw_floor`]): a fault raised inside an epoch
//! completes no earlier than the next boundary. With identical replicas
//! and a sequential-order RNG stream, a sharded run produces
//! **bit-identical traces** at every shard count, the property
//! `tests/run_plan.rs` pins against the plain engine. No epoch waits on
//! a packet from another shard: [`Cluster::validate_sharding`] rejects
//! every plan that would send one, before the first epoch.
//!
//! ## Entry point
//!
//! [`run_sharded`] is the bare epoch loop, always threaded, even for one
//! shard. Its one caller outside this crate's tests is the benchmark's
//! `wide` workload, which times it; every scenario, figure and app runs
//! on one plain engine instead.

use std::collections::BTreeMap;
use std::sync::Mutex;

use ibsim_event::{epoch_end, EpochBarrier, PoisonGuard, QueueStats, SimTime, POISON_PAYLOAD};

use crate::cluster::{Cluster, Sim};
use crate::types::HostId;

/// A host-to-shard partition: the plan of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards, and of the threads that run them.
    pub shards: usize,
    /// `owner[h]` is the shard executing host `h`'s events.
    pub owner: Vec<usize>,
}

impl ShardPlan {
    /// A plan with an explicit owner map.
    pub fn new(shards: usize, owner: Vec<usize>) -> Self {
        ShardPlan { shards, owner }
    }

    /// The checks that need no cluster; [`Cluster::enable_sharding`]
    /// checks that the owner map covers every host, and
    /// [`Cluster::validate_sharding`] the rest.
    fn check(&self) {
        assert!(self.shards >= 1, "a sharded run needs at least one shard");
        assert!(
            self.owner.iter().all(|&s| s < self.shards),
            "owner map names shard >= {}",
            self.shards
        );
    }
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
    /// Monotone per-shard sequence number stamping pending draws and
    /// stalls, so same-time items keep their local creation order
    /// through the leader's global merge sort.
    pub(crate) seq: u64,
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
            pending_draws: Vec::new(),
            stalls: BTreeMap::new(),
            global_scheduled: 0,
            global_executed: 0,
        }
    }

    /// Whether the owner map names more than one shard.
    pub(crate) fn is_split(&self) -> bool {
        self.owner.iter().any(|&s| s != self.owner[0])
    }
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
    draws: Vec<PendingDraw>,
    /// For each stalled driver, the earliest its fault can complete:
    /// stall time + that host's minimum fault latency.
    stalls: Vec<SimTime>,
    next_event: Option<SimTime>,
    last_executed: SimTime,
}

/// What the leader hands each shard back.
struct Directive {
    /// `(host, latency)` fills in global draw order, restricted to this
    /// shard's hosts.
    fills: Vec<(usize, SimTime)>,
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
    width: Option<SimTime>,
}

/// The bare epoch loop: runs one simulation split across `plan.shards`
/// OS threads in epochs as wide as the fault-draw floor, always
/// threaded, even for one shard — the form the benchmark times.
///
/// `build` is called once per shard, inside its thread ([`Cluster`] is
/// not `Send`), and must construct shard `id`'s **full replica**: add
/// every host, call [`Cluster::enable_sharding`] with `id` and
/// `plan.owner`, then install the workload through [`Cluster::post_at`],
/// [`Cluster::invalidate_at`] and [`Cluster::set_loss_at`], which
/// schedule each operation on the replicas that run it. `finish` maps
/// each completed shard to its result; it receives the canonical
/// end-of-run clock (pass it to [`Cluster::sync_telemetry_at`] so dwell
/// flushes match the sequential run). `deadline` bounds the run like
/// `Engine::run_until`; `None` runs until no shard has work left.
///
/// # Panics
///
/// Panics on a malformed plan — no shards, an owner map that does not
/// cover the cluster's hosts or names a shard out of range — and on
/// every plan [`Cluster::validate_sharding`] or
/// [`Cluster::set_loss_at`] rejects. A panic on any shard poisons the
/// barrier and unwinds every thread; the original panic payload is
/// re-raised.
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
    let barrier = EpochBarrier::new(plan.shards);
    let coord = Mutex::new(Coordinator {
        deposits: (0..plan.shards).map(|_| None).collect(),
        directives: (0..plan.shards).map(|_| None).collect(),
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
fn shard_main<D, B, F>(
    id: usize,
    plan: &ShardPlan,
    deadline: Option<SimTime>,
    barrier: &EpochBarrier,
    coord: &Mutex<Coordinator>,
    build: &B,
    finish: &F,
) -> D
where
    B: Fn(usize) -> (Sim, Cluster),
    F: Fn(usize, Sim, Cluster, SimTime) -> D,
{
    let guard = PoisonGuard::new(barrier);
    let (mut eng, mut cl) = build(id);
    assert_eq!(
        cl.shard_id(),
        Some(id),
        "a sharded build closure must call enable_sharding(id, owner)"
    );
    cl.validate_sharding();
    if id == 0 {
        // All replicas are identical post-build; the leader sets the
        // epoch width once, from its own.
        lock(coord).width = cl.fault_draw_floor();
    }
    loop {
        let deposit = Deposit {
            draws: cl.take_pending_draws(),
            stalls: cl.stall_floors(),
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
        // Rekicks enter the heap in the order the sequential drivers
        // would have scheduled their fault completions.
        let mut stalls = cl.take_stalls();
        stalls.sort_by_key(|&(_, at, seq)| (at, seq));
        for (host, at, _) in stalls {
            cl.driver_kick_at(&mut eng, HostId(host), at);
        }
        match directive.epoch_end {
            None => {
                if let Some(d) = deadline {
                    // Park the clock exactly as the sequential run would.
                    eng.run_until(&mut cl, d);
                }
                guard.defuse();
                return finish(id, eng, cl, directive.canonical_end);
            }
            Some(end) => {
                let mut target = if end == SimTime::MAX {
                    SimTime::MAX
                } else {
                    // Run *strictly before* the boundary: a fault
                    // completion rekicked next round may land on the
                    // boundary instant itself.
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

/// The leader's barrier-phase work: global-order fault draws and the
/// next epoch verdict.
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
    // Draw deferred fault latencies in global (raised_at, shard, seq)
    // order — the order the sequential run consumed the RNG in. The
    // leader's own replica RNG is the stream: fault draws are its only
    // consumer, and sharded replicas never draw locally.
    let mut draws: Vec<&PendingDraw> = deposits.iter().flat_map(|d| d.draws.iter()).collect();
    draws.sort_by_key(|d| (d.raised_at, d.src_shard, d.seq));
    let mut fills: Vec<Vec<(usize, SimTime)>> = (0..plan.shards).map(|_| Vec::new()).collect();
    for d in draws {
        let latency = cl.draw_fault_latency(d.lo, d.hi);
        fills[plan.owner[d.host]].push((d.host, latency));
    }
    // The earliest pending work anywhere: local heaps, and stalled
    // drivers, whose next event lands no earlier than their stall floor.
    let min_next = deposits
        .iter()
        .flat_map(|d| d.next_event.iter().chain(&d.stalls))
        .min()
        .copied();
    let stalled = deposits.iter().any(|d| !d.stalls.is_empty());
    // Done only when nothing is pending within the deadline *and* no
    // driver is stalled: a stall at t <= deadline must still be rekicked
    // (the sequential run began that fault even if its completion falls
    // past the deadline).
    let end = match min_next {
        None => None,
        Some(m) if !stalled && deadline.is_some_and(|d| m > d) => None,
        Some(m) => Some(epoch_end(m, c.width)),
    };
    let canonical_end = deadline.unwrap_or_else(|| {
        deposits
            .iter()
            .map(|d| d.last_executed)
            .max()
            .unwrap_or(SimTime::ZERO)
    });
    for (id, fills) in fills.into_iter().enumerate() {
        c.directives[id] = Some(Directive {
            fills,
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
