//! The cluster's events are typed values in the engine's slot arena and
//! a packet's payload shares host pages: traffic allocates nothing per
//! event, payload or not, a loss-recovery pass allocates nothing, and the
//! queue counts what it did exactly as an engine of boxed closures does.
//!
//! The allocation counters are per thread, so the tests of this binary
//! can run in parallel without billing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use ibsim_event::{Engine, Event, QueueStats, SimTime, SplitMix64, TimerKey};
use ibsim_fabric::Lid;
use ibsim_verbs::{
    Cluster, ClusterBuilder, ClusterEvent, DeviceProfile, Effects, HostId, MemRegion, Memory,
    MrDesc, MrKey, MrMode, NakKind, Packet, PacketKind, Psn, Qp, QpConfig, QpEnv, Qpn, ReadWr,
    RecvWr, SendWr, Sim, WorkRequest, WrId, WriteWr,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

struct Counting;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread past its TLS teardown is not one a test measures.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is plain thread-local data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn two_pinned_hosts() -> (Sim, Cluster, HostId, Qpn, [ibsim_verbs::MrDesc; 2]) {
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(3)
        .host("client", DeviceProfile::connectx6())
        .host("server", DeviceProfile::connectx6())
        .build();
    let (a, b) = (hosts[0], hosts[1]);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    (eng, cl, a, qa, [local, remote])
}

/// Zero-length READs (request out, empty response back) and zero-length
/// WRITEs (request out, ACK back), posted in one burst.
fn post_burst(eng: &mut Sim, cl: &mut Cluster, a: HostId, qa: Qpn, mrs: &[ibsim_verbs::MrDesc; 2]) {
    let [local, remote] = *mrs;
    for i in 0..64u64 {
        cl.post(eng, a, qa, ReadWr::new(local, remote).len(0).id(2 * i));
        cl.post(eng, a, qa, WriteWr::new(local, remote).len(0).id(2 * i + 1));
    }
}

#[test]
fn zero_payload_traffic_allocates_nothing_per_event() {
    let (mut eng, mut cl, a, qa, mrs) = two_pinned_hosts();
    // Warm-up: the same burst once, so the arena, the effects pool, the
    // send queue and the CQ have all reached their size.
    post_burst(&mut eng, &mut cl, a, qa, &mrs);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 128);
    let warm = eng.queue_stats();

    post_burst(&mut eng, &mut cl, a, qa, &mrs);
    let allocated = counted(|| {
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
    });
    let s = eng.queue_stats();
    assert_eq!(allocated, 0, "over {} events", s.executed - warm.executed);
    // 128 requests and their 128 responses were delivered, and the ACK
    // timer was re-armed and finally cancelled along the way.
    assert_eq!(s.executed - warm.executed, 256, "{s}");
    assert!(
        s.replaced > warm.replaced && s.cancelled > warm.cancelled,
        "{s}"
    );
    let done = cl.poll_cq(a);
    assert_eq!(done.len(), 128);
    assert!(done.iter().all(|c| c.status.is_success()));
}

/// A deferred post is a `ClusterEvent::Post` held by value in the slot
/// arena, so once warm, scheduling and firing a burst of them allocates
/// nothing. (As a closure, each post cost one box.)
#[test]
fn deferred_posts_allocate_nothing() {
    let (mut eng, mut cl, a, qa, [local, remote]) = two_pinned_hosts();
    let defer_burst = |eng: &mut Sim, cl: &Cluster| {
        let start = eng.now();
        for i in 0..64u64 {
            let read = ReadWr::new(local, remote).len(0).id(i);
            cl.post_at(eng, start + SimTime::from_ns(100 * i), a, qa, read);
        }
    };
    // Warm-up: the same burst once.
    defer_burst(&mut eng, &cl);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 64);
    let warm = eng.queue_stats();

    let allocated = counted(|| {
        defer_burst(&mut eng, &cl);
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
    });
    let s = eng.queue_stats();
    assert_eq!(allocated, 0, "over {} events", s.executed - warm.executed);
    // 64 posts, 64 requests and 64 responses delivered.
    assert_eq!(s.executed - warm.executed, 192, "{s}");
    let done = cl.poll_cq(a);
    assert_eq!(done.len(), 64);
    assert!(done.iter().all(|c| c.status.is_success()));
}

/// A burst of 33 data packets: 4096-B READs, WRITEs and SENDs, 100-B
/// READs and one 3000-B WRITE straddling a page boundary. READs land,
/// WRITEs write and SENDs are received on pages no packet gathers from.
fn post_payload_burst(eng: &mut Sim, cl: &mut Cluster, qps: (Qpn, Qpn), mrs: [MrDesc; 2]) {
    const PAGE: u64 = 4096;
    let [local, remote] = mrs;
    let (a, b) = (local.host, remote.host);
    let (landing, src) = (local.at(0), local.at(PAGE));
    for i in 0..8u64 {
        let read = ReadWr::new(landing, remote.at(0));
        cl.post(eng, a, qps.0, read.len(4096).id(i));
        cl.post(eng, a, qps.0, read.len(100));
        cl.post(eng, a, qps.0, WriteWr::new(src, remote.at(PAGE)).len(4096));
        let recv = RecvWr {
            id: WrId(i),
            mr: remote.key,
            offset: 3 * PAGE,
            max_len: 4096,
        };
        cl.post_recv(b, qps.1, recv);
        cl.post(eng, a, qps.0, SendWr::new(src).len(4096));
    }
    let straddle = WriteWr::new(local.at(PAGE + 2048), remote.at(PAGE + 2048));
    cl.post(eng, a, qps.0, straddle.len(3000));
}

/// A packet shares the pages its payload was gathered from instead of
/// copying them, and no page is rewritten while a packet holds it, so a
/// warm burst — posts and run — allocates nothing: no payload buffer,
/// no copy-on-write clone. (With a `Vec<u8>` per payload it made one
/// allocation per data packet.)
#[test]
fn payload_traffic_allocates_nothing_per_event() {
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(3)
        .host("client", DeviceProfile::connectx6())
        .host("server", DeviceProfile::connectx6())
        .build();
    let (a, b) = (hosts[0], hosts[1]);
    let mrs = [
        cl.alloc_mr(a, 3 * 4096, MrMode::Pinned),
        cl.alloc_mr(b, 4 * 4096, MrMode::Pinned),
    ];
    let qps = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // Warm-up: the same burst once, so every page is resident and every
    // queue has reached its size.
    post_payload_burst(&mut eng, &mut cl, qps, mrs);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!((cl.poll_cq(a).len(), cl.poll_cq(b).len()), (33, 8));

    let allocated = counted(|| {
        post_payload_burst(&mut eng, &mut cl, qps, mrs);
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
    });
    assert_eq!(allocated, 0, "over 33 data packets");
    let done = cl.poll_cq(a);
    assert_eq!(done.len(), 33);
    assert!(done.iter().all(|c| c.status.is_success()));
    assert_eq!(cl.poll_cq(b).len(), 8);
}

/// Four 4096-B READs from the server's page 0 and four 4096-B WRITEs
/// from the client's page 0, each landing on page `first + i` of the
/// other side.
fn post_whole_pages(eng: &mut Sim, cl: &mut Cluster, qa: Qpn, mrs: [MrDesc; 2], first: u64) {
    const PAGE: u64 = 4096;
    let [local, remote] = mrs;
    for i in 0..4 {
        let at = (first + i) * PAGE;
        let read = ReadWr::new(local.at(at), remote.at(0)).len(4096);
        cl.post(eng, local.host, qa, read.id(i));
        let write = WriteWr::new(local.at(0), remote.at(at)).len(4096);
        cl.post(eng, local.host, qa, write.id(i));
    }
}

/// A whole page delivered onto a page nothing has touched is adopted,
/// not copied into a fresh zero page: once warm on other pages, a burst
/// landing on first-touched pages allocates nothing, and each side still
/// reads the other's bytes, separate from later writes to the source.
#[test]
fn whole_pages_landing_on_first_touched_pages_allocate_nothing() {
    const PAGE: u64 = 4096;
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(3)
        .host("client", DeviceProfile::connectx6())
        .host("server", DeviceProfile::connectx6())
        .build();
    let (a, b) = (hosts[0], hosts[1]);
    let mrs = [
        cl.alloc_mr(a, 9 * PAGE, MrMode::Pinned),
        cl.alloc_mr(b, 9 * PAGE, MrMode::Pinned),
    ];
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    let [client, server] = mrs.map(|mr| mr.base);
    cl.mem_write(a, client, &[0xc1; PAGE as usize]);
    cl.mem_write(b, server, &[0x5e; PAGE as usize]);
    // Warm-up on pages 5-8, so every queue has reached its size and each
    // page table already reaches past pages 1-4.
    post_whole_pages(&mut eng, &mut cl, qa, mrs, 5);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 8);

    let allocated = counted(|| {
        post_whole_pages(&mut eng, &mut cl, qa, mrs, 1);
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
    });
    assert_eq!(allocated, 0, "over 8 whole pages landing on 8 fresh pages");
    let done = cl.poll_cq(a);
    assert_eq!(done.len(), 8);
    assert!(done.iter().all(|c| c.status.is_success()));
    cl.mem_write(a, client, b"client");
    cl.mem_write(b, server, b"server");
    for page in 1..=8 {
        let at = page * PAGE;
        assert_eq!(cl.mem_read(a, client + at, 4096), [0x5e; 4096], "{page}");
        assert_eq!(cl.mem_read(b, server + at, 4096), [0xc1; 4096], "{page}");
    }
}

/// QPs in the flood world: more than either world's `resume_slots`.
const FLOOD_QPS: usize = 24;
/// Pages each QP reads into: more than a B-tree leaf holds (11), so a
/// QP can hold that many stale pages at once.
const FLOOD_PAGES: usize = 16;

/// A §VI flood on both-side ODP: `FLOOD_QPS` pairs, each posting one
/// page-sized READ per page of the server's first `FLOOD_PAGES` ODP
/// pages into the client's, on ConnectX-4 hosts that resume `slots`
/// waiters per resolved fault at once and leave the rest stale. Returns
/// what each round after the first allocated, every page invalidated
/// again once the previous round has resolved. One fault latency makes
/// every round run alike.
fn flood_round_allocations(slots: u32) -> [u64; 2] {
    const LEN: u64 = (FLOOD_PAGES * 4096) as u64;
    let mut profile = DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr());
    profile.resume_slots = slots;
    profile.fault_latency_max = profile.fault_latency_min;
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(3)
        .host("client", profile.clone())
        .host("server", profile)
        .build();
    let (a, b) = (hosts[0], hosts[1]);
    let local = cl.alloc_mr(a, LEN, MrMode::Odp);
    let remote = cl.alloc_mr(b, LEN, MrMode::Odp);
    let qps: Vec<Qpn> = (0..FLOOD_QPS)
        .map(|_| cl.connect_pair(&mut eng, a, b, QpConfig::default()).0)
        .collect();
    let round = |eng: &mut Sim, cl: &mut Cluster| {
        for (i, &qa) in qps.iter().enumerate() {
            for page in 0..FLOOD_PAGES as u64 {
                let read = ReadWr::new(local.at(page * 4096), remote.at(page * 4096));
                cl.post(eng, a, qa, read.len(4096).id(i as u64));
            }
        }
        let resumes = cl.driver_stats(a).qp_resumes;
        let allocated = counted(|| {
            eng.run(cl, HORIZON).expect("the flood resolves");
        });
        let done = cl.poll_cq(a);
        assert_eq!(done.len(), FLOOD_QPS * FLOOD_PAGES);
        assert!(done.iter().all(|c| c.status.is_success()));
        let resumed = cl.driver_stats(a).qp_resumes - resumes;
        let stale = (FLOOD_QPS - slots as usize) * FLOOD_PAGES;
        assert_eq!(resumed, stale as u64, "one resume per stale QP and page");
        for page in 0..FLOOD_PAGES {
            cl.invalidate_page(a, local.key, page);
            cl.invalidate_page(b, remote.key, page);
        }
        allocated
    };
    round(&mut eng, &mut cl);
    [round(&mut eng, &mut cl), round(&mut eng, &mut cl)]
}

/// Once a flood round has resolved, the stale-page sets it drained keep
/// their words, so a later round over the same pages marks and clears
/// staleness without allocating: a round allocates the same whether 8
/// or 20 of its 24 QPs go stale. (A `BTreeSet` per QP outgrew its leaf
/// and freed the split on draining, so each stale QP allocated twice
/// every round: 24 more for the 12 extra; a set that dropped a drained
/// region would allocate its words again.)
#[test]
fn repeated_flood_rounds_allocate_no_stale_page_bookkeeping() {
    let few = flood_round_allocations(16);
    let many = flood_round_allocations(4);
    assert_eq!(few, many, "8 stale QPs a round against 20");
}

/// Allocations this thread makes while `f` runs.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

/// A go-back-N recovery pass is one walk of the send queue pushing
/// packets into the turn's effects: with those warm, an ACK timeout, a
/// sequence-error NAK and an RNR-wait expiry allocate nothing, however
/// many messages they resend. (Behind the trait object each pass built,
/// sorted and bisected a `Vec` of PSNs first.)
#[test]
fn go_back_n_recovery_turns_allocate_nothing_beyond_their_packets() {
    let profile = DeviceProfile::connectx6();
    let mut mem = Memory::new();
    let key = MrKey(1);
    let mut mrs = BTreeMap::from([(
        key,
        MemRegion::new(key, mem.alloc(4096), 4096, MrMode::Pinned),
    )]);
    let mut env = QpEnv {
        now: SimTime::ZERO,
        mem: &mut mem,
        mrs: &mut mrs,
        profile: &profile,
    };
    let mut qp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    qp.connect(Lid(2), Qpn(9));
    // Sixteen zero-length READs fill the max_rd_atomic window; posting
    // them also warms the effects' packet vector.
    let mut fx = Effects::new();
    for id in 0..16 {
        let wr: WorkRequest = ReadWr::new((key, 0), MrKey(7)).len(0).id(id).into();
        qp.post(&mut env, &mut fx, wr);
    }
    assert_eq!(fx.packets.len(), 16);
    let nak = |psn: u32, kind| Packet {
        src: Lid(2),
        dst: Lid(1),
        dst_qp: Qpn(1),
        src_qp: Qpn(9),
        psn: Psn::new(psn),
        kind: PacketKind::Nak(kind),
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let resent = |fx: &Effects| fx.packets.iter().filter(|p| p.retransmit).count();

    assert!(fx.timers.arm_ack, "the ACK timer is armed");
    fx.reset();
    env.now = SimTime::from_us(300);
    let timeout = counted(|| qp.on_ack_timeout(&mut env, &mut fx));
    assert_eq!((resent(&fx), timeout), (16, 0), "ACK timeout");

    fx.reset();
    let hole = nak(5, NakKind::SequenceError { epsn: Psn::new(3) });
    let seq_nak = counted(|| qp.on_packet(&mut env, &mut fx, &hole));
    assert_eq!((resent(&fx), seq_nak), (13, 0), "sequence-error NAK");

    fx.reset();
    let delay = SimTime::from_us(10);
    qp.on_packet(&mut env, &mut fx, &nak(0, NakKind::Rnr { delay }));
    assert!(fx.timers.arm_rnr.is_some(), "the RNR wait is armed");
    fx.reset();
    env.now = SimTime::from_us(340);
    let expiry = counted(|| qp.on_rnr_fire(&mut env, &mut fx));
    assert_eq!((resent(&fx), expiry), (16, 0), "RNR expiry");
    assert_eq!(qp.stats().retransmissions, 45);
}

/// A fixed pseudo-random schedule of plain events, keyed arms and
/// re-arms, cancels and steps; `arm` schedules one no-op event the
/// engine's own way. Returns the queue counters after every operation.
fn replay<W, E: Event<W>>(
    eng: &mut Engine<W, E>,
    world: &mut W,
    arm: impl Fn(&mut Engine<W, E>, Option<TimerKey>, SimTime),
) -> Vec<QueueStats> {
    let mut rng = SplitMix64::new(5);
    let mut trail = Vec::new();
    for _ in 0..5_000 {
        let key = TimerKey(1, rng.next_below(32));
        match rng.next_below(8) {
            0..=2 => arm(
                eng,
                None,
                eng.now() + SimTime::from_ns(1 + rng.next_below(2_000)),
            ),
            3..=4 => {
                let at = eng.now() + SimTime::from_ns(1 + rng.next_below(10_000));
                arm(eng, Some(key), at);
            }
            5 => {
                eng.cancel_key(key);
            }
            _ => {
                eng.step(world);
            }
        }
        trail.push(eng.queue_stats());
    }
    eng.run(world, HORIZON).expect("the world quiesces");
    trail.push(eng.queue_stats());
    trail
}

/// The benchmark replays a workload's queue counts on a bare
/// `Engine<u64>` of closures: for the same schedule of times and keys
/// it must count exactly what the cluster's typed engine counts.
#[test]
fn closures_on_a_bare_engine_and_typed_events_on_a_sim_count_alike() {
    let mut bare: Engine<u64> = Engine::new();
    let closures = replay(&mut bare, &mut 0, |eng, key, at| {
        match key {
            Some(key) => eng.schedule_keyed_at(key, at, |w, _| *w += 1),
            None => eng.schedule_at(at, |w, _| *w += 1),
        };
    });

    let (mut eng, mut cl, a, qa, _) = two_pinned_hosts();
    // An RNR timer for a QP in no RNR wait: firing it is a no-op.
    let stale = move || ClusterEvent::RnrTimer { host: a, qpn: qa };
    let typed = replay(&mut eng, &mut cl, |eng, key, at| {
        match key {
            Some(key) => eng.post_keyed_at(key, at, stale()),
            None => eng.post_at(at, stale()),
        };
    });
    assert_eq!(closures, typed);
    let last = typed[typed.len() - 1];
    assert!(last.replaced > 100 && last.cancelled > 100 && last.executed > 1_000);
    assert_eq!(cl.stats.total_packets, 0, "the stale timers did nothing");
}
