//! Tests that need the layer's private tables: the role slab against
//! the ordered map it replaced, slot reuse under a mixed workload, the
//! slot's size, the protocol constants, and an endpoint whose QP died.

use std::collections::{BTreeMap, BTreeSet};

use ibsim_event::{Engine, SplitMix64};
use ibsim_fabric::Lid;

use super::*;

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(60);

fn app(n: u64) -> WrRole {
    WrRole::App {
        req: ReqId(n),
        kind: ReqKind::Get,
    }
}

fn req_of(role: Option<WrRole>) -> Option<ReqId> {
    role.map(|r| {
        let WrRole::App { req, .. } = r else {
            panic!("the model only stores App roles, found {r:?}");
        };
        req
    })
}

/// The slab against the parent's `BTreeMap<(HostId, WrId), WrRole>`:
/// every take agrees — live ids, ids taken before, ids issued on another
/// host, `WrId(0)`, ids past the table — live ids are pairwise distinct
/// and the table never outgrows the peak number outstanding.
#[test]
fn role_slab_agrees_with_an_ordered_map() {
    let mut rng = SplitMix64::new(0x51AB_0001);
    let mut slab = RoleSlab::default();
    let mut model: BTreeMap<(HostId, WrId), ReqId> = BTreeMap::new();
    let mut retired: Vec<(HostId, WrId)> = Vec::new();
    let (mut peak, mut serial) = (0usize, 0u64);
    for step in 0..20_000u32 {
        // Drain in bursts now and then, so the free list gets deep and
        // the next allocations must reuse it.
        let draining = (step / 500) % 4 == 3;
        let host = HostId(rng.next_below(3) as usize);
        match rng.next_below(if draining { 4 } else { 8 }) {
            0 | 1 => {
                // A live id, on its own host: both give the role back.
                let Some(&(h, wr)) = model.keys().nth(rng.next_below(64) as usize) else {
                    continue;
                };
                assert_eq!(req_of(slab.take(h, wr)), model.remove(&(h, wr)), "{step}");
                retired.push((h, wr));
            }
            2 => {
                // A live id on the wrong host: not ours, and it stays.
                let Some(&(h, wr)) = model.keys().next() else {
                    continue;
                };
                let foreign = HostId((h.0 + 1) % 3);
                assert!(slab.take(foreign, wr).is_none(), "{step}: foreign host");
                assert!(model.contains_key(&(h, wr)));
            }
            3 => {
                // Ids that name nothing: taken before (unless reissued
                // since), zero, one past the table, the far end.
                let stale = retired.get(rng.next_below(retired.len() as u64 + 1) as usize);
                let past = WrId(slab.slots.len() as u64 + 1);
                for (h, wr) in stale
                    .copied()
                    .into_iter()
                    .chain([WrId(0), past, WrId(u64::MAX)].map(|wr| (host, wr)))
                {
                    let expect = model.remove(&(h, wr));
                    assert_eq!(req_of(slab.take(h, wr)), expect, "{step}: {h} {wr:?}");
                }
            }
            _ => {
                serial += 1;
                let wr = slab.alloc_wr(host, app(serial));
                assert_ne!(wr, WrId(0));
                // Distinct among the live ids of *every* host.
                assert!(
                    model.keys().all(|&(_, live)| live != wr),
                    "{step}: {wr:?} issued twice"
                );
                model.insert((host, wr), ReqId(serial));
            }
        }
        peak = peak.max(model.len());
        assert!(slab.slots.len() <= peak, "{step}: table outgrew the peak");
        assert_eq!(slab.slots.len() - slab.free.len(), model.len(), "{step}");
    }
    assert!(
        serial > 5_000 && peak < 2_000,
        "{serial} issued, peak {peak}"
    );
    let live: BTreeSet<WrId> = model.keys().map(|&(_, wr)| wr).collect();
    assert_eq!(live.len(), model.len());
}

/// One slot per outstanding request, and a ring keeps its 32 receives
/// posted for as long as its endpoint lives: in a tagged-message mesh
/// the slot is the layer's resident memory. 40 bytes is the largest
/// role (`RndvGet`: two request ids, an endpoint, a direction) plus the
/// host; the ordered map it replaced spent 48 on the pair and its share
/// of a node besides.
#[test]
fn a_role_slot_stays_within_its_size_bound() {
    assert!(std::mem::size_of::<Option<(HostId, WrRole)>>() <= 40);
}

/// A seeded mix of every operation on a 3-worker mesh, in rounds of
/// `ROUND` operations: everything completes, every destination holds
/// the right bytes, a ring exists exactly where a tagged message
/// travelled, and the role table ends no longer than those rings plus
/// what one round can have in flight — far below the number of
/// requests posted, so slots were reused.
#[test]
fn a_mixed_mesh_workload_completes_and_reuses_role_slots() {
    const ROUNDS: u64 = 40;
    const ROUND: u64 = 12;
    const SLOT: u64 = 8192;
    let mut rng = SplitMix64::new(0x51AB_0002);
    let mut eng = Engine::new();
    let mut cl = Cluster::new(5);
    let ucp = Ucp::new(UcpConfig::default());
    let hosts: Vec<HostId> = ["a", "b", "c"]
        .iter()
        .map(|n| ucp.add_worker(&mut cl, n, DeviceProfile::connectx6()))
        .collect();
    // Two endpoints per worker pair; `eps[i]` joins `pairs[i]`.
    let pairs = [(0, 1), (0, 2), (1, 2), (0, 1), (0, 2), (1, 2)];
    let eps: Vec<EpId> = pairs
        .iter()
        .map(|&(x, y)| ucp.connect(&mut eng, &mut cl, hosts[x], hosts[y]))
        .collect();
    // `connect` builds no ring: the table holds nothing yet.
    assert!(ucp.shared.inner.borrow().roles.slots.is_empty());

    // Per worker: a source region of seeded bytes, a destination region
    // with one slot per operation, and a counter for the atomics.
    let ops = ROUNDS * ROUND;
    let pattern = |w: usize, off: u64| ((off * 7 + w as u64 * 31) % 251) as u8;
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    let mut counters = Vec::new();
    for (w, &h) in hosts.iter().enumerate() {
        let src = ucp.mem_map(&mut cl, h, 4 * SLOT);
        let bytes: Vec<u8> = (0..4 * SLOT).map(|off| pattern(w, off)).collect();
        cl.mem_write(h, src.base, &bytes);
        srcs.push(src);
        dsts.push(ucp.mem_map(&mut cl, h, ops * SLOT));
        counters.push(ucp.mem_map(&mut cl, h, 4096));
    }
    let slice = |mr: &MrDesc, offset: u64, len: u32| MemSlice {
        host: mr.host,
        mr: mr.key,
        offset,
        len,
    };

    // (worker holding the destination slot, slot, worker whose source
    // bytes must land there, source offset, length)
    let mut expect: Vec<(usize, u64, usize, u64, u32)> = Vec::new();
    let mut added = [0u64; 3];
    let mut posted = 0u64;
    // (endpoint, direction) pairs a tagged SEND travelled.
    let mut carried: BTreeSet<(usize, Dir)> = BTreeSet::new();
    for round in 0..ROUNDS {
        let mut late_recvs = Vec::new();
        for i in 0..ROUND {
            let n = round * ROUND + i;
            let e = rng.next_below(eps.len() as u64) as usize;
            let (mut me, mut peer) = pairs[e];
            let dir = if rng.next_bool() {
                std::mem::swap(&mut me, &mut peer);
                Dir::BToA
            } else {
                Dir::AToB
            };
            let off = rng.next_below(SLOT);
            let small = 1 + rng.next_below(4000) as u32;
            let big = 4096 + rng.next_below(4096) as u32;
            posted += 1;
            match rng.next_below(5) {
                0 => {
                    let dst = slice(&dsts[me], n * SLOT, small);
                    ucp.get(
                        &mut eng,
                        &mut cl,
                        eps[e],
                        hosts[me],
                        dst,
                        srcs[peer].key,
                        off,
                        small,
                    );
                    expect.push((me, n, peer, off, small));
                }
                1 => {
                    let src = slice(&srcs[me], off, small);
                    ucp.put(
                        &mut eng,
                        &mut cl,
                        eps[e],
                        hosts[me],
                        src,
                        dsts[peer].key,
                        n * SLOT,
                        small,
                    );
                    expect.push((peer, n, me, off, small));
                }
                2 => {
                    let add = 1 + rng.next_below(9);
                    let local = slice(&dsts[me], n * SLOT, 8);
                    ucp.fetch_add(
                        &mut eng,
                        &mut cl,
                        eps[e],
                        hosts[me],
                        local,
                        counters[peer].key,
                        0,
                        add,
                    );
                    added[peer] += add;
                }
                kind => {
                    let len = if kind == 3 { small } else { big };
                    let (tag, dst) = (Tag(n), slice(&dsts[peer], n * SLOT, len));
                    if rng.next_bool() {
                        ucp.tag_recv(&mut eng, &mut cl, hosts[peer], tag, dst);
                    } else {
                        late_recvs.push((hosts[peer], tag, dst));
                    }
                    let src = slice(&srcs[me], off, len);
                    ucp.tag_send(&mut eng, &mut cl, eps[e], hosts[me], tag, src);
                    carried.insert((e, dir));
                    if kind == 4 {
                        carried.insert((e, dir.flip())); // the FIN
                    }
                    expect.push((peer, n, me, off, len));
                    posted += 1;
                }
            }
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        // The messages of this round without a receive are waiting in
        // the unexpected queues.
        for (h, tag, dst) in late_recvs {
            ucp.tag_recv(&mut eng, &mut cl, h, tag, dst);
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        assert_eq!(ucp.open_requests(), 0, "round {round}");
    }

    let completed: usize = hosts.iter().map(|&h| ucp.take_completed(h).len()).sum();
    assert_eq!(completed as u64, posted);
    for (holder, n, origin, off, len) in expect {
        let got = cl.mem_read(hosts[holder], dsts[holder].base + n * SLOT, len as usize);
        let want: Vec<u8> = (off..off + u64::from(len))
            .map(|o| pattern(origin, o))
            .collect();
        assert_eq!(got, want, "operation {n}");
    }
    for (w, &h) in hosts.iter().enumerate() {
        let sum = cl.mem_read(h, counters[w].base, 8);
        assert_eq!(sum, added[w].to_le_bytes(), "counter on worker {w}");
    }
    let inner = ucp.shared.inner.borrow();
    let built: BTreeSet<(usize, Dir)> = (0..eps.len())
        .flat_map(|e| [Dir::AToB, Dir::BToA].map(|dir| (e, dir)))
        .filter(|&(e, dir)| inner.eps[e].rings[dir as usize].is_some())
        .collect();
    assert_eq!(built, carried);
    // A rendezvous has at most three requests of its own outstanding
    // (RTS, the receiver's GET, FIN); everything else has one.
    let rings = carried.len() * EAGER_SLOTS;
    let table = inner.roles.slots.len();
    assert!(table <= rings + 3 * ROUND as usize, "{table} slots");
    assert!(posted as usize > 10 * (table - rings), "{posted} posted");
}

/// The protocol constants are the values `UcpConfig::default()` carried
/// while they were fields (UCX's, §VII; the fixed-slot eager ring and
/// rendezvous threshold of MPICH2 over InfiniBand): moving one moves
/// every Fig. 12 / Fig. 13 number.
#[test]
fn protocol_constants_are_the_former_defaults() {
    assert!(UcpConfig::default().odp);
    assert_eq!(CACK, 18);
    assert_eq!(MIN_RNR_DELAY, SimTime::from_us(960));
    assert_eq!(RNDV_THRESHOLD, 4096);
    assert_eq!(EAGER_SLOTS, 32);
    assert_eq!(EAGER_SLOT_BYTES, 4096);
    assert_eq!(PROGRESS_MIN, SimTime::from_us(2));
}

/// An errored QP flushes a posted request synchronously, so the cluster
/// wakes the layer from inside the posting call. Every operation on a
/// dead endpoint — one-sided, eager, rendezvous from either side —
/// completes `failed`; nothing panics and nothing stays open.
#[test]
fn every_operation_on_an_errored_endpoint_completes_failed() {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(9);
    let ucp = Ucp::new(UcpConfig { odp: false });
    let a = ucp.add_worker(&mut cl, "a", DeviceProfile::connectx6());
    let b = ucp.add_worker(&mut cl, "b", DeviceProfile::connectx6());
    let ep = ucp.connect(&mut eng, &mut cl, a, b);
    let at_a = ucp.mem_map(&mut cl, a, 4 * 8192);
    let at_b = ucp.mem_map(&mut cl, b, 8192);
    let slice = |mr: &MrDesc, offset: u64, len: u32| MemSlice {
        host: mr.host,
        mr: mr.key,
        offset,
        len,
    };

    // A rendezvous from `b` parks its RTS at `a` while the link works.
    let parked = ucp.tag_send(&mut eng, &mut cl, ep, b, Tag(1), slice(&at_b, 0, 8192));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.open_requests(), 1);

    // `a`'s QP now talks to nobody; one GET exhausts its retries.
    let (qa, qb) = {
        let inner = ucp.shared.inner.borrow();
        (inner.eps[ep.0].a.1, inner.eps[ep.0].b.1)
    };
    cl.connect_to_lid(a, qa, Lid(999), qb);
    ucp.get(
        &mut eng,
        &mut cl,
        ep,
        a,
        slice(&at_a, 0, 64),
        at_b.key,
        0,
        64,
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let done = ucp.take_completed(a);
    assert!(done.len() == 1 && done[0].failed, "{done:?}");

    let reqs = [
        ucp.get(
            &mut eng,
            &mut cl,
            ep,
            a,
            slice(&at_a, 0, 64),
            at_b.key,
            0,
            64,
        ),
        ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(2), slice(&at_a, 0, 100)),
        ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(3), slice(&at_a, 0, 8192)),
        ucp.fetch_add(&mut eng, &mut cl, ep, a, slice(&at_a, 0, 8), at_b.key, 0, 1),
        // Matches the parked RTS: the GET fails, and so does its FIN.
        ucp.tag_recv(&mut eng, &mut cl, a, Tag(1), slice(&at_a, 8192, 8192)),
    ];
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.open_requests(), 0);
    let done = ucp.take_completed(a);
    for req in reqs {
        assert!(done.iter().any(|c| c.req == req && c.failed), "{req}");
    }
    let done = ucp.take_completed(b);
    assert!(done.len() == 1 && done[0].req == parked && done[0].failed);
}
