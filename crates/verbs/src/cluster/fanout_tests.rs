//! The fault fan-out — a resolved page wakes only the QPs that await
//! one — against the broadcast it replaced, which the cluster keeps
//! behind `broadcast_page_ready` as the reference: seeded ODP worlds are
//! run under both rules and must leave the same observable world.

use ibsim_event::SplitMix64;
use ibsim_telemetry::export_jsonl;

use super::*;
use crate::qp::RecoveryKind;
use crate::wr::{ReadWr, SendWr, WriteWr};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

/// The ODP worlds replayed under both rules.
#[derive(Debug, Clone, Copy)]
enum World {
    /// The flood cell: 64 QPs, both sides ODP, every READ landing on the
    /// same few pages, so most waiters go stale and resume one by one.
    Flood,
    /// A shuffle-shaped mesh: three hosts, eight QPs per pair, READs,
    /// WRITEs and SENDs with ODP on both ends (cold source pages block
    /// transmission) — and three QPs in four never used.
    Mesh,
    /// Server-side ODP only: requests into cold server pages are
    /// answered with RNR NAKs under fault pendency.
    ServerRnr,
}

const WORLDS: [World; 3] = [World::Flood, World::Mesh, World::ServerRnr];

fn build(world: World, recovery: RecoveryKind, broadcast: bool) -> (Sim, Cluster) {
    let (hosts, qps_per_pair, ops, client_mode) = match world {
        World::Flood => (2, 64, 256, MrMode::Odp),
        World::Mesh => (3, 8, 96, MrMode::Odp),
        World::ServerRnr => (2, 8, 64, MrMode::Pinned),
    };
    let mut b = ClusterBuilder::new().seed(9).capture(true).telemetry(true);
    for h in 0..hosts {
        b = b.host(
            &format!("h{h}"),
            DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
        );
    }
    let (mut eng, mut cl, hosts) = b.build();
    cl.broadcast_page_ready = broadcast;

    const LEN: u64 = 8 * 4096;
    let local: Vec<MrDesc> = hosts
        .iter()
        .map(|&h| cl.alloc_mr(h, LEN, client_mode))
        .collect();
    let remote: Vec<MrDesc> = hosts
        .iter()
        .map(|&h| {
            let mr = cl.alloc_mr(h, LEN, MrMode::Odp);
            let bytes: Vec<u8> = (0..LEN).map(|i| (i % 239) as u8 + h.0 as u8).collect();
            cl.mem_write(h, mr.base, &bytes);
            mr
        })
        .collect();

    let cfg = QpConfig {
        recovery,
        ..QpConfig::default()
    };
    // (requester host index, its QP, responder host index, its QP)
    let mut conns = Vec::new();
    for x in 0..hosts.len() {
        for y in x + 1..hosts.len() {
            for _ in 0..qps_per_pair {
                let (qx, qy) = cl.connect_pair(&mut eng, hosts[x], hosts[y], cfg.clone());
                conns.push((x, qx, y, qy));
                conns.push((y, qy, x, qx));
            }
        }
    }
    if matches!(world, World::Mesh) {
        let mut used = 0;
        conns.retain(|_| {
            used += 1;
            used % 4 == 1
        });
    }

    let mut rng = SplitMix64::new(0xFA20 + world as u64);
    for i in 0..ops as u64 {
        let (me, qpn, peer, peer_qpn) = conns[i as usize % conns.len()];
        // Everything inside the first two pages in the flood, so the
        // QPs pile onto the same faults; anywhere otherwise.
        let span = if matches!(world, World::Flood) {
            2 * 4096
        } else {
            LEN
        };
        let len = 1 + rng.next_below(300) as u32;
        let off = rng.next_below(span - u64::from(len));
        let (lmr, rmr) = (local[me], remote[peer]);
        let wr: WorkRequest = match (world, rng.next_below(3)) {
            (World::Flood, _) | (_, 0) => {
                ReadWr::new(lmr.at(off), rmr.at(off)).len(len).id(i).into()
            }
            (_, 1) => WriteWr::new(lmr.at(off), rmr.at(off)).len(len).id(i).into(),
            _ => {
                let recv = RecvWr {
                    id: WrId(1_000 + i),
                    mr: rmr.key,
                    offset: off,
                    max_len: len,
                };
                cl.post_recv(hosts[peer], peer_qpn, recv);
                SendWr::new(lmr.at(off)).len(len).id(i).into()
            }
        };
        cl.post_at(&mut eng, SimTime::from_ns(700 * i), hosts[me], qpn, wr);
    }
    (eng, cl)
}

/// Everything a finished world shows of itself.
#[derive(Debug, PartialEq)]
struct Outcome {
    timelines: Vec<String>,
    queue: QueueStats,
    stats: ClusterStats,
    qp_stats: Vec<QpStats>,
    drivers: Vec<DriverStats>,
    completions: Vec<Vec<Completion>>,
    jsonl: String,
}

fn finish(eng: &Sim, cl: &mut Cluster) -> Outcome {
    cl.sync_telemetry_at(eng, eng.now());
    let hosts: Vec<HostId> = (0..cl.host_count()).map(HostId).collect();
    Outcome {
        timelines: hosts.iter().map(|&h| cl.capture(h).timeline()).collect(),
        queue: eng.queue_stats(),
        stats: cl.stats,
        qp_stats: hosts.iter().map(|&h| cl.qp_stats_sum(h)).collect(),
        drivers: hosts.iter().map(|&h| cl.driver_stats(h)).collect(),
        completions: hosts.iter().map(|&h| cl.poll_cq(h)).collect(),
        jsonl: export_jsonl(cl.telemetry()),
    }
}

#[test]
fn waking_the_interested_qps_leaves_the_same_world_as_waking_all() {
    for world in WORLDS {
        for recovery in RecoveryKind::ALL {
            let case = format!("{world:?} under {recovery}");
            let run = |broadcast| {
                let (mut eng, mut cl) = build(world, recovery, broadcast);
                // A QP that misses its page retries for ever: bound the
                // run, so that shows as a failure and not as a hang.
                eng.run_until(&mut cl, SimTime::from_secs(20));
                assert_eq!(eng.pending_events(), 0, "{case}: still busy");
                let out = finish(&eng, &mut cl);
                (out, cl.turns)
            };
            let (reference, all_turns) = run(true);
            let (out, turns) = run(false);
            assert!(
                reference.completions.iter().flatten().count() > 0
                    && reference
                        .completions
                        .iter()
                        .flatten()
                        .all(|c| c.status.is_success()),
                "{case}: the world must finish its work"
            );
            let faults: u64 = reference.qp_stats.iter().map(|s| s.faults_raised).sum();
            if recovery.pins_on_first_touch() {
                assert_eq!(faults, 0, "{case}");
                assert_eq!(turns, all_turns, "{case}");
            } else {
                // The reference really is the broadcast: it spends turns
                // on QPs with nothing to hear.
                assert!(faults > 0, "{case}");
                assert!(turns < all_turns, "{case}: {turns} of {all_turns} turns");
            }
            // The flood's point is the stale page status: waiters beyond
            // the NIC's resume slots are skipped by the fan-out and
            // resumed one by one.
            let resumes: u64 = reference.drivers.iter().map(|d| d.qp_resumes).sum();
            if matches!(world, World::Flood) && faults > 0 {
                assert!(resumes > 0, "{case}");
            }
            assert!(out == reference, "{case}: the worlds differ");
        }
    }
}

/// The NIC's interest flags are a cache of `Qp::awaits_page`; after
/// every event of every world they must say what the QPs say.
#[test]
fn interest_flags_track_the_predicate_after_every_event() {
    for world in WORLDS {
        for recovery in RecoveryKind::ALL {
            let (mut eng, mut cl) = build(world, recovery, false);
            let (mut events, mut interested) = (0u64, 0u64);
            while eng.step(&mut cl) {
                assert!(eng.now() <= HORIZON, "{world:?} under {recovery}: stalled");
                events += 1;
                for nic in &cl.nics {
                    for qp in nic.qps() {
                        assert_eq!(
                            nic.awaits_page(qp.qpn()),
                            qp.awaits_page(),
                            "{world:?} under {recovery}: event {events}, {} {}",
                            nic.host,
                            qp.qpn()
                        );
                        interested += u64::from(qp.awaits_page());
                    }
                }
            }
            assert!(events > 100, "{world:?} under {recovery}: {events} events");
            assert_eq!(
                interested > 0,
                !recovery.pins_on_first_touch(),
                "{world:?} under {recovery}: QPs must have awaited pages"
            );
        }
    }
}

/// A resolved fault costs the QPs that wait for it, not the QPs that
/// exist: 2 000 connected, idle QPs beside the one that faults add no
/// handler turn at all.
#[test]
fn idle_qps_take_no_turn_when_a_fault_resolves() {
    let turns_with = |idle: usize| {
        let (mut eng, mut cl, hosts) = ClusterBuilder::new()
            .seed(3)
            .host("client", DeviceProfile::connectx6())
            .host("server", DeviceProfile::connectx6())
            .build();
        let (a, b) = (hosts[0], hosts[1]);
        let src = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let dst = cl.alloc_mr(a, 4096, MrMode::Odp);
        let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        for _ in 0..idle {
            cl.connect_pair(&mut eng, a, b, QpConfig::default());
        }
        cl.post(&mut eng, a, qa, ReadWr::new(dst, src).len(64).id(1));
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        assert_eq!(cl.nic(a).qp_count(), idle + 1);
        assert_eq!(cl.qp_stats_sum(a).faults_raised, 1);
        assert!(cl.poll_cq(a)[0].status.is_success());
        cl.turns
    };
    let alone = turns_with(0);
    assert!(alone > 0);
    assert_eq!(turns_with(2_000), alone);
}
