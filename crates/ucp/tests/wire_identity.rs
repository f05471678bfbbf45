//! The wire a seeded UCP mesh produces, pinned: every captured packet,
//! the cluster's packet counters and each worker's completion list.
//! When an endpoint builds its eager rings is the layer's own business;
//! nothing a capture, a counter or a completion shows may depend on it.

use ibsim_event::{assert_golden, Engine, Fnv1a, SimTime, SplitMix64};
use ibsim_ucp::{EpId, MemSlice, Tag, Ucp, UcpConfig};
use ibsim_verbs::{Cluster, DeviceProfile, HostId, MrDesc, Sim};

/// Bytes of one eager ring: 32 slots of 4 KiB, registered pinned. The
/// test maps no region of this size, so a region of it is a ring.
const RING_BYTES: u64 = 32 * 4096;
const ROUNDS: u64 = 12;
const ROUND: u64 = 10;
const SLOT: u64 = 8192;
/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn slice(mr: &MrDesc, offset: u64, len: u32) -> MemSlice {
    MemSlice {
        host: mr.host,
        mr: mr.key,
        offset,
        len,
    }
}

/// One world: three workers, seven endpoints (two per worker pair plus
/// one that only ever carries `get` and `put`), every region mapped
/// before the first `connect`, capture on at every host. Folds the wire
/// into `h`; returns the cluster and the tagged `(receiver, endpoint,
/// sender)` directions, in order of first use.
fn run_mesh(odp: bool, h: &mut Fnv1a) -> (Cluster, Vec<(HostId, EpId, HostId)>) {
    let mut rng = SplitMix64::new(0x51AB_0003);
    let mut eng: Sim = Engine::new();
    let mut cl = Cluster::new(13);
    let ucp = Ucp::new(UcpConfig { odp });
    let hosts: Vec<HostId> = ["a", "b", "c"]
        .iter()
        .map(|n| ucp.add_worker(&mut cl, n, DeviceProfile::connectx6()))
        .collect();
    let (mut srcs, mut dsts) = (Vec::new(), Vec::new());
    for (w, &host) in hosts.iter().enumerate() {
        let src = ucp.mem_map(&mut cl, host, 2 * SLOT);
        let bytes: Vec<u8> = (0..2 * SLOT)
            .map(|o| ((o * 5 + w as u64) % 253) as u8)
            .collect();
        cl.mem_write(host, src.base, &bytes);
        srcs.push(src);
        dsts.push(ucp.mem_map(&mut cl, host, (2 + ROUNDS * ROUND) * SLOT));
    }
    for &host in &hosts {
        cl.capture_enable(host);
    }
    // `pairs[i]` joins the workers of `eps[i]`; the last one is RMA only.
    let pairs = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1), (0, 2)];
    let tagged = pairs.len() - 1;
    let eps: Vec<EpId> = pairs
        .iter()
        .map(|&(x, y)| ucp.connect(&mut eng, &mut cl, hosts[x], hosts[y]))
        .collect();
    let mut dirs = Vec::new();
    let mut carried = |to: HostId, ep: EpId, from: HostId| {
        if !dirs.contains(&(to, ep, from)) {
            dirs.push((to, ep, from));
        }
    };

    // A rendezvous on a fresh endpoint: its RTS is the first SEND from
    // `a` to `b`, and its FIN the first SEND back, carried by nothing
    // before it. Then an eager message opens a direction of its own.
    let (a, b) = (hosts[0], hosts[1]);
    ucp.tag_recv(&mut eng, &mut cl, b, Tag(0), slice(&dsts[1], 0, 6000));
    ucp.tag_send(
        &mut eng,
        &mut cl,
        eps[0],
        a,
        Tag(0),
        slice(&srcs[0], 0, 6000),
    );
    carried(b, eps[0], a);
    carried(a, eps[0], b);
    eng.run(&mut cl, HORIZON).expect("the mesh quiesces");
    ucp.tag_send(
        &mut eng,
        &mut cl,
        eps[1],
        hosts[2],
        Tag(1),
        slice(&srcs[2], 8, 300),
    );
    ucp.tag_recv(&mut eng, &mut cl, a, Tag(1), slice(&dsts[0], SLOT, 300));
    carried(a, eps[1], hosts[2]);
    eng.run(&mut cl, HORIZON).expect("the mesh quiesces");

    for round in 0..ROUNDS {
        let mut late = Vec::new();
        for i in 0..ROUND {
            let n = 2 + round * ROUND + i;
            let op = rng.next_below(4);
            let e = rng.next_below(if op < 2 { eps.len() } else { tagged } as u64) as usize;
            let (mut me, mut peer) = pairs[e];
            if rng.next_bool() {
                std::mem::swap(&mut me, &mut peer);
            }
            let off = rng.next_below(SLOT);
            let len = match op {
                2 => 1 + rng.next_below(4000) as u32,
                _ => 4096 + rng.next_below(4096) as u32,
            };
            match op {
                0 => {
                    let dst = slice(&dsts[me], n * SLOT, len);
                    ucp.get(
                        &mut eng,
                        &mut cl,
                        eps[e],
                        hosts[me],
                        dst,
                        srcs[peer].key,
                        off,
                        len,
                    );
                }
                1 => {
                    let src = slice(&srcs[me], off, len);
                    ucp.put(
                        &mut eng,
                        &mut cl,
                        eps[e],
                        hosts[me],
                        src,
                        dsts[peer].key,
                        n * SLOT,
                        len,
                    );
                }
                _ => {
                    let (tag, dst) = (Tag(n), slice(&dsts[peer], n * SLOT, len));
                    if rng.next_bool() {
                        ucp.tag_recv(&mut eng, &mut cl, hosts[peer], tag, dst);
                    } else {
                        late.push((hosts[peer], tag, dst));
                    }
                    let src = slice(&srcs[me], off, len);
                    ucp.tag_send(&mut eng, &mut cl, eps[e], hosts[me], tag, src);
                    carried(hosts[peer], eps[e], hosts[me]);
                    if op == 3 {
                        carried(hosts[me], eps[e], hosts[peer]); // the FIN
                    }
                }
            }
        }
        eng.run(&mut cl, HORIZON).expect("the mesh quiesces");
        for (host, tag, dst) in late {
            ucp.tag_recv(&mut eng, &mut cl, host, tag, dst);
        }
        eng.run(&mut cl, HORIZON).expect("the mesh quiesces");
        assert_eq!(ucp.open_requests(), 0, "round {round}");
    }

    for &host in &hosts {
        for r in cl.capture(host).iter() {
            let p = &r.payload;
            let line = format!(
                "{} {} {}>{} {} {} {}|",
                r.time.as_ns(),
                r.direction,
                r.src.0,
                r.dst.0,
                p.kind.opcode(),
                p.psn.value(),
                r.bytes
            );
            h.write_bytes(line.as_bytes());
        }
        for c in ucp.take_completed(host) {
            assert!(!c.failed, "{c:?}");
            h.write_bytes(format!("{c:?}|").as_bytes());
        }
    }
    h.write_bytes(format!("{:?}", cl.stats).as_bytes());
    (cl, dirs)
}

/// The mesh with application memory pinned and on ODP hashes to its
/// pin. Every SEND finds a ring receive posted (no RNR NAK where no page
/// can fault), and a host holds one ring per tagged direction into it,
/// so the endpoint that only carried `get` and `put` holds none.
#[test]
fn lazy_rings_are_invisible_on_the_wire() {
    let mut h = Fnv1a::new();
    for odp in [false, true] {
        let (cl, dirs) = run_mesh(odp, &mut h);
        if !odp {
            assert_eq!(cl.stats.rnr_nak_packets, 0);
        }
        for host in (0..cl.host_count()).map(HostId) {
            let rings = cl.nic(host).mrs.values();
            let rings = rings.filter(|mr| mr.len() == RING_BYTES).count();
            let into = dirs.iter().filter(|&&(to, ..)| to == host).count();
            assert_eq!(rings, into, "{host}: one ring per tagged direction into it");
        }
    }
    assert_golden("ucp.mesh-wire", [h.finish()]);
}
