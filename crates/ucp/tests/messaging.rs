//! Integration tests of the UCP layer: eager and rendezvous protocols,
//! unexpected messages, RMA, callbacks, and the ODP toggle's effect.

use ibsim_event::{Engine, SimTime};
use ibsim_ucp::{MemSlice, ReqKind, Tag, Ucp, UcpConfig};
use ibsim_verbs::{Cluster, DeviceProfile, HostId, MrDesc, Sim};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn setup(cfg: UcpConfig) -> (Sim, Cluster, Ucp, HostId, HostId, ibsim_ucp::EpId) {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(21);
    let ucp = Ucp::new(cfg);
    let a = ucp.add_worker(
        &mut cl,
        "a",
        DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
    );
    let b = ucp.add_worker(
        &mut cl,
        "b",
        DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
    );
    let ep = ucp.connect(&mut eng, &mut cl, a, b);
    (eng, cl, ucp, a, b, ep)
}

fn slice(desc: &MrDesc, offset: u64, len: u32) -> MemSlice {
    MemSlice {
        host: desc.host,
        mr: desc.key,
        offset,
        len,
    }
}

#[test]
fn eager_send_recv_roundtrip() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let src = ucp.mem_map(&mut cl, a, 4096);
    let dst = ucp.mem_map(&mut cl, b, 4096);
    cl.mem_write(a, src.base, b"eager payload");
    ucp.tag_recv(&mut eng, &mut cl, b, Tag(1), slice(&dst, 0, 13));
    let sreq = ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(1), slice(&src, 0, 13));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let ca = ucp.take_completed(a);
    let cb = ucp.take_completed(b);
    assert_eq!(ca.len(), 1);
    assert_eq!(ca[0].req, sreq);
    assert_eq!(ca[0].kind, ReqKind::TagSend);
    assert!(!ca[0].failed);
    assert_eq!(cb.len(), 1);
    assert_eq!(cb[0].kind, ReqKind::TagRecv);
    assert_eq!(cb[0].bytes, 13);
    assert_eq!(cl.mem_read(b, dst.base, 13), b"eager payload");
}

#[test]
fn unexpected_eager_is_buffered_until_recv() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let src = ucp.mem_map(&mut cl, a, 4096);
    let dst = ucp.mem_map(&mut cl, b, 4096);
    cl.mem_write(a, src.base, b"early bird");
    // Send first; the receive is posted 1 ms later.
    ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(5), slice(&src, 0, 10));
    let ucp2 = ucp.clone();
    let dsts = slice(&dst, 0, 10);
    eng.schedule_at(SimTime::from_ms(1), move |c: &mut Cluster, eng| {
        ucp2.tag_recv(eng, c, b, Tag(5), dsts);
    });
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(b).len(), 1);
    assert_eq!(cl.mem_read(b, dst.base, 10), b"early bird");
}

#[test]
fn rendezvous_uses_read_and_transfers_bulk() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let len = 64 * 1024;
    let src = ucp.mem_map(&mut cl, a, len as u64);
    let dst = ucp.mem_map(&mut cl, b, len as u64);
    let payload: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
    cl.mem_write(a, src.base, &payload);
    ucp.tag_recv(&mut eng, &mut cl, b, Tag(2), slice(&dst, 0, len as u32));
    ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(2), slice(&src, 0, len as u32));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(a).len(), 1, "FIN completes the sender");
    assert_eq!(ucp.take_completed(b).len(), 1);
    assert_eq!(cl.mem_read(b, dst.base, len), payload);
    // Bulk moved via READ responses, not eager SENDs.
    assert!(cl.stats.response_packets >= (len as u64) / 4096);
}

#[test]
fn rendezvous_unexpected_then_recv() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let len = 16 * 1024u32;
    let src = ucp.mem_map(&mut cl, a, len as u64);
    let dst = ucp.mem_map(&mut cl, b, len as u64);
    cl.mem_write(a, src.base, &vec![0x5A; len as usize]);
    ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(9), slice(&src, 0, len));
    let ucp2 = ucp.clone();
    let dsts = slice(&dst, 0, len);
    eng.schedule_at(SimTime::from_ms(2), move |c: &mut Cluster, eng| {
        ucp2.tag_recv(eng, c, b, Tag(9), dsts);
    });
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(a).len(), 1);
    assert_eq!(ucp.take_completed(b).len(), 1);
    assert_eq!(cl.mem_read(b, dst.base, 16), vec![0x5A; 16]);
}

#[test]
fn get_and_put_roundtrip() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let ra = ucp.mem_map(&mut cl, a, 8192);
    let rb = ucp.mem_map(&mut cl, b, 8192);
    cl.mem_write(b, rb.base, b"get me");
    cl.mem_write(a, ra.base + 4096, b"put me");
    let g = ucp.get(&mut eng, &mut cl, ep, a, slice(&ra, 0, 6), rb.key, 0, 6);
    let p = ucp.put(
        &mut eng,
        &mut cl,
        ep,
        a,
        slice(&ra, 4096, 6),
        rb.key,
        4096,
        6,
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let done = ucp.take_completed(a);
    assert_eq!(done.len(), 2);
    assert!(done.iter().any(|c| c.req == g && c.kind == ReqKind::Get));
    assert!(done.iter().any(|c| c.req == p && c.kind == ReqKind::Put));
    assert_eq!(cl.mem_read(a, ra.base, 6), b"get me");
    assert_eq!(cl.mem_read(b, rb.base + 4096, 6), b"put me");
}

/// `get` forwards the caller's slice to the verbs layer unchecked; one
/// that overruns its region comes back as a failed request (a local
/// protection error underneath), not a panic or a write past the region.
#[test]
fn get_into_an_out_of_range_slice_fails_the_request() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let ra = ucp.mem_map(&mut cl, a, 4096);
    let rb = ucp.mem_map(&mut cl, b, 4096);
    let g = ucp.get(
        &mut eng,
        &mut cl,
        ep,
        a,
        slice(&ra, 4000, 512),
        rb.key,
        0,
        512,
    );
    assert_eq!(ucp.open_requests(), 1);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let done = ucp.take_completed(a);
    assert_eq!(done.len(), 1);
    assert!(done[0].req == g && done[0].failed && done[0].bytes == 0);
    assert_eq!(ucp.open_requests(), 0);
}

#[test]
fn callbacks_chain_operations() {
    // A GET whose completion triggers a tagged send — the continuation
    // style the DSM and shuffle layers use.
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let ra = ucp.mem_map(&mut cl, a, 4096);
    let rb = ucp.mem_map(&mut cl, b, 4096);
    cl.mem_write(b, rb.base, b"lock");
    ucp.tag_recv(&mut eng, &mut cl, b, Tag(42), slice(&rb, 512, 4));
    let g = ucp.get(&mut eng, &mut cl, ep, a, slice(&ra, 0, 4), rb.key, 0, 4);
    let ucp2 = ucp.clone();
    let srcs = slice(&ra, 0, 4);
    ucp.when_done(&mut eng, &mut cl, g, move |eng, cl, c| {
        assert!(!c.failed);
        ucp2.tag_send(eng, cl, ep, a, Tag(42), srcs);
    });
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(b).len(), 1);
    assert_eq!(cl.mem_read(b, rb.base + 512, 4), b"lock");
}

#[test]
fn when_done_on_finished_request_fires_immediately() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let ra = ucp.mem_map(&mut cl, a, 4096);
    let rb = ucp.mem_map(&mut cl, b, 4096);
    let g = ucp.get(&mut eng, &mut cl, ep, a, slice(&ra, 0, 4), rb.key, 0, 4);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let hit = std::rc::Rc::new(std::cell::Cell::new(false));
    let h = hit.clone();
    ucp.when_done(&mut eng, &mut cl, g, move |_, _, _| h.set(true));
    assert!(hit.get(), "late registration fires immediately");
}

#[test]
fn odp_enabled_get_faults_and_still_completes() {
    // With the UCX-default ODP registration, the first GET faults on both
    // sides but completes with correct data.
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig::default());
    let ra = ucp.mem_map(&mut cl, a, 4096);
    let rb = ucp.mem_map(&mut cl, b, 4096);
    cl.mem_write(b, rb.base, b"odp data");
    let g = ucp.get(&mut eng, &mut cl, ep, a, slice(&ra, 0, 8), rb.key, 0, 8);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let done = ucp.take_completed(a);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].req, g);
    assert!(!done[0].failed);
    assert_eq!(cl.mem_read(a, ra.base, 8), b"odp data");
    assert!(cl.mr_fault_count(b, rb.key) >= 1, "server-side fault");
    // ODP made it slower than the µs-scale pinned path.
    assert!(done[0].at > SimTime::from_us(100));
}

#[test]
fn many_messages_both_directions() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let ra = ucp.mem_map(&mut cl, a, 64 * 128);
    let rb = ucp.mem_map(&mut cl, b, 64 * 128);
    for i in 0..64u64 {
        cl.mem_write(a, ra.base + i * 128, &[i as u8; 64]);
        ucp.tag_recv(
            &mut eng,
            &mut cl,
            a,
            Tag(1000 + i),
            slice(&ra, i * 128 + 64, 64),
        );
        ucp.tag_recv(&mut eng, &mut cl, b, Tag(i), slice(&rb, i * 128, 64));
    }
    for i in 0..64u64 {
        ucp.tag_send(&mut eng, &mut cl, ep, a, Tag(i), slice(&ra, i * 128, 64));
        cl.mem_write(b, rb.base + i * 128 + 64, &[(i + 1) as u8; 64]);
        ucp.tag_send(
            &mut eng,
            &mut cl,
            ep,
            b,
            Tag(1000 + i),
            slice(&rb, i * 128 + 64, 64),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(a).len(), 128, "64 sends + 64 recvs");
    assert_eq!(ucp.take_completed(b).len(), 128);
    assert_eq!(ucp.open_requests(), 0);
    // Spot-check payload routing.
    assert_eq!(cl.mem_read(b, rb.base + 5 * 128, 4), vec![5; 4]);
    assert_eq!(cl.mem_read(a, ra.base + 5 * 128 + 64, 4), vec![6; 4]);
}

#[test]
fn ucp_atomics_roundtrip() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let la = ucp.mem_map(&mut cl, a, 4096);
    let shared = ucp.mem_map(&mut cl, b, 4096);
    cl.mem_write(b, shared.base, &5u64.to_le_bytes());
    let r1 = ucp.fetch_add(&mut eng, &mut cl, ep, a, slice(&la, 0, 8), shared.key, 0, 3);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let done = ucp.take_completed(a);
    assert_eq!(done[0].req, r1);
    assert_eq!(done[0].kind, ReqKind::Atomic);
    assert!(!done[0].failed);
    let orig = u64::from_le_bytes(cl.mem_read(a, la.base, 8).try_into().unwrap());
    assert_eq!(orig, 5);
    let now = u64::from_le_bytes(cl.mem_read(b, shared.base, 8).try_into().unwrap());
    assert_eq!(now, 8);

    // CAS: swap only when the comparison matches.
    let r2 = ucp.compare_swap(
        &mut eng,
        &mut cl,
        ep,
        a,
        slice(&la, 8, 8),
        shared.key,
        0,
        8,
        100,
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(a)[0].req, r2);
    let now = u64::from_le_bytes(cl.mem_read(b, shared.base, 8).try_into().unwrap());
    assert_eq!(now, 100);
}

/// UCX/MPI tag matching is non-overtaking: receives posted on one tag
/// match that tag's messages in posting order, whatever other tags are
/// posted between them. Removing a matched receive used to move the
/// newest one into its place, so three receives came back 0, 2, 1.
#[test]
fn same_tag_receives_match_in_posting_order() {
    const SLOT: u64 = 8192;
    // An eager and a rendezvous size (the threshold is 4096).
    for len in [5u32, 6000] {
        let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
        let src = ucp.mem_map(&mut cl, a, 5 * SLOT);
        let dst = ucp.mem_map(&mut cl, b, 5 * SLOT);
        // Slot i is both the i-th message sent and the i-th receive
        // posted; tags 1, 2, 1, 2, 1.
        let body = |i: u64| vec![b'0' + i as u8; len as usize];
        let tag = |i: u64| Tag(1 + i % 2);
        for i in 0..5 {
            cl.mem_write(a, src.base + i * SLOT, &body(i));
            ucp.tag_recv(&mut eng, &mut cl, b, tag(i), slice(&dst, i * SLOT, len));
        }
        for i in 0..5 {
            ucp.tag_send(&mut eng, &mut cl, ep, a, tag(i), slice(&src, i * SLOT, len));
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        assert_eq!(ucp.open_requests(), 0, "len {len}");
        for i in 0..5 {
            let got = cl.mem_read(b, dst.base + i * SLOT, len as usize);
            assert_eq!(got, body(i), "len {len}: receive {i} on {:?}", tag(i));
        }
    }
}

/// A request takes any number of continuations. The second registration
/// used to replace the first, whose caller then waited for ever.
#[test]
fn every_continuation_of_a_request_runs_in_registration_order() {
    let (mut eng, mut cl, ucp, a, b, ep) = setup(UcpConfig { odp: false });
    let ra = ucp.mem_map(&mut cl, a, 4096);
    let rb = ucp.mem_map(&mut cl, b, 4096);
    let g = ucp.get(&mut eng, &mut cl, ep, a, slice(&ra, 0, 4), rb.key, 0, 4);
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    for i in 0..2 {
        let log = log.clone();
        ucp.when_done(&mut eng, &mut cl, g, move |_, _, c| {
            assert_eq!(c.req, g);
            log.borrow_mut().push(i);
        });
    }
    assert_eq!(ucp.open_requests(), 1);
    assert!(log.borrow().is_empty(), "nothing runs before completion");
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(*log.borrow(), [0, 1]);
    assert_eq!(ucp.open_requests(), 0);
    // After completion a registration runs at once, and only itself.
    let late = log.clone();
    ucp.when_done(&mut eng, &mut cl, g, move |_, _, _| {
        late.borrow_mut().push(2)
    });
    assert_eq!(*log.borrow(), [0, 1, 2]);
    // A request this layer never issued has nothing to wait for.
    for unknown in [ibsim_ucp::ReqId(0), ibsim_ucp::ReqId(99)] {
        ucp.when_done(&mut eng, &mut cl, unknown, |_, _, _| {
            panic!("no such request")
        });
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(*log.borrow(), [0, 1, 2]);
}
