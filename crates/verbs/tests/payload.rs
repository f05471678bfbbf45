//! What a packet's payload is: a snapshot of the sender's memory at the
//! moment the packet was built, whatever is written to those pages
//! afterwards — by the application, by another QP's WRITE, or after the
//! packet sits in a capture. And the MTU a segment is cut at is an IBTA
//! path MTU, checked when the QP is created.

use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;
use ibsim_verbs::{
    Cluster, ClusterBuilder, DeviceProfile, HostId, MrMode, PacketKind, QpConfig, ReadWr, Sim,
    WcStatus, WriteWr,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn hosts(n: usize, capture: bool) -> (Sim, Cluster, Vec<HostId>) {
    let mut b = ClusterBuilder::new().seed(7).capture(capture);
    for i in 0..n {
        b = b.host(&format!("h{i}"), DeviceProfile::connectx4(LinkSpec::fdr()));
    }
    b.build()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// A WRITE's payload is gathered when it is posted: overwriting the
/// source before delivery does not change what lands. The WRITE
/// straddles a page boundary, so both of its source pages are involved.
#[test]
fn a_posted_write_lands_the_bytes_it_was_posted_with() {
    let (mut eng, mut cl, h) = hosts(2, false);
    let (a, b) = (h[0], h[1]);
    let local = cl.alloc_mr(a, 2 * 4096, MrMode::Pinned);
    let remote = cl.alloc_mr(b, 2 * 4096, MrMode::Pinned);
    let (old, new) = (pattern(3000, 1), pattern(3000, 2));
    cl.mem_write(a, local.base + 2048, &old);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    let wr = WriteWr::new(local.at(2048), remote.at(2048)).len(3000);
    cl.post(&mut eng, a, qa, wr.id(1));
    cl.mem_write(a, local.base + 2048, &new);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::Success);
    assert_eq!(cl.mem_read(b, remote.base + 2048, 3000), old);
    assert_eq!(cl.mem_read(a, local.base + 2048, 3000), new);
}

/// A READ response in flight while another QP's WRITE rewrites the
/// responder's page delivers the bytes the page held when the response
/// was built.
#[test]
fn a_read_response_in_flight_keeps_the_pre_write_bytes() {
    let (mut eng, mut cl, h) = hosts(3, false);
    let (reader, server, writer) = (h[0], h[1], h[2]);
    let len = 3 * 4096;
    let target = cl.alloc_mr(server, len as u64, MrMode::Pinned);
    let landing = cl.alloc_mr(reader, len as u64, MrMode::Pinned);
    let source = cl.alloc_mr(writer, 4096, MrMode::Pinned);
    let (old, new) = (pattern(len, 3), pattern(4096, 4));
    cl.mem_write(server, target.base, &old);
    cl.mem_write(writer, source.base, &new);
    let (qr, _) = cl.connect_pair(&mut eng, reader, server, QpConfig::default());
    let (qw, _) = cl.connect_pair(&mut eng, writer, server, QpConfig::default());

    cl.post(
        &mut eng,
        reader,
        qr,
        ReadWr::new(landing.key, target.key).len(len as u32),
    );
    // Run until the server has put all three response segments on the
    // wire, then rewrite the last page they were cut from.
    while cl.stats.response_packets < 3 {
        assert!(eng.step(&mut cl), "the READ was answered");
    }
    let wr = WriteWr::new(source.key, target.at(2 * 4096)).len(4096);
    cl.post(&mut eng, writer, qw, wr);
    while cl.cq_len(reader) == 0 {
        assert!(eng.step(&mut cl), "the READ completed");
    }
    // The WRITE landed before the READ's last segment did...
    assert_eq!(cl.mem_read(server, target.base + 2 * 4096, 4096), new);
    // ...and the reader still got the bytes from before it.
    assert_eq!(cl.poll_cq(reader)[0].status, WcStatus::Success);
    assert_eq!(cl.mem_read(reader, landing.base, len), old);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(writer)[0].status, WcStatus::Success);
}

/// A captured packet is a record of what went on the wire: rewriting its
/// source page afterwards leaves the capture as it was.
#[test]
fn a_captured_packet_keeps_its_bytes_after_the_page_is_rewritten() {
    let (mut eng, mut cl, h) = hosts(2, true);
    let (a, b) = (h[0], h[1]);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let old = pattern(4096, 5);
    cl.mem_write(a, local.base, &old);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        WriteWr::new(local.key, remote.key).len(4096),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    cl.mem_write(a, local.base, &pattern(4096, 6));
    cl.mem_write(b, remote.base, &pattern(4096, 7));
    for host in [a, b] {
        let data = cl.capture(host).iter().find_map(|rec| {
            let PacketKind::WriteRequest { data, .. } = &rec.payload.kind else {
                return None;
            };
            Some(data.iter().copied().collect::<Vec<_>>())
        });
        assert_eq!(data.as_deref(), Some(&old[..]), "{host:?}");
    }
}

#[test]
#[should_panic(expected = "QpConfig::mtu 0 is not an IBTA path MTU")]
fn a_zero_mtu_is_refused_when_the_qp_is_created() {
    let (_, mut cl, h) = hosts(1, false);
    cl.create_qp(
        h[0],
        QpConfig {
            mtu: 0,
            ..QpConfig::default()
        },
    );
}

#[test]
#[should_panic(expected = "QpConfig::mtu 8192 is not an IBTA path MTU")]
fn an_mtu_above_a_page_is_refused_when_the_qp_is_created() {
    let (_, mut cl, h) = hosts(1, false);
    cl.create_qp(
        h[0],
        QpConfig {
            mtu: 8192,
            ..QpConfig::default()
        },
    );
}

/// Every legal MTU cuts a READ and a WRITE of two and a half MTUs into
/// three segments each, and both round-trip their bytes.
#[test]
fn every_ibta_mtu_round_trips_a_three_segment_read_and_write() {
    for mtu in [256, 512, 1024, 2048, 4096] {
        let (mut eng, mut cl, h) = hosts(2, false);
        let (a, b) = (h[0], h[1]);
        let len = 2 * mtu + mtu / 2;
        let local = cl.alloc_mr(a, 2 * len as u64, MrMode::Pinned);
        let remote = cl.alloc_mr(b, 2 * len as u64, MrMode::Pinned);
        let (read, written) = (pattern(len, 8), pattern(len, 9));
        cl.mem_write(b, remote.base, &read);
        cl.mem_write(a, local.base + len as u64, &written);
        let cfg = QpConfig {
            mtu: mtu as u32,
            ..QpConfig::default()
        };
        let (qa, _) = cl.connect_pair(&mut eng, a, b, cfg);
        cl.post(
            &mut eng,
            a,
            qa,
            ReadWr::new(local.key, remote.key).len(len as u32),
        );
        let wr = WriteWr::new(local.at(len as u64), remote.at(len as u64)).len(len as u32);
        cl.post(&mut eng, a, qa, wr);
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let done = cl.poll_cq(a);
        assert!(
            done.len() == 2 && done.iter().all(|c| c.status.is_success()),
            "mtu {mtu}"
        );
        assert_eq!(cl.mem_read(a, local.base, len), read, "mtu {mtu}");
        assert_eq!(
            cl.mem_read(b, remote.base + len as u64, len),
            written,
            "mtu {mtu}"
        );
        let s = cl.stats;
        assert_eq!((s.request_packets, s.response_packets), (4, 3), "mtu {mtu}");
    }
}
