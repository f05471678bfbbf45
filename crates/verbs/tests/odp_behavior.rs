//! Integration tests of the ODP machinery: the Fig. 1 workflows, the
//! packet-damming pitfall (§V) and the packet-flood pitfall (§VI).

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::LinkSpec;
use ibsim_verbs::{
    Cluster, DeviceProfile, HostId, MrMode, PacketKind, QpConfig, ReadWr, RecoveryKind, Sim,
    WcStatus, WriteWr,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(10);

fn cx4() -> DeviceProfile {
    DeviceProfile::connectx4(LinkSpec::fdr())
}

fn setup(
    profile: DeviceProfile,
    server_odp: bool,
    client_odp: bool,
    buf: u64,
) -> (
    Sim,
    Cluster,
    HostId,
    HostId,
    ibsim_verbs::MrDesc,
    ibsim_verbs::MrDesc,
) {
    let eng = Engine::new();
    let mut cl = Cluster::new(7);
    let a = cl.add_host("client", profile.clone());
    let b = cl.add_host("server", profile);
    let server_mode = if server_odp {
        MrMode::Odp
    } else {
        MrMode::Pinned
    };
    let client_mode = if client_odp {
        MrMode::Odp
    } else {
        MrMode::Pinned
    };
    let remote = cl.alloc_mr(b, buf, server_mode);
    let local = cl.alloc_mr(a, buf, client_mode);
    (eng, cl, a, b, local, remote)
}

#[test]
fn server_side_odp_single_read_uses_rnr_nak() {
    // Fig. 1 left: request → page fault → RNR NAK → wait ≈4.5 ms →
    // retransmit → response.
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), true, false, 4096);
    cl.capture_enable(a);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    // One RNR NAK was sent by the server.
    assert_eq!(cl.qp_stats_sum(b).rnr_naks_sent, 1);
    assert_eq!(cl.mr_fault_count(b, remote.key), 1);
    // Completion is dominated by the actual RNR wait (≈4.5 ms for the
    // 1.28 ms advertised delay) — not by the fault itself.
    let t = cq[0].at;
    assert!(
        (SimTime::from_ms(4)..SimTime::from_ms(6)).contains(&t),
        "completed at {t}"
    );
    // Capture shows the retransmitted request.
    let retx = cl
        .capture(a)
        .iter()
        .filter(|r| r.payload.retransmit && r.payload.kind.is_request())
        .count();
    assert!(retx >= 1, "expected a retransmitted request in the capture");
}

#[test]
fn client_side_odp_single_read_blind_retransmits() {
    // Fig. 1 right: response discarded on a local fault; the requester
    // blindly retransmits every ~0.5 ms until the page is usable.
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), false, true, 4096);
    cl.capture_enable(a);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(cl.mr_fault_count(a, local.key), 1);
    let stats = cl.qp_stats_sum(a);
    assert!(
        stats.responses_discarded >= 1,
        "the first response must be discarded"
    );
    assert!(stats.retransmissions >= 1, "blind retransmission happened");
    // Page fault resolves within 250–1000 µs; the next 0.5 ms-grid blind
    // retransmission fetches the data: completion lands within ~2 ms.
    let t = cq[0].at;
    assert!(
        (SimTime::from_us(500)..SimTime::from_ms(2)).contains(&t),
        "completed at {t}"
    );
    // No RNR NAK involved on the client side.
    assert_eq!(cl.qp_stats_sum(b).rnr_naks_sent, 0);
}

#[test]
fn prefetched_odp_behaves_like_pinned() {
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), true, true, 4096);
    cl.prefetch_mr(b, remote.key);
    cl.prefetch_mr(a, local.key);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert!(cq[0].at < SimTime::from_us(10), "no faults: {}", cq[0].at);
    assert_eq!(cl.mr_fault_count(a, local.key), 0);
    assert_eq!(cl.mr_fault_count(b, remote.key), 0);
}

#[test]
fn invalidated_page_faults_again() {
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), true, false, 4096);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 1);
    assert_eq!(cl.mr_fault_count(b, remote.key), 1);
    // The kernel reclaims the server page; the next READ faults again.
    cl.invalidate_page(b, remote.key, 0);
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(2),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::Success);
    assert_eq!(cl.mr_fault_count(b, remote.key), 2);
}

#[test]
fn write_from_odp_source_stalls_until_fault_resolves() {
    // Send-side ODP: the WRITE payload is DMA-read from an unmapped local
    // page; transmission stalls on the fault, then proceeds.
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), false, true, 4096);
    cl.mem_write(a, local.base, b"send-side fault");
    // mem_write touches OS pages but the NIC mapping is still cold.
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        WriteWr::new(local.key, remote.key).len(15).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(cl.mr_fault_count(a, local.key), 1);
    assert!(
        cq[0].at >= SimTime::from_us(250),
        "stalled for the fault: {}",
        cq[0].at
    );
    assert_eq!(cl.mem_read(b, remote.base, 15), b"send-side fault");
}

// ---------------------------------------------------------------------
// Packet damming (§V)
// ---------------------------------------------------------------------

/// Runs the two-READ micro-benchmark of Fig. 3 at a given interval and
/// returns the completion time of the last READ.
fn two_reads(
    profile: DeviceProfile,
    server_odp: bool,
    client_odp: bool,
    interval: SimTime,
) -> SimTime {
    let (mut eng, mut cl, a, b, local, remote) = setup(profile, server_odp, client_odp, 8192);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // Fig. 3 layout: 100-byte messages at `size * i`, both on page 0.
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(0u64),
    );
    let second = ReadWr::new(local.at(100), remote.at(100)).len(100).id(1);
    cl.post_at(&mut eng, interval, a, qa, second);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 2, "both READs must complete");
    assert!(cq.iter().all(|c| c.status.is_success()));
    cq.iter().map(|c| c.at).max().expect("both READs completed")
}

#[test]
fn damming_two_reads_in_window_hits_timeout_server_side() {
    // Interval 1 ms < RNR window (~4.5 ms): the second READ's request is
    // lost and only the ~500 ms transport timeout recovers it (Fig. 5).
    let t = two_reads(cx4(), true, false, SimTime::from_ms(1));
    assert!(t >= SimTime::from_ms(400), "expected timeout, got {t}");
}

#[test]
fn damming_two_reads_outside_window_is_fast_server_side() {
    // Interval 6 ms > window: no damming.
    let t = two_reads(cx4(), true, false, SimTime::from_ms(6));
    assert!(t < SimTime::from_ms(20), "no timeout expected, got {t}");
}

#[test]
fn damming_two_reads_client_side_window_is_half_millisecond() {
    // Client-side ODP: the ghost window is the 0.5 ms blind-retransmit
    // delay (Fig. 6b).
    let inside = two_reads(cx4(), false, true, SimTime::from_us(300));
    assert!(
        inside >= SimTime::from_ms(400),
        "0.3 ms is inside the window: {inside}"
    );
    let outside = two_reads(cx4(), false, true, SimTime::from_us(900));
    assert!(
        outside < SimTime::from_ms(20),
        "0.9 ms is outside the window: {outside}"
    );
}

#[test]
fn no_damming_on_connectx6() {
    // Vendor feedback: the flaw "vanishes in later models" (§IX-B).
    let t = two_reads(DeviceProfile::connectx6(), true, false, SimTime::from_ms(1));
    assert!(t < SimTime::from_ms(20), "ConnectX-6 must not dam: {t}");
    let t = two_reads(
        DeviceProfile::connectx6(),
        false,
        true,
        SimTime::from_us(300),
    );
    assert!(t < SimTime::from_ms(20), "ConnectX-6 must not dam: {t}");
}

#[test]
fn third_read_rescues_via_sequence_error_nak() {
    // Fig. 8 (client-side ODP): the second READ falls inside the 0.5 ms
    // ghost window and is lost; the third, posted after the window,
    // provokes NAK(PSN sequence error) and everything retransmits
    // immediately — no timeout. Per §V-C, all buffers except the first
    // communication's are touched in advance.
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), false, true, 3 * 4096);
    // Pre-touch every local page, then chill page 0 again so only the
    // first READ faults.
    cl.prefetch_mr(a, local.key);
    cl.invalidate_page(a, local.key, 0);
    cl.capture_enable(a);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(0u64),
    );
    // Second READ 0.35 ms after the first (inside the ghost window),
    // third at 0.7 ms (outside).
    for i in 1..3u64 {
        let read = ReadWr::new(local.at(i * 4096), remote.at(i * 4096)).len(100);
        let at = SimTime::from_us(350) * i;
        cl.post_at(&mut eng, at, a, qa, read.id(i));
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 3);
    let t = cq.iter().map(|c| c.at).max().unwrap();
    assert!(t < SimTime::from_ms(20), "NAK rescue, not timeout: {t}");
    assert!(
        cl.qp_stats_sum(b).seq_naks_sent >= 1,
        "expected a PSN sequence error NAK"
    );
    // The ghost (second READ's lost request) is in the client capture.
    let ghosts = cl.capture(a).iter().filter(|r| r.payload.ghost).count();
    assert!(ghosts >= 1, "ghost request visible in sender capture");
}

#[test]
fn damming_timeout_also_with_write_as_second_op() {
    // §V-C: damming "occurred even when the second operation was WRITE or
    // SEND".
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), true, false, 8192);
    cl.mem_write(a, local.base + 4096, b"w");
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(0u64),
    );
    let write = WriteWr::new(local.at(4096), remote.at(4096)).len(1).id(1);
    cl.post_at(&mut eng, SimTime::from_ms(1), a, qa, write);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 2);
    let t = cq.iter().map(|c| c.at).max().unwrap();
    assert!(t >= SimTime::from_ms(400), "expected timeout, got {t}");
}

// ---------------------------------------------------------------------
// Packet flood (§VI)
// ---------------------------------------------------------------------

/// Issues one 32-byte READ per QP, all into the same local ODP page
/// (Fig. 10 layout), and returns (last completion time, total packets).
fn flood_run(qps: usize) -> (SimTime, u64) {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(13);
    let a = cl.add_host("client", cx4());
    let b = cl.add_host("server", cx4());
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Odp);
    let cfg = QpConfig {
        cack: 18,
        ..QpConfig::default()
    };
    let mut handles = Vec::new();
    for _ in 0..qps {
        handles.push(cl.connect_pair(&mut eng, a, b, cfg.clone()));
    }
    for (i, (qa, _)) in handles.iter().enumerate() {
        cl.post(
            &mut eng,
            a,
            *qa,
            ReadWr::new((local.key, (i * 32) as u64), remote.key)
                .len(32)
                .id(i as u64),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), qps);
    assert!(cq.iter().all(|c| c.status.is_success()));
    (
        cq.iter().map(|c| c.at).max().expect("every QP completed"),
        cl.stats.total_packets,
    )
}

#[test]
fn few_qps_resolve_within_common_fault_overhead() {
    // Below the resume capacity (~10), everything finishes right after
    // the single page fault plus one blind-retransmit period.
    let (t, _) = flood_run(8);
    assert!(t < SimTime::from_ms(3), "no flood expected: {t}");
}

#[test]
fn many_qps_suffer_update_failure_of_page_statuses() {
    // 128 QPs on one page (Fig. 11a): completions spread out for
    // milliseconds after the ~1 ms fault resolution because per-QP status
    // updates serialize in the driver.
    let (t, packets) = flood_run(128);
    assert!(
        (SimTime::from_ms(3)..SimTime::from_ms(60)).contains(&t),
        "straggler tail expected: {t}"
    );
    let (_, packets_small) = flood_run(8);
    assert!(
        packets > packets_small * 8,
        "flood multiplies packets: {packets} vs {packets_small}"
    );
}

#[test]
fn flood_retransmissions_are_duplicates_of_the_same_reads() {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(13);
    let a = cl.add_host("client", cx4());
    let b = cl.add_host("server", cx4());
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Odp);
    cl.capture_enable(a);
    let cfg = QpConfig {
        cack: 18,
        ..QpConfig::default()
    };
    let mut qps = Vec::new();
    for _ in 0..32 {
        qps.push(cl.connect_pair(&mut eng, a, b, cfg.clone()).0);
    }
    for (i, qa) in qps.iter().enumerate() {
        cl.post(
            &mut eng,
            a,
            *qa,
            ReadWr::new((local.key, (i * 32) as u64), remote.key)
                .len(32)
                .id(i as u64),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 32);
    // Many duplicate READ requests of the same 32 messages flew by.
    let retx_reqs = cl
        .capture(a)
        .iter()
        .filter(|r| {
            r.payload.retransmit && matches!(r.payload.kind, PacketKind::ReadRequest { .. })
        })
        .count();
    assert!(retx_reqs > 32, "flood duplicates: {retx_reqs}");
    let discarded = cl.qp_stats_sum(a).responses_discarded;
    assert!(discarded > 32, "discarded duplicates: {discarded}");
}

/// One zero-length request touching the byte *after* a 4096-byte region,
/// where there is no page: `probe` names which of the request's ranges
/// sits there. Returns `(status, bytes, faults raised, pages pinned)`.
fn zero_length_at_region_end(
    probe: &str,
    odp: bool,
    recovery: RecoveryKind,
) -> (WcStatus, u32, u64, u64) {
    const END: u64 = 4096;
    let (server_odp, client_odp) = match probe {
        "read target" | "write target" => (odp, false),
        "read landing" | "write source" => (false, odp),
        other => panic!("unknown probe {other}"),
    };
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), server_odp, client_odp, END);
    let cfg = QpConfig {
        recovery,
        ..QpConfig::default()
    };
    let (qa, _) = cl.connect_pair(&mut eng, a, b, cfg);
    match probe {
        "read target" => cl.post(
            &mut eng,
            a,
            qa,
            ReadWr::new(local.key, (remote.key, END)).len(0).id(1),
        ),
        "read landing" => cl.post(
            &mut eng,
            a,
            qa,
            ReadWr::new((local.key, END), remote.key).len(0).id(1),
        ),
        "write target" => cl.post(
            &mut eng,
            a,
            qa,
            WriteWr::new(local.key, (remote.key, END)).len(0).id(1),
        ),
        _ => cl.post(
            &mut eng,
            a,
            qa,
            WriteWr::new((local.key, END), remote.key).len(0).id(1),
        ),
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 1, "{probe}: one completion");
    let faults = cl.mr_fault_count(a, local.key) + cl.mr_fault_count(b, remote.key);
    let stats = [cl.qp_stats_sum(a), cl.qp_stats_sum(b)];
    assert_eq!(
        faults,
        stats.iter().map(|s| s.faults_raised).sum::<u64>(),
        "{probe}: region and QP fault counters agree"
    );
    let pinned = stats.iter().map(|s| s.pages_pinned).sum();
    (cq[0].status, cq[0].bytes, faults, pinned)
}

/// A zero-length READ or WRITE pointing at the end of an ODP region —
/// as its remote target, its local landing range or its local source —
/// touches no page: it completes `Success` with 0 bytes and raises no
/// fault under every recovery backend, exactly as on pinned memory.
/// (The first three panicked the responder or the requester mid-run,
/// "range out of bounds", while each site re-spelt the zero-length rule
/// beside its bounds check.)
#[test]
fn zero_length_at_the_end_of_an_odp_region_touches_no_page() {
    for probe in [
        "read target",
        "write target",
        "read landing",
        "write source",
    ] {
        for recovery in [
            RecoveryKind::GoBackN,
            RecoveryKind::SelectiveRepeat,
            RecoveryKind::OnDemandPin,
        ] {
            let pinned_twin = zero_length_at_region_end(probe, false, recovery);
            assert_eq!(
                pinned_twin,
                (WcStatus::Success, 0, 0, 0),
                "{probe} on pinned memory under {recovery}"
            );
            assert_eq!(
                zero_length_at_region_end(probe, true, recovery),
                pinned_twin,
                "{probe} on ODP memory under {recovery}"
            );
        }
    }
}

/// A zero-length READ pointing *inside* an ODP region still touches the
/// page it points into: the server faults it (one RNR NAK) before the
/// empty response goes out.
#[test]
fn zero_length_inside_an_odp_region_still_faults_its_page() {
    let (mut eng, mut cl, a, b, local, remote) = setup(cx4(), true, false, 8192);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, (remote.key, 4096)).len(0).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!((cq[0].status, cq[0].bytes), (WcStatus::Success, 0));
    assert_eq!(cl.mr_fault_count(b, remote.key), 1);
    assert_eq!(cl.qp_stats_sum(b).rnr_naks_sent, 1);
}
