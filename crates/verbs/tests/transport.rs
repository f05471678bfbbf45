//! Integration tests of the RC transport over the simulated fabric:
//! data integrity, segmentation, ACK/NAK machinery, and the Fig. 2
//! timeout behavior.

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::{Lid, LossModel};
use ibsim_verbs::{
    Cluster, DeviceProfile, FetchAddWr, MrDesc, MrKey, MrMode, QpConfig, QpState, ReadWr, RecvWr,
    SendWr, Sim, WcOpcode, WcStatus, WorkRequest, WrId, WriteWr,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(60);

fn two_hosts(profile: DeviceProfile) -> (Sim, Cluster, ibsim_verbs::HostId, ibsim_verbs::HostId) {
    let eng = Engine::new();
    let mut cl = Cluster::new(42);
    let a = cl.add_host("client", profile.clone());
    let b = cl.add_host("server", profile);
    (eng, cl, a, b)
}

#[test]
fn read_roundtrip_pinned() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 8192, MrMode::Pinned);
    let local = cl.alloc_mr(a, 8192, MrMode::Pinned);
    let payload: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
    cl.mem_write(b, remote.base, &payload);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(8192).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 1);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(cq[0].opcode, WcOpcode::Read);
    assert_eq!(cq[0].bytes, 8192);
    assert_eq!(cl.mem_read(a, local.base, 8192), payload);
}

#[test]
fn read_latency_is_microseconds_without_odp() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    // "the usual round trip latency of InfiniBand is about several µs" (§IV-B)
    assert!(
        cq[0].at < SimTime::from_us(10),
        "pinned READ took {}",
        cq[0].at
    );
}

#[test]
fn large_read_segments_at_mtu() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let len = 3 * 4096 + 100; // 4 response segments
    let remote = cl.alloc_mr(b, len as u64, MrMode::Pinned);
    let local = cl.alloc_mr(a, len as u64, MrMode::Pinned);
    let payload: Vec<u8> = (0..len as u32).map(|i| (i * 7 % 256) as u8).collect();
    cl.mem_write(b, remote.base, &payload);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(len as u32).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::Success);
    assert_eq!(cl.mem_read(a, local.base, len), payload);
    assert_eq!(cl.stats.response_packets, 4);
}

#[test]
fn write_roundtrip() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 10000, MrMode::Pinned);
    let local = cl.alloc_mr(a, 10000, MrMode::Pinned);
    let payload: Vec<u8> = (0..10000u32).map(|i| (i % 59) as u8).collect();
    cl.mem_write(a, local.base, &payload);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        WriteWr::new(local.key, remote.key).len(10000).id(2),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(cq[0].opcode, WcOpcode::Write);
    assert_eq!(cl.mem_read(b, remote.base, 10000), payload);
}

#[test]
fn send_recv_roundtrip() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let src = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let dst = cl.alloc_mr(b, 4096, MrMode::Pinned);
    cl.mem_write(a, src.base, b"two-sided hello");
    let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post_recv(
        b,
        qb,
        RecvWr {
            id: WrId(77),
            mr: dst.key,
            offset: 0,
            max_len: 4096,
        },
    );
    cl.post(&mut eng, a, qa, SendWr::new(src.key).len(15).id(3));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let ca = cl.poll_cq(a);
    let cb = cl.poll_cq(b);
    assert_eq!(ca[0].opcode, WcOpcode::Send);
    assert_eq!(ca[0].status, WcStatus::Success);
    assert_eq!(cb[0].opcode, WcOpcode::Recv);
    assert_eq!(cb[0].wr_id, WrId(77));
    assert_eq!(cb[0].bytes, 15);
    assert_eq!(cl.mem_read(b, dst.base, 15), b"two-sided hello");
}

#[test]
fn send_without_recv_waits_for_rnr_then_completes() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let src = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let dst = cl.alloc_mr(b, 4096, MrMode::Pinned);
    cl.mem_write(a, src.base, b"late recv");
    let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(&mut eng, a, qa, SendWr::new(src.key).len(9).id(1));
    // Post the receive 2 ms later; the sender must recover via RNR NAK.
    let key = dst.key;
    eng.schedule_at(SimTime::from_ms(2), move |c: &mut Cluster, _| {
        c.post_recv(
            b,
            qb,
            RecvWr {
                id: WrId(9),
                mr: key,
                offset: 0,
                max_len: 4096,
            },
        );
    });
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let ca = cl.poll_cq(a);
    assert_eq!(ca.len(), 1);
    assert_eq!(ca[0].status, WcStatus::Success);
    assert!(cl.stats.rnr_nak_packets >= 1, "expected an RNR NAK");
    assert!(
        ca[0].at >= SimTime::from_ms(2),
        "completed only after recv was posted"
    );
    assert_eq!(cl.mem_read(b, dst.base, 9), b"late recv");
}

/// IBTA 9.7.5.2.8: `rnr_retry` counts retries, so a budget of 2 allows
/// three attempts. The third RNR NAK exhausts it: the SEND completes
/// `IBV_WC_RNR_RETRY_EXC_ERR`, the QP errors, and every later WR is
/// flushed, whether it was queued behind the SEND or posted afterwards.
#[test]
fn rnr_retry_exhaustion_errors_the_send_and_flushes_the_rest() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let src = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let dst = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let cfg = QpConfig {
        rnr_retry: 2,
        ..QpConfig::default()
    };
    // No receive is ever posted on `b`.
    let (qa, _) = cl.connect_pair(&mut eng, a, b, cfg);
    cl.post(&mut eng, a, qa, SendWr::new(src.key).len(9).id(1));
    cl.post(&mut eng, a, qa, WriteWr::new(src.key, dst.key).len(9).id(2));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.qp_stats_sum(a).rnr_naks_received, 3);
    assert_eq!(cl.qp_stats_sum(b).rnr_naks_sent, 3);
    assert_eq!(cl.nic(a).qp(qa).map(|q| q.state()), Some(QpState::Error));
    cl.post(&mut eng, a, qa, SendWr::new(src.key).len(9).id(3));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let statuses: Vec<_> = cl.poll_cq(a).iter().map(|c| (c.wr_id, c.status)).collect();
    assert_eq!(
        statuses,
        [
            (WrId(1), WcStatus::RnrRetryExcErr),
            (WrId(2), WcStatus::WrFlushErr),
            (WrId(3), WcStatus::WrFlushErr),
        ]
    );
}

/// An `rnr_retry` of 7 retries for ever (IBTA 9.7.5.2.8): a SEND that
/// never finds a receive keeps the world busy past any horizon, and the
/// run says so instead of hanging.
#[test]
fn send_that_never_finds_a_recv_stalls_at_the_horizon() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let src = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(&mut eng, a, qa, SendWr::new(src.key).len(9).id(1));
    let stalled = eng
        .run(&mut cl, HORIZON)
        .expect_err("an unlimited RNR retry never quiesces");
    assert_eq!(stalled.at, HORIZON);
    assert!(stalled.pending > 0 && stalled.next > HORIZON, "{stalled}");
    assert!(eng.now() <= HORIZON, "the clock is not parked");
    assert!(cl.qp_stats_sum(a).rnr_naks_received > 1);
    assert!(
        cl.poll_cq(a).is_empty(),
        "the SEND neither completes nor fails"
    );
}

#[test]
fn many_sequential_reads_complete_in_order() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 64 * 100, MrMode::Pinned);
    let local = cl.alloc_mr(a, 64 * 100, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    for i in 0..64u64 {
        cl.post(
            &mut eng,
            a,
            qa,
            ReadWr::new((local.key, i * 100), (remote.key, i * 100))
                .len(100)
                .id(i),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 64);
    let ids: Vec<u64> = cq.iter().map(|c| c.wr_id.0).collect();
    assert_eq!(ids, (0..64).collect::<Vec<_>>(), "CQEs in posting order");
    assert!(cq.iter().all(|c| c.status.is_success()));
}

#[test]
fn wrong_lid_aborts_with_retry_exc_err_at_8_timeouts() {
    // The Fig. 2 methodology: wrong destination LID, C_retry = 7, measure
    // t and estimate T_o = t / 8.
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // Redirect the client QP to a nonexistent LID.
    cl.connect_to_lid(a, qa, Lid(999), qb);
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 1);
    assert_eq!(cq[0].status, WcStatus::RetryExcErr);
    let profile = DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr());
    let t_o = profile.t_o(1).unwrap();
    let measured = cq[0].at;
    let estimate = measured / 8;
    // T_o = t/8 within 5%.
    let ratio = estimate.as_ns() as f64 / t_o.as_ns() as f64;
    assert!(
        (0.95..1.05).contains(&ratio),
        "measured {measured}, estimate {estimate}, T_o {t_o}"
    );
    // ConnectX-4 floor: ~500 ms per timeout (Fig. 2).
    assert!(estimate >= SimTime::from_ms(400), "estimate {estimate}");
}

#[test]
fn cack_above_floor_doubles_abort_time() {
    let run = |cack: u8| {
        let (mut eng, mut cl, a, b) =
            two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let cfg = QpConfig {
            cack,
            ..QpConfig::default()
        };
        let (qa, qb) = cl.connect_pair(&mut eng, a, b, cfg);
        cl.connect_to_lid(a, qa, Lid(999), qb);
        cl.post(
            &mut eng,
            a,
            qa,
            ReadWr::new(local.key, remote.key).len(100).id(1),
        );
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        cl.poll_cq(a)[0].at
    };
    let t17 = run(17);
    let t18 = run(18);
    let ratio = t18.as_ns() as f64 / t17.as_ns() as f64;
    assert!((1.9..2.1).contains(&ratio), "t17={t17} t18={t18}");
}

#[test]
fn injected_single_loss_recovers_via_timeout() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    cl.mem_write(b, remote.base, b"survives loss");
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // Drop exactly the first frame (the READ request).
    cl.fabric.set_loss(LossModel::nth(vec![0]));
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(13).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(cl.mem_read(a, local.base, 13), b"survives loss");
    // Recovery needed one transport timeout (~500 ms on CX-4).
    assert!(
        cq[0].at >= SimTime::from_ms(400),
        "completed at {}",
        cq[0].at
    );
    assert_eq!(cl.qp_stats_sum(a).timeouts, 1);
}

#[test]
fn remote_access_error_reported() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // Read past the end of the remote region.
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, (remote.key, 4000)).len(200).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::RemoteAccessErr);
}

/// Posts a healthy READ and then `bad`, whose *local* range is not the
/// poster's to use: real verbs complete it `IBV_WC_LOC_PROT_ERR`, move
/// the QP to the error state and flush what was queued, and nothing of
/// the bad request reaches the wire or memory.
fn assert_local_protection_error(bad: impl FnOnce(MrDesc, MrDesc) -> WorkRequest) {
    let (mut eng, mut cl, a, b) = two_hosts(DeviceProfile::connectx6());
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    // The next allocation, right behind `local`: an overrun lands here.
    let neighbour = cl.alloc_buffer(a, 4096);
    cl.mem_write(b, remote.base, &[0xAB; 4096]);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(1));
    cl.post(&mut eng, a, qa, bad(local, remote));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    let got: Vec<_> = cq.iter().map(|c| (c.wr_id, c.status, c.bytes)).collect();
    assert_eq!(
        got,
        [
            (WrId(1), WcStatus::WrFlushErr, 0),
            (WrId(2), WcStatus::LocalProtErr, 0)
        ]
    );
    assert_eq!(cq[1].status.to_string(), "IBV_WC_LOC_PROT_ERR");
    assert_eq!(cl.nic(a).qp(qa).map(|q| q.state()), Some(QpState::Error));
    assert_eq!(cl.mem_read(a, neighbour, 4096), vec![0; 4096]);
    assert_eq!(cl.stats.total_packets, 2, "the healthy READ and its reply");
    assert_eq!(eng.queue_stats().live, 0);
}

#[test]
fn read_with_an_unknown_lkey_is_a_local_protection_error() {
    assert_local_protection_error(|_, remote| ReadWr::new(MrKey(99), remote).len(64).id(2).into());
}

#[test]
fn read_landing_past_its_local_region_is_a_local_protection_error() {
    assert_local_protection_error(|local, remote| {
        ReadWr::new(local.at(4000), remote).len(512).id(2).into()
    });
}

#[test]
fn write_sourced_past_its_local_region_is_a_local_protection_error() {
    assert_local_protection_error(|local, remote| {
        WriteWr::new(local.at(4000), remote).len(512).id(2).into()
    });
}

#[test]
fn atomic_landing_past_its_local_region_is_a_local_protection_error() {
    assert_local_protection_error(|local, remote| {
        FetchAddWr::new(local.at(4092), remote).id(2).into()
    });
}

#[test]
fn posts_after_error_flush() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.connect_to_lid(a, qa, Lid(999), qb);
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::RetryExcErr);
    // The QP is now in the error state: further posts flush immediately.
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(100).id(2),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 1);
    assert_eq!(cq[0].status, WcStatus::WrFlushErr);
}

#[test]
fn capture_records_request_and_response() {
    let (mut eng, mut cl, a, b) =
        two_hosts(DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    cl.capture_enable(a);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.key, remote.key).len(64).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cap = cl.capture(a);
    let ops: Vec<&str> = cap.iter().map(|r| r.payload.kind.opcode()).collect();
    assert_eq!(ops, vec!["RDMA_READ_REQ", "RDMA_READ_RESP_ONLY"]);
    let text = cap.timeline();
    assert!(text.contains("RDMA_READ_REQ"), "timeline: {text}");
}
