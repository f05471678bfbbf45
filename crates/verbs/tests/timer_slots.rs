//! A protocol timer is its keyed engine slot: a handler that clears a
//! wait cancels the wait's key in the same turn, so no fire needs a
//! second guard. These tests pin that on a real [`Sim`] by asking the
//! engine which of a QP's [`TimerFamily`] keys are armed at the moments
//! a wait ends some way other than its own timer firing.

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::{Lid, LinkSpec};
use ibsim_verbs::{
    Cluster, DeviceProfile, HostId, Labels, MrDesc, MrMode, QpConfig, QpState, Qpn, ReadWr, Sim,
    TimerFamily, WcStatus,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

/// A ConnectX-4 with a ≈131 µs `T_o` (the stock floor is ≈500 ms), so an
/// ACK timeout fits inside a page fault's 250 µs–1 ms service time.
fn fast_timeout_cx4() -> DeviceProfile {
    DeviceProfile {
        min_cack: 5,
        timeout_stretch_pm: 1000,
        ..DeviceProfile::connectx4(LinkSpec::fdr())
    }
}

fn two_hosts(
    profile: DeviceProfile,
    client_mode: MrMode,
    server_mode: MrMode,
) -> (Sim, Cluster, [HostId; 2], [MrDesc; 2]) {
    let eng = Engine::new();
    let mut cl = Cluster::new(11);
    cl.telemetry_enable();
    let a = cl.add_host("client", profile.clone());
    let b = cl.add_host("server", profile);
    let local = cl.alloc_mr(a, 8192, client_mode);
    let remote = cl.alloc_mr(b, 8192, server_mode);
    (eng, cl, [a, b], [local, remote])
}

fn armed(eng: &Sim, family: TimerFamily, host: HostId, qpn: Qpn, psn: u32) -> bool {
    eng.key_armed(family.key(host, qpn, psn))
}

fn fired(cl: &Cluster, name: &'static str, host: HostId, qpn: Qpn) -> u64 {
    let labels = Labels::host_qp(host.0 as u64, qpn.0);
    cl.telemetry().registry().counter(name, labels).unwrap_or(0)
}

/// Retry exhaustion with a stall tick still pending: `error_out` leaves
/// no key of the QP armed, while the rest of the world (the driver's
/// fault service) is still in the queue.
#[test]
fn retry_exhaustion_leaves_no_key_of_the_qp_armed() {
    let (mut eng, mut cl, [a, b], [local, remote]) =
        two_hosts(fast_timeout_cx4(), MrMode::Odp, MrMode::Pinned);
    let cfg = QpConfig {
        cack: 5,
        retry_count: 0,
        ..QpConfig::default()
    };
    let (qa, _) = cl.connect_pair(&mut eng, a, b, cfg);
    cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(1));
    // The response found its landing page unmapped: discarded, stalled,
    // with the blind tick due at 0.5 ms and the ACK timeout at ≈131 µs.
    eng.run_until(&mut cl, SimTime::from_us(50));
    assert!(armed(&eng, TimerFamily::Ack, a, qa, 0));
    assert!(armed(&eng, TimerFamily::Stall, a, qa, 0));

    eng.run_until(&mut cl, SimTime::from_us(200));
    assert_eq!(cl.nic(a).qp(qa).map(|q| q.state()), Some(QpState::Error));
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::RetryExcErr);
    for family in [TimerFamily::Ack, TimerFamily::Rnr, TimerFamily::Stall] {
        assert!(!armed(&eng, family, a, qa, 0), "{family:?} still armed");
    }
    assert!(eng.queue_stats().live > 0, "the fault is still in service");

    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(fired(&cl, "timer.ack_fired", a, qa), 1);
    assert_eq!(fired(&cl, "timer.stall_tick_fired", a, qa), 0);
    assert_eq!(cl.qp_stats_sum(a).timeouts, 1);
}

/// Fig. 8's rescue: a sequence-error NAK ends an RNR wait early. The
/// wait's timer leaves the queue with it instead of firing ≈2.5 ms later
/// into a QP that no longer waits.
#[test]
fn a_sequence_nak_ending_an_rnr_wait_leaves_no_rnr_key() {
    let (mut eng, mut cl, [a, b], [local, remote]) =
        two_hosts(DeviceProfile::connectx6(), MrMode::Pinned, MrMode::Odp);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // READ 1 faults at the responder: RNR NAK, the client waits.
    cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(1));
    eng.run_until(&mut cl, SimTime::from_ms(2));
    assert!(armed(&eng, TimerFamily::Rnr, a, qa, 0));
    assert!(!armed(&eng, TimerFamily::Ack, a, qa, 0), "RNR replaces ACK");
    // The page has resolved and pendency lifted; READ 2 goes out inside
    // the wait with PSN 1 while the responder still expects PSN 0.
    cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(2));
    eng.run_until(&mut cl, SimTime::from_us(2_100));
    assert_eq!(cl.qp_stats_sum(b).seq_naks_sent, 1);
    assert!(!armed(&eng, TimerFamily::Rnr, a, qa, 0));

    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let done = cl.poll_cq(a);
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|c| c.status.is_success()));
    assert_eq!(fired(&cl, "timer.rnr_fired", a, qa), 0);
    assert_eq!(eng.queue_stats().live, 0);
}

/// A stalled READ that completes retires with its tick: the re-armed
/// blind tick is cancelled in the turn that delivers the completion.
#[test]
fn a_stalled_message_that_retires_leaves_no_stall_key() {
    let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
    let (mut eng, mut cl, [a, b], [local, remote]) = two_hosts(cx4, MrMode::Odp, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // PSN 0 is a pinned-page warm-up so the stalled message's key is not
    // the all-zero one.
    cl.prefetch_mr(a, local.key);
    cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(0));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    cl.invalidate_page(a, local.key, 1);
    let stalled = 1;
    cl.post(
        &mut eng,
        a,
        qa,
        ReadWr::new(local.at(4096), remote).len(64).id(1),
    );
    eng.run_until(&mut cl, SimTime::from_us(100));
    assert!(armed(&eng, TimerFamily::Stall, a, qa, stalled));
    let before = eng.queue_stats().cancelled;
    while cl.cq_len(a) < 2 {
        assert!(eng.step(&mut cl), "ran dry before the READ completed");
    }
    assert!(!armed(&eng, TimerFamily::Stall, a, qa, stalled));
    assert!(!armed(&eng, TimerFamily::Ack, a, qa, 0));
    assert!(eng.queue_stats().cancelled > before);
    let ticks = fired(&cl, "timer.stall_tick_fired", a, qa);
    assert!(ticks >= 1);
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(fired(&cl, "timer.stall_tick_fired", a, qa), ticks);
}

/// Re-arming is replacement: eight posts arm the ACK timer eight times,
/// the slot holds one event throughout, and it fires once.
#[test]
fn an_ack_timer_armed_many_times_fires_once() {
    let (mut eng, mut cl, [a, _], [local, remote]) =
        two_hosts(fast_timeout_cx4(), MrMode::Pinned, MrMode::Pinned);
    let cfg = QpConfig {
        cack: 5,
        retry_count: 0,
        ..QpConfig::default()
    };
    let qa = cl.create_qp(a, cfg);
    // No such LID: the requests vanish and only the timeout is left.
    cl.connect_to_lid(a, qa, Lid(999), Qpn(77));
    for id in 0..8u64 {
        cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(id));
    }
    let s = eng.queue_stats();
    assert_eq!((s.keyed_live, s.replaced), (1, 7), "{s}");
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(fired(&cl, "timer.ack_fired", a, qa), 1);
    assert_eq!(cl.qp_stats_sum(a).timeouts, 1);
    assert_eq!(cl.poll_cq(a).len(), 8);
}
