//! Runtime invariant checks: the QP state-machine legality counter and
//! the engine monotonicity counter, live in every build.

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::{Lid, LinkSpec};
use ibsim_verbs::{Cluster, DeviceProfile, MrMode, Qp, QpConfig, QpState, Qpn, ReadWr};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

#[test]
fn healthy_run_counts_no_violations() {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(3);
    let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
    let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 1 << 16, MrMode::Pinned);
    let local = cl.alloc_mr(a, 1 << 16, MrMode::Pinned);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    for i in 0..4u64 {
        cl.post(
            &mut eng,
            a,
            qp,
            ReadWr::new(local.key, remote.key).len(1024).id(i),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 4);
    assert_eq!(cl.qp_stats_sum(a).invariant_violations, 0);
    assert_eq!(cl.qp_stats_sum(b).invariant_violations, 0);
    assert_eq!(eng.monotonicity_violations(), 0);
}

#[test]
fn reconnecting_a_live_qp_is_one_illegal_transition() {
    // connect() walks Init -> Rtr -> Rts. Calling it again on an Rts QP
    // makes exactly one illegal hop (Rts -> Init); the rest of the walk
    // is legal again.
    let mut qp = Qp::new(Qpn(10), Lid(1), QpConfig::default());
    assert_eq!(qp.state(), QpState::Reset);
    qp.connect(Lid(2), Qpn(20));
    assert_eq!(qp.state(), QpState::Rts);
    assert_eq!(qp.stats().invariant_violations, 0);

    qp.connect(Lid(2), Qpn(20));
    assert_eq!(qp.state(), QpState::Rts);
    assert_eq!(qp.stats().invariant_violations, 1);
}

#[test]
fn reconnecting_a_live_qp_is_counted_in_a_default_build() {
    // connect_pair walked both QPs to Rts; pointing one at a LID again
    // makes exactly one illegal hop (Rts -> Init), counted on its host.
    let mut eng = Engine::new();
    let mut cl = Cluster::new(1);
    let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
    let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
    let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.connect_to_lid(a, qa, cl.lid(b), qb);
    assert_eq!(cl.qp_stats_sum(a).invariant_violations, 1);
    assert_eq!(cl.qp_stats_sum(b).invariant_violations, 0);
    assert_eq!(eng.monotonicity_violations(), 0);
}

#[test]
fn transition_legality_table() {
    use QpState::*;
    // The spine of the RC lifecycle.
    for (from, to) in [(Reset, Init), (Init, Rtr), (Rtr, Rts), (Error, Reset)] {
        assert!(QpState::transition_allowed(from, to), "{from}->{to}");
    }
    // Any state may collapse to Error.
    for from in [Reset, Init, Rtr, Rts, Error] {
        assert!(QpState::transition_allowed(from, Error), "{from}->Error");
    }
    // Skipping a lifecycle stage or moving backwards is illegal.
    for (from, to) in [
        (Reset, Rts),
        (Reset, Rtr),
        (Rts, Init),
        (Rts, Rtr),
        (Error, Rts),
    ] {
        assert!(!QpState::transition_allowed(from, to), "{from}->{to}");
    }
}
