//! Regression tests for the §VI-C timer-management-load model: the ACK
//! timeout's load factor must be observed at *fire* time, not only at arm
//! time. A timer armed in a quiet moment and overtaken by a recovery
//! storm used to fire with its stale (too short) delay; now the fire
//! handler re-samples the load and defers to the lengthened deadline.

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::{Lid, LinkSpec};
use ibsim_verbs::{Cluster, DeviceProfile, MrMode, QpConfig, Qpn, ReadWr, Sim};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

/// A device with a low timeout floor (so the test runs in microseconds,
/// not the CX-4's 500 ms) and an exaggerated per-QP load coefficient (so
/// one storm visibly stretches `T_o`).
fn test_device() -> DeviceProfile {
    DeviceProfile {
        min_cack: 5,              // T_tr = 4.096 µs · 2^5 ≈ 131 µs
        timeout_stretch_pm: 1000, // keep the arithmetic legible: T_o = T_tr
        timer_load_coeff_pm: 1000,
        ..DeviceProfile::connectx4(LinkSpec::fdr())
    }
}

/// Arms a wrong-LID QP (its READ is dropped, so only the ACK timeout can
/// save it), then raises a responder-side ODP recovery storm on `n_storm`
/// sibling QPs before the stale deadline arrives.
fn storm_scenario(n_storm: usize) -> (Sim, Cluster, ibsim_verbs::HostId) {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(42);
    let a = cl.add_host("client", test_device());
    let b = cl.add_host("server", test_device());
    let remote_pinned = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let remote_odp = cl.alloc_mr(b, 1 << 16, MrMode::Odp);
    let local = cl.alloc_mr(a, 1 << 16, MrMode::Pinned);

    // The victim: armed at t = 0 under zero load, pointed at a LID that
    // does not exist so the request vanishes and nothing but the ACK
    // timeout makes progress.
    let victim = cl.create_qp(
        a,
        QpConfig {
            cack: 5,
            retry_count: 1,
            ..QpConfig::default()
        },
    );
    cl.connect_to_lid(a, victim, Lid(999), Qpn(77));
    cl.post(
        &mut eng,
        a,
        victim,
        ReadWr::new(local.key, remote_pinned.key).len(64).id(0u64),
    );

    // The storm: READs against cold ODP pages trigger responder-side
    // fault pendency → RNR NAK → every storm QP sits in an RNR wait
    // (≈ 4.5 ms for the 1.28 ms advertised delay), far past the victim's
    // stale ≈131 µs deadline.
    let storm: Vec<_> = (0..n_storm)
        .map(|_| cl.connect_pair(&mut eng, a, b, QpConfig::default()).0)
        .collect();
    for (i, &q) in storm.iter().enumerate() {
        let off = 4096 + (i as u64) * 64;
        let read = ReadWr::new(local.at(off), remote_odp.at(off))
            .len(32)
            .id(1000 + i as u64);
        cl.post_at(&mut eng, SimTime::from_us(20), a, q, read);
    }
    (eng, cl, a)
}

#[test]
fn ack_timeout_observes_load_at_fire_time() {
    let n_storm = 24;
    let (mut eng, mut cl, a) = storm_scenario(n_storm);

    // Base T_o is ≈131 µs. With the storm in recovery the effective
    // deadline stretches to ≥ T_o · (1 + coeff · (count − 1)); run well
    // past the stale deadline and assert the timeout has NOT fired.
    eng.run_until(&mut cl, SimTime::from_us(500));
    assert_eq!(
        cl.qp_stats_sum(a).timeouts,
        0,
        "timer armed before the storm must not fire with its stale delay"
    );

    // Let the run finish: the deferred timeout eventually fires (the
    // wrong-LID READ can only resolve through it).
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert!(
        cl.qp_stats_sum(a).timeouts >= 1,
        "the deferred ACK timeout still fires once the load drains"
    );
}

#[test]
fn quiet_qp_timeout_is_unaffected_by_fix() {
    // No storm: the fire-time re-check observes load 0 and the timeout
    // fires at its armed delay, exactly as before the fix.
    let (mut eng, mut cl, a) = storm_scenario(0);
    eng.run_until(&mut cl, SimTime::from_us(500));
    assert!(
        cl.qp_stats_sum(a).timeouts >= 1,
        "with zero load the ≈131 µs timeout fires before 500 µs"
    );
}
