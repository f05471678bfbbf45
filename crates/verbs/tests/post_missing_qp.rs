//! A post to a QP the host does not have is ignored, with telemetry on
//! as with it off: it records nothing and grows no table. (Its
//! own binary: the hub once grew its per-QP clock table to the QPN, and
//! for `u32::MAX` that allocation aborts the process, not the test.)

use ibsim_event::SimTime;
use ibsim_verbs::{ClusterBuilder, Completion, DeviceProfile, MrMode, QpConfig, Qpn, ReadWr};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

/// One READ between two hosts; with `hostile`, posts to QPs the client
/// lacks around it, direct and deferred. Returns the completions and,
/// with telemetry on, every registry row in export order but the
/// `event.*` gauges (a deferred post is an event whether or not its QP
/// exists).
fn run(telemetry: bool, hostile: bool) -> (Vec<Completion>, Vec<String>) {
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(5)
        .telemetry(telemetry)
        .host("client", DeviceProfile::connectx6())
        .host("server", DeviceProfile::connectx6())
        .build();
    let (a, b) = (hosts[0], hosts[1]);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    let missing = [Qpn(qa.0 + 1), Qpn(1 << 20), Qpn(1 << 24), Qpn(u32::MAX)];
    if hostile {
        for (i, &qpn) in missing.iter().enumerate() {
            cl.post(
                &mut eng,
                a,
                qpn,
                ReadWr::new(local, remote).len(64).id(i as u64),
            );
        }
    }
    cl.post(&mut eng, a, qa, ReadWr::new(local, remote).len(64).id(9));
    if hostile {
        let later = eng.now() + SimTime::from_us(1);
        for &qpn in &missing {
            cl.post_at(&mut eng, later, a, qpn, ReadWr::new(local, remote).len(64));
        }
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    cl.sync_telemetry_at(&eng, eng.now());
    let rows = cl
        .telemetry()
        .registry()
        .iter()
        .filter(|(name, _, _)| !name.starts_with("event."))
        .map(|(name, labels, inst)| format!("{name} {labels:?} {inst:?}"))
        .collect();
    (cl.poll_cq(a), rows)
}

#[test]
fn a_post_to_a_missing_qp_is_ignored_with_telemetry_on_and_off() {
    let (clean_off, none) = run(false, false);
    assert_eq!(clean_off.len(), 1);
    assert!(clean_off[0].status.is_success());
    assert!(none.is_empty());
    let (clean_on, clean_rows) = run(true, false);
    assert!(!clean_rows.is_empty());
    for telemetry in [false, true] {
        let (done, rows) = run(telemetry, true);
        assert_eq!(done, clean_off, "telemetry {telemetry}");
        let want = if telemetry { &clean_rows } else { &none };
        assert_eq!(&rows, want, "telemetry {telemetry}");
    }
    assert_eq!(clean_on, clean_off);
}
