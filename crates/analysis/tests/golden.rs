//! Golden-trace tests: the linter against real simulator captures.
//!
//! The probe worlds are `examples/damming_probe.rs`'s and
//! `examples/flood_probe.rs`'s — the same runs a user would capture — and
//! the tests pin down the acceptance contract: the damming trace trips exactly the
//! damming detector, the flood trace the flood detector, and a clean
//! pinned-memory ping-pong produces zero findings of any kind.

use ibsim_analysis::{check_conservation, lint_capture, LintConfig, RuleId};
use ibsim_event::{Engine, SimTime};
use ibsim_fabric::LinkSpec;
use ibsim_scenario::{run_scenario, Scenario};
use ibsim_verbs::{Cluster, DeviceProfile, MrMode, QpConfig, ReadWr, WriteWr};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(10);

#[test]
fn damming_probe_trace_triggers_damming_detector() {
    // examples/damming_probe.rs: two 1 MiB READs 1 ms apart on ODP memory
    // with a ConnectX-4-style damming device.
    let run = run_scenario(&Scenario::damming_probe());
    assert!(
        run.client_stats.timeouts > 0,
        "damming run recovers via ACK timeout"
    );
    let report = lint_capture(&run.captures[0], &LintConfig::default());
    assert!(
        report.count(RuleId::DammingSignature) >= 1,
        "damming signature found: {report}"
    );
    // The §V pathology is damming, not flood; the detectors must not
    // cross-fire.
    assert_eq!(report.count(RuleId::FloodSignature), 0, "{report}");
    // Every packet in the trace is individually protocol-conformant:
    // the stall is legal go-back-N behaviour, which is exactly why the
    // paper needed packet captures to see it.
    assert_eq!(report.count(RuleId::PsnContiguity), 0, "{report}");
    assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 0, "{report}");
    assert_eq!(report.count(RuleId::UnmatchedResponse), 0, "{report}");
}

#[test]
fn flood_probe_trace_triggers_flood_detector() {
    // examples/flood_probe.rs: many QPs, small READs, client-side ODP,
    // C_ack = 18 so the transport timeout never interferes.
    let sc = Scenario::flood_probe(128);
    let report = lint_capture(&run_scenario(&sc).captures[0], &LintConfig::default());
    assert!(
        report.count(RuleId::FloodSignature) >= 1,
        "flood signature found: {report}"
    );
    assert_eq!(report.count(RuleId::DammingSignature), 0, "{report}");
    let storm = report.by_rule(RuleId::FloodSignature).next().unwrap();
    assert!(
        storm.message.contains("discarded"),
        "storm message mentions the discarded responses: {}",
        storm.message
    );
}

#[test]
fn clean_ping_pong_trace_lints_clean() {
    let mut sc = Scenario::fig3_loop(16, 1, 100, SimTime::ZERO);
    (sc.client_odp, sc.server_odp) = (false, false);
    let run = run_scenario(&sc);
    assert_eq!(run.client_stats.timeouts, 0);
    let report = lint_capture(&run.captures[0], &LintConfig::default());
    assert!(
        report.is_clean(),
        "clean run must produce 0 findings: {report}"
    );
}

#[test]
fn conservation_holds_between_healthy_hosts() {
    // A two-sided run with captures on both ends: mixed ops, no loss.
    let mut eng = Engine::new();
    let mut cl = Cluster::new(11);
    let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
    let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 1 << 16, MrMode::Pinned);
    let local = cl.alloc_mr(a, 1 << 16, MrMode::Pinned);
    cl.capture_enable(a);
    cl.capture_enable(b);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    for i in 0..8u64 {
        if i % 2 == 0 {
            cl.post(
                &mut eng,
                a,
                qp,
                ReadWr::new((local.key, i * 4096), (remote.key, i * 4096))
                    .len(2048)
                    .id(i),
            );
        } else {
            cl.post(
                &mut eng,
                a,
                qp,
                WriteWr::new((local.key, i * 4096), (remote.key, i * 4096))
                    .len(2048)
                    .id(i),
            );
        }
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a).len(), 8);
    let report = check_conservation(cl.capture(a), cl.capture(b));
    assert!(report.is_clean(), "{report}");
    // Both single-ended lints are clean too.
    assert!(lint_capture(cl.capture(a), &LintConfig::default()).is_clean());
    assert!(lint_capture(cl.capture(b), &LintConfig::default()).is_clean());
}

#[test]
fn damming_ghosts_do_not_violate_conservation() {
    // Ghost frames are marked dropped at the Tx capture point, so even a
    // §V trace conserves packets between observation points.
    let mut eng = Engine::new();
    let mut cl = Cluster::new(7);
    let mut profile = DeviceProfile::connectx4(LinkSpec::fdr());
    profile.damming = true;
    let a = cl.add_host("client", profile.clone());
    let b = cl.add_host("server", profile);
    let remote = cl.alloc_mr(b, 1 << 21, MrMode::Odp);
    let local = cl.alloc_mr(a, 1 << 21, MrMode::Pinned);
    cl.capture_enable(a);
    cl.capture_enable(b);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qp,
        ReadWr::new(local.key, remote.key).len(1 << 20).id(0u64),
    );
    eng.run_until(&mut cl, SimTime::from_ms(1));
    cl.post(
        &mut eng,
        a,
        qp,
        ReadWr::new(local.key, remote.key).len(1 << 20).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let report = check_conservation(cl.capture(a), cl.capture(b));
    assert!(report.is_clean(), "{report}");
}
