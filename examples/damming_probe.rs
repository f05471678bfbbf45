//! Reproduce packet damming (§V), detect it from the packet capture with
//! the trace linter, and show the dummy-communication workaround
//! (§IX-A) removing the ~500 ms stall.
//!
//! ```text
//! cargo run --release --example damming_probe
//! ```

use ibsim::analysis::{lint_capture, LintConfig, RuleId};
use ibsim::event::SimTime;
use ibsim::odp::workaround::install_dummy_reads;
use ibsim::scenario::{run_scenario_with, RunOptions, Scenario};
use ibsim::telemetry::render_summary;
use ibsim::verbs::{ClusterBuilder, DeviceProfile, MrBuilder, QpConfig, ReadWr, WcStatus, WrId};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn main() {
    // 1. Two READs, 1 ms apart, both-side ODP: the paper's §V-A setup,
    //    with sim-time telemetry recording the fault lifecycles.
    let sc = Scenario::damming_probe();
    let run = run_scenario_with(&sc, RunOptions::FULL);
    println!(
        "two READs at 1 ms interval: execution time {} (timeouts: {})",
        run.execution_time(),
        run.client_stats.timeouts
    );

    // 2. The trace linter finds the stall from the capture alone — the
    //    detection capability §IX-A says real deployments lack. Every
    //    packet is individually protocol-legal (no conformance
    //    violation), yet the damming signature flags the flow: a request
    //    silently lost, then silence until the ACK timeout.
    let report = lint_capture(&run.captures[0], &LintConfig::default());
    for f in report.by_rule(RuleId::DammingSignature) {
        println!("LINTER {f}");
    }
    assert!(
        report.count(RuleId::DammingSignature) >= 1,
        "the stall must be detected"
    );
    assert_eq!(report.count(RuleId::FloodSignature), 0);
    assert_eq!(report.count(RuleId::UnjustifiedRetransmit), 0);

    // 3. The telemetry layer tells the same story from the inside: the
    //    fault-lifecycle spans show where the time went (driver queue
    //    wait, resolution, page-status propagation, retransmit drain).
    println!("\nsim-time telemetry:\n{}", render_summary(&run.telemetry));
    assert!(
        !run.telemetry.spans().is_empty(),
        "the damming run must record at least one fault span"
    );

    // 4. Workaround: a software timer posting dummy READs gives the
    //    responder a chance to emit NAK(PSN sequence error) early.
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(7)
        .host(
            "client",
            DeviceProfile::connectx4(ibsim::fabric::LinkSpec::fdr()),
        )
        .host(
            "server",
            DeviceProfile::connectx4(ibsim::fabric::LinkSpec::fdr()),
        )
        .build();
    let (a, b) = (hosts[0], hosts[1]);
    let remote = cl.mr(b, MrBuilder::odp(8192));
    let local = cl.mr(a, MrBuilder::pinned(8192));
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qp,
        ReadWr::new(local.key, remote.key).len(100).id(0u64),
    );
    let second = ReadWr::new(local.at(200), remote.at(200)).len(100).id(1);
    cl.post_at(&mut eng, SimTime::from_ms(1), a, qp, second);
    install_dummy_reads(
        &mut eng,
        &cl,
        a,
        qp,
        1000,
        local.key,
        0,
        remote.key,
        0,
        SimTime::from_ms(2),
        8,
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let t2 = cl
        .poll_cq(a)
        .into_iter()
        .filter(|c| c.wr_id == WrId(1) && c.status == WcStatus::Success)
        .map(|c| c.at)
        .next()
        .expect("second READ completes");
    println!("with the dummy-READ timer the second READ completes at {t2}");
    assert!(t2 < SimTime::from_ms(20));
}
