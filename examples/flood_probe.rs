//! Reproduce packet flood (§VI): many QPs issue READs that fault on the
//! same client-side page; per-QP page-status updates lag, duplicate
//! responses get discarded, and packets multiply. The trace linter spots
//! the storms, and the fresh-QP re-issue workaround (§IX-A) sidesteps them.
//!
//! ```text
//! cargo run --release --example flood_probe
//! ```

use ibsim::analysis::{lint_capture, summarize, LintConfig, RuleId};
use ibsim::event::SimTime;
use ibsim::odp::workaround::reissue_read;
use ibsim::scenario::{run_scenario_with, RunOptions, Scenario};
use ibsim::telemetry::render_summary;
use ibsim::verbs::{ClusterBuilder, DeviceProfile, MrBuilder, QpConfig, ReadWr, WrId};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn main() {
    // 1. The Fig. 11a setup: 128 QPs, one 32-byte READ each, all landing
    //    on the same local ODP page, with telemetry recording the fault
    //    lifecycle (raise → queue wait → resolve → per-QP propagation).
    let sc = Scenario::flood_probe(128);
    let run = run_scenario_with(&sc, RunOptions::FULL);
    println!(
        "128 QPs x one 32 B READ: execution time {}, {} responses discarded",
        run.execution_time(),
        run.client_stats.responses_discarded
    );
    println!("traffic: {}", summarize(&run.captures[0]));

    // 2. The trace linter sees the storms as signature findings — one
    //    request resent over and over at the blind 0.5 ms cadence while
    //    its responses are discarded — and the per-packet RC rules hold.
    let report = lint_capture(&run.captures[0], &LintConfig::default());
    println!(
        "linter: {} flood signature(s), {} conformance violation(s)",
        report.count(RuleId::FloodSignature),
        report.violations() - report.count(RuleId::FloodSignature)
    );
    if let Some(first) = report.by_rule(RuleId::FloodSignature).next() {
        println!("first storm: {first}");
    }
    assert!(report.count(RuleId::FloodSignature) >= 1);
    assert_eq!(report.count(RuleId::DammingSignature), 0);

    // 3. Telemetry: the span report must show the single shared fault
    //    with its 127 stale-QP propagations. An empty span store means
    //    the observability layer silently lost the lifecycle — fail
    //    loudly so CI catches it.
    println!("\nsim-time telemetry:\n{}", render_summary(&run.telemetry));
    let spans = run.telemetry.spans();
    if spans.is_empty() {
        eprintln!("error: flood run recorded zero fault spans");
        std::process::exit(1);
    }

    // 4. Workaround: re-issue the stuck READ on a fresh QP whose page
    //    status is clean.
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(5)
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
    let remote = cl.mr(b, MrBuilder::pinned(4096));
    let local = cl.mr(a, MrBuilder::odp(4096));
    let qp_cfg = QpConfig {
        cack: 18,
        ..QpConfig::default()
    };
    let qps: Vec<_> = (0..96)
        .map(|_| cl.connect_pair(&mut eng, a, b, qp_cfg.clone()).0)
        .collect();
    let spare = cl.connect_pair(&mut eng, a, b, qp_cfg).0;
    for (i, q) in qps.iter().enumerate() {
        cl.post(
            &mut eng,
            a,
            *q,
            ReadWr::new((local.key, (i * 32) as u64), remote.key)
                .len(32)
                .id(i as u64),
        );
    }
    reissue_read(
        &mut eng,
        a,
        qps[0],
        WrId(0),
        spare,
        WrId(999),
        local.key,
        0,
        remote.key,
        0,
        32,
        SimTime::from_ms(2),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    let original = cq.iter().find(|c| c.wr_id == WrId(0)).expect("original").at;
    let reissued = cq
        .iter()
        .find(|c| c.wr_id == WrId(999))
        .expect("reissue")
        .at;
    println!("flooded original READ completed at {original}; fresh-QP re-issue at {reissued}");
    assert!(reissued < original);
}
