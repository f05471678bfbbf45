//! Recovery-backend ablation: the §V damming and §VI flood
//! micro-benchmarks re-run under each loss-recovery backend.
//!
//! Go-back-N is the hardware the paper measured, so its runs double as
//! golden gates: the client packet timelines must hash to the FNV values
//! `GOLDENS` pins, proving no refactor of the recovery path has moved the
//! modeled ConnectX-4 behavior by a bit. Selective repeat (IRN) and
//! on-demand pinning (NP-RDMA) are the counterfactuals: the run asserts
//! the structural claims (IRN retransmits strictly less under the
//! flood; pinning never opens the fault window) and prints the ablation
//! table README quotes.
//!
//! ```text
//! cargo run --release -p ibsim-bench --bin recovery
//! ```

use ibsim_bench::{header, row, secs};
use ibsim_event::{assert_golden, Fnv1a, SimTime};
use ibsim_odp::{experiment::fig3, OdpMode};
use ibsim_scenario::{run_scenario, Scenario, ScenarioRun};
use ibsim_verbs::RecoveryKind;

/// Every backend, in ablation order (the paper's hardware first).
const KINDS: [RecoveryKind; 3] = [
    RecoveryKind::GoBackN,
    RecoveryKind::SelectiveRepeat,
    RecoveryKind::OnDemandPin,
];

/// `sc` under one backend.
fn under(mut sc: Scenario, kind: RecoveryKind) -> ScenarioRun {
    sc.recovery = kind;
    run_scenario(&sc)
}

/// The §V two-READ packet-damming micro-benchmark (server-side ODP,
/// 1 ms posting interval) under one backend.
fn damming(kind: RecoveryKind) -> ScenarioRun {
    under(
        fig3(2, 1, 100, SimTime::from_ms(1), OdpMode::ServerSide),
        kind,
    )
}

/// The §VI 128-QP packet-flood micro-benchmark (client-side ODP,
/// `C_ack = 18`) under one backend.
fn flood(kind: RecoveryKind) -> ScenarioRun {
    let mut sc = fig3(512, 128, 32, SimTime::ZERO, OdpMode::ClientSide);
    sc.cack = 18;
    under(sc, kind)
}

fn table(title: &str, runs: &[(RecoveryKind, ScenarioRun)]) {
    header(title);
    let widths = [16, 14, 10, 8, 11, 8, 8];
    println!(
        "{}",
        row(
            &[
                "backend".into(),
                "exec time".into(),
                "timeouts".into(),
                "retx".into(),
                "discarded".into(),
                "faults".into(),
                "pinned".into(),
            ],
            &widths
        )
    );
    for (kind, run) in runs {
        let (c, s) = (&run.client_stats, &run.server_stats);
        println!(
            "{}",
            row(
                &[
                    kind.to_string(),
                    secs(run.execution_time()),
                    c.timeouts.to_string(),
                    c.retransmissions.to_string(),
                    c.responses_discarded.to_string(),
                    (c.faults_raised + s.faults_raised).to_string(),
                    (c.pages_pinned + s.pages_pinned).to_string(),
                ],
                &widths
            )
        );
    }
}

fn main() {
    let damming_runs: Vec<_> = KINDS.into_iter().map(|k| (k, damming(k))).collect();
    let flood_runs: Vec<_> = KINDS.into_iter().map(|k| (k, flood(k))).collect();
    for (_, run) in damming_runs.iter().chain(&flood_runs) {
        assert_eq!(run.errors(), 0, "every op must complete");
        // The READs cover the whole buffer.
        assert!(
            run.client_mem == run.server_mem,
            "every READ must return the right bytes"
        );
    }

    table(
        "Recovery ablation 1: §V packet damming (two READs, 1 ms apart, server ODP)",
        &damming_runs,
    );
    table(
        "Recovery ablation 2: §VI packet flood (128 QPs x 512 READs, client ODP)",
        &flood_runs,
    );

    // --- Golden gates: go-back-N is bit-identical to the pre-trait model.
    let client_timeline_hash = |run: &ScenarioRun| {
        let mut h = Fnv1a::new();
        let _ = run.captures[0].write_timeline(&mut h);
        h.finish()
    };
    let gbn_damming = client_timeline_hash(&damming_runs[0].1);
    let gbn_flood = client_timeline_hash(&flood_runs[0].1);
    assert_golden("recovery.gbn-damming", [gbn_damming]);
    assert_golden("recovery.gbn-flood", [gbn_flood]);

    // --- Structural claims per backend (runs follow `KINDS` order).
    let [gbn_d, irn_d, pin_d] = [&damming_runs[0].1, &damming_runs[1].1, &damming_runs[2].1];
    let [gbn_f, irn_f, pin_f] = [&flood_runs[0].1, &flood_runs[1].1, &flood_runs[2].1];

    let pinned = |r: &ScenarioRun| r.client_stats.pages_pinned + r.server_stats.pages_pinned;
    let faults = |r: &ScenarioRun| r.client_stats.faults_raised + r.server_stats.faults_raised;

    // Only pinning pins; everything else leaves ODP demand-paged.
    for run in [gbn_d, irn_d, gbn_f, irn_f] {
        assert_eq!(pinned(run), 0, "only on-demand pinning may pin");
    }
    assert!(pinned(pin_d) > 0 && pinned(pin_f) > 0);

    // IRN removes the flood's retransmit amplification outright.
    let (irn_retx, gbn_retx) = (
        irn_f.client_stats.retransmissions,
        gbn_f.client_stats.retransmissions,
    );
    assert!(
        irn_retx < gbn_retx,
        "selective repeat must retransmit strictly less than go-back-N \
         under the flood ({irn_retx} vs {gbn_retx})"
    );

    // Pinning closes the fault window before it opens: no faults, no
    // timeouts, and the damming incident disappears entirely.
    for run in [pin_d, pin_f] {
        assert_eq!(faults(run), 0, "pinning must not fault");
        assert_eq!(run.client_stats.timeouts, 0, "pinning must not time out");
        assert_eq!(run.client_stats.responses_discarded, 0);
    }
    assert!(
        pin_d.execution_time() < gbn_d.execution_time(),
        "pinning must beat go-back-N through the damming window"
    );

    println!();
    println!("golden gbn damming hash {gbn_damming:#018x}, flood hash {gbn_flood:#018x}");
    println!("recovery ablation: all gates passed");
}
