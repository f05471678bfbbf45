//! Seeded property test of the telemetry stage-sum conservation law.
//!
//! Every closed fault-lifecycle span must decompose exactly: the sum of
//! its stage durations equals its end-to-end latency. The law should
//! hold not just on the curated corpus but under *any* fault/loss
//! schedule, so this test sweeps seeded random scenarios — forcing ODP
//! on so spans actually open, and layering random loss phases on top —
//! and requires zero stage-sum violations from every run.

use ibsim_scenario::{random_scenario, run_scenario, LossPhase, LossSpec, Prefetch};

#[test]
fn stage_sums_are_conserved_under_random_loss_schedules() {
    let mut total_spans = 0usize;
    for seed in 0..24u64 {
        let mut sc = random_scenario(seed);
        // Force fault-producing shapes: client ODP guarantees first-access
        // faults, and a deterministic uniform-loss phase (when the
        // generator produced none) stresses recovery interleavings.
        sc.client_odp = true;
        sc.prefetch = Prefetch::Off;
        if sc.loss.is_empty() {
            let post_end = sc.wrs.len() as u64 * sc.post_interval_ns;
            sc.loss = vec![
                LossPhase {
                    at_ns: 0,
                    model: LossSpec::Uniform {
                        prob_milli: 20,
                        seed: seed ^ 0xDEAD,
                    },
                },
                LossPhase {
                    at_ns: post_end + 300_000,
                    model: LossSpec::None,
                },
            ];
        }
        sc.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let run = run_scenario(&sc);
        assert!(!run.stalled, "seed {seed} stalled");
        assert_eq!(
            run.telemetry.stage_sum_violations(),
            0,
            "seed {seed}: {} closed span(s) violate stage-sum conservation",
            run.telemetry.stage_sum_violations()
        );
        total_spans += run.telemetry.spans().len();
    }
    // The law must not hold vacuously: the sweep has to produce spans.
    assert!(
        total_spans > 0,
        "no fault spans across the sweep — the property was never exercised"
    );
}
