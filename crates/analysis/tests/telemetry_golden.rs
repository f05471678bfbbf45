//! Golden-file determinism for the telemetry exporters: the JSONL export
//! and summary of a seeded probe run are pinned by hash, and every
//! recorded fault span must account for its full end-to-end latency.

use ibsim_event::{assert_golden, fnv1a_str, SimTime};
use ibsim_scenario::{run_scenario_with, RunOptions, Scenario, TelemetryMode};
use ibsim_telemetry::{export_jsonl, render_summary, Telemetry};

/// The Fig. 9 both-side-ODP cell at 50 QPs.
fn fifty_qp_cfg() -> Scenario {
    let mut sc = Scenario::fig3_loop(2048, 50, 100, SimTime::ZERO);
    sc.cack = 18;
    sc
}

/// `sc`'s synced hub; capture off, as it does not move the hub.
fn hub(sc: &Scenario) -> Telemetry {
    let opts = RunOptions {
        capture: false,
        telemetry: TelemetryMode::Synced,
    };
    run_scenario_with(sc, opts).telemetry
}

/// Asserts the FNV-1a of `sc`'s JSONL export (and its line count) and
/// of its summary table against the `GOLDENS` entries `jsonl` and
/// `summary`.
fn assert_pinned(sc: &Scenario, jsonl: &str, summary: &str) {
    let t = &hub(sc);
    let out = export_jsonl(t);
    assert_golden(jsonl, [fnv1a_str(&out), out.lines().count() as u64]);
    assert_golden(summary, [fnv1a_str(&render_summary(t))]);
}

#[test]
fn damming_exports_are_pinned() {
    assert_pinned(
        &Scenario::damming_probe(),
        "damming.jsonl",
        "damming.summary",
    );
}

#[test]
fn flood_exports_are_pinned() {
    assert_pinned(&Scenario::flood_probe(128), "flood.jsonl", "flood.summary");
}

#[test]
fn fifty_qp_both_side_exports_are_pinned() {
    assert_pinned(&fifty_qp_cfg(), "fifty-qp.jsonl", "fifty-qp.summary");
}

fn assert_spans_account_for_latency(t: &Telemetry) {
    let spans = t.spans();
    assert!(!spans.is_empty(), "run must close at least one span");
    for s in spans {
        let stages = s.stages().expect("closed span has all stages");
        let stage_sum: SimTime = stages.iter().map(|(_, d)| *d).sum();
        assert_eq!(
            stage_sum,
            s.end_to_end().expect("closed span has end-to-end"),
            "stage durations must sum to the end-to-end fault latency \
             (host {} mr {} page {})",
            s.host,
            s.mr,
            s.page
        );
    }
}

#[test]
fn damming_jsonl_is_byte_identical_across_runs() {
    let a = export_jsonl(&hub(&Scenario::damming_probe()));
    let b = export_jsonl(&hub(&Scenario::damming_probe()));
    assert!(!a.is_empty());
    assert_eq!(a, b, "seeded damming telemetry export must be reproducible");
}

#[test]
fn flood_jsonl_is_byte_identical_across_runs() {
    let a = export_jsonl(&hub(&Scenario::flood_probe(128)));
    let b = export_jsonl(&hub(&Scenario::flood_probe(128)));
    assert!(!a.is_empty());
    assert_eq!(a, b, "seeded flood telemetry export must be reproducible");
}

#[test]
fn damming_spans_stage_durations_sum_to_end_to_end() {
    assert_spans_account_for_latency(&hub(&Scenario::damming_probe()));
}

#[test]
fn flood_spans_stage_durations_sum_to_end_to_end() {
    assert_spans_account_for_latency(&hub(&Scenario::flood_probe(128)));
}

#[test]
fn flood_span_sees_the_stale_qp_propagation() {
    let t = hub(&Scenario::flood_probe(128));
    let spans = t.spans();
    // Fig. 11a: one shared fault, the other QPs all go stale and must be
    // resumed one by one — the propagation stage dominates.
    let worst = spans
        .iter()
        .max_by_key(|s| s.stale_qps)
        .expect("at least one span");
    assert!(
        worst.stale_qps > 64,
        "most of the 128 QPs go stale on the shared page: {}",
        worst.stale_qps
    );
    let stages = worst.stages().expect("closed span has all stages");
    let propagation = stages
        .iter()
        .find(|(n, _)| *n == "propagation")
        .expect("propagation stage")
        .1;
    assert!(
        propagation > SimTime::from_ms(1),
        "per-QP status updates serialize in the driver: {propagation}"
    );
}
