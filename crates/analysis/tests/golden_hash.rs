//! Golden-trace byte-identity pins: the damming and flood probe captures
//! must not change when engine internals change. The expected hashes were
//! captured from the pre-indexed-heap engine; any drift means event
//! ordering (and therefore simulated behaviour) changed.

use ibsim_event::{assert_golden, fnv1a_str};
use ibsim_scenario::{run_scenario_with, RunOptions, Scenario, TelemetryMode};

/// Asserts `sc`'s client timeline, captured with the hub in `telemetry`,
/// against the `GOLDENS` entry `pin`: its FNV-1a and length.
fn assert_timeline_pinned(sc: &Scenario, telemetry: TelemetryMode, pin: &str) {
    let opts = RunOptions {
        capture: true,
        telemetry,
    };
    let run = run_scenario_with(sc, opts);
    let tl = run.captures[0].timeline();
    assert_golden(pin, [fnv1a_str(&tl), tl.len() as u64]);
    let spans = run.telemetry.spans().len();
    assert!(
        telemetry == TelemetryMode::Off || spans > 0,
        "the same run must still record fault spans"
    );
}

#[test]
fn damming_probe_trace_hash_pinned() {
    let sc = Scenario::damming_probe();
    assert_timeline_pinned(&sc, TelemetryMode::Off, "damming.timeline");
}

#[test]
fn flood_probe_trace_hash_pinned() {
    let sc = Scenario::flood_probe(128);
    assert_timeline_pinned(&sc, TelemetryMode::Off, "flood.timeline");
}

// ---------------------------------------------------------------------
// Telemetry zero-perturbation: recording never schedules events, draws
// RNG, or alters control flow, so turning it on must reproduce the
// pinned traces byte for byte.
// ---------------------------------------------------------------------

#[test]
fn telemetry_does_not_perturb_damming_trace() {
    for mode in [TelemetryMode::Spans, TelemetryMode::Synced] {
        assert_timeline_pinned(&Scenario::damming_probe(), mode, "damming.timeline");
    }
}

#[test]
fn telemetry_does_not_perturb_flood_trace() {
    for mode in [TelemetryMode::Spans, TelemetryMode::Synced] {
        assert_timeline_pinned(&Scenario::flood_probe(128), mode, "flood.timeline");
    }
}
