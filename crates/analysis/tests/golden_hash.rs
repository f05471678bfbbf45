//! Golden-trace byte-identity pins: the damming and flood probe captures
//! must not change when engine internals change. The expected hashes were
//! captured from the pre-indexed-heap engine; any drift means event
//! ordering (and therefore simulated behaviour) changed.

use ibsim_event::{fnv1a_str as fnv1a, SimTime};
use ibsim_scenario::{run_scenario_with, RunOptions, Scenario, TelemetryMode};

fn damming() -> Scenario {
    Scenario::fig3_loop(2, 1, 100, SimTime::from_ms(1))
}

fn flood() -> Scenario {
    let mut sc = Scenario::fig3_loop(128, 128, 32, SimTime::ZERO);
    (sc.server_odp, sc.cack) = (false, 18);
    sc
}

/// The client timeline of `sc`, captured with the hub in `telemetry`.
fn client_timeline(sc: &Scenario, telemetry: TelemetryMode) -> (String, usize) {
    let opts = RunOptions {
        capture: true,
        telemetry,
    };
    let run = run_scenario_with(sc, opts);
    (run.captures[0].timeline(), run.telemetry.spans().len())
}

#[test]
fn damming_probe_trace_hash_pinned() {
    let (tl, _) = client_timeline(&damming(), TelemetryMode::Off);
    assert_eq!(tl.len(), 919, "damming timeline length drifted");
    assert_eq!(
        fnv1a(&tl),
        0xeabf_f70d_d984_76b9,
        "damming probe trace is no longer byte-identical to the pinned capture"
    );
}

#[test]
fn flood_probe_trace_hash_pinned() {
    let (tl, _) = client_timeline(&flood(), TelemetryMode::Off);
    assert_eq!(tl.len(), 135_890, "flood timeline length drifted");
    assert_eq!(
        fnv1a(&tl),
        0xa115_5303_7a19_1337,
        "flood probe trace is no longer byte-identical to the pinned capture"
    );
}

// ---------------------------------------------------------------------
// Telemetry zero-perturbation: recording never schedules events, draws
// RNG, or alters control flow, so turning it on must reproduce the
// pinned traces byte for byte.
// ---------------------------------------------------------------------

#[test]
fn telemetry_does_not_perturb_damming_trace() {
    for mode in [TelemetryMode::Spans, TelemetryMode::Synced] {
        let (tl, spans) = client_timeline(&damming(), mode);
        assert_eq!(tl.len(), 919, "telemetry perturbed the damming timeline");
        assert_eq!(
            fnv1a(&tl),
            0xeabf_f70d_d984_76b9,
            "telemetry perturbed the damming trace hash"
        );
        assert!(spans > 0, "the same run must still record fault spans");
    }
}

#[test]
fn telemetry_does_not_perturb_flood_trace() {
    for mode in [TelemetryMode::Spans, TelemetryMode::Synced] {
        let (tl, spans) = client_timeline(&flood(), mode);
        assert_eq!(tl.len(), 135_890, "telemetry perturbed the flood timeline");
        assert_eq!(
            fnv1a(&tl),
            0xa115_5303_7a19_1337,
            "telemetry perturbed the flood trace hash"
        );
        assert!(spans > 0, "the same run must still record fault spans");
    }
}
