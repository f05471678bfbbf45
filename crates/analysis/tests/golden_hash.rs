//! Golden-trace byte-identity pins: the damming and flood probe captures
//! must not change when engine internals change. The expected hashes were
//! captured from the pre-indexed-heap engine; any drift means event
//! ordering (and therefore simulated behaviour) changed.

use ibsim_event::{assert_golden, fnv1a_str, SimTime};
use ibsim_scenario::{
    paper_corpus, run_scenario_with, FaultEvent, RunOptions, Scenario, Side, TelemetryMode,
};

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

/// The same law over the whole paper corpus and a multi-page ODP Fig. 3
/// loop (four whole pages and a tail) whose server loses two pages
/// mid-run, the drain deadline included: a run that syncs its hub stops
/// where an oracle run stops, with the same trace, completions, clock
/// and stall verdict. A bare run, which captures nothing, also
/// simulates the same: completions, clock, QP counters, packet count
/// and both memory images; its `trace_hash` is the documented 0.
#[test]
fn telemetry_does_not_perturb_the_paper_corpus() {
    let mut odp = Scenario::fig3_loop(8, 2, 2500, SimTime::ZERO);
    odp.faults = vec![FaultEvent {
        at_ns: 20_000,
        side: Side::Server,
        page: 1,
        count: 2,
    }];
    odp.validate().expect("a valid multi-page cell");
    let faulted = run_scenario_with(&odp, RunOptions::BARE).server_stats;
    assert!(faulted.faults_raised > 1, "{faulted:?}");
    for sc in paper_corpus().into_iter().chain([odp]) {
        let oracle = run_scenario_with(&sc, RunOptions::ORACLE);
        let full = run_scenario_with(&sc, RunOptions::FULL);
        let bare = run_scenario_with(&sc, RunOptions::BARE);
        let name = &sc.name;
        assert_eq!(oracle.trace_hash, full.trace_hash, "{name}");
        assert_eq!(oracle.stalled, full.stalled, "{name}");
        assert_eq!(oracle.client_comps, full.client_comps, "{name}");
        assert_eq!(oracle.server_comps, full.server_comps, "{name}");
        assert_eq!(oracle.end_ns, full.end_ns, "{name}");
        assert_eq!(oracle.telemetry.spans(), full.telemetry.spans(), "{name}");

        assert_eq!(bare.trace_hash, 0, "{name}");
        assert_eq!(oracle.client_comps, bare.client_comps, "{name}");
        assert_eq!(oracle.server_comps, bare.server_comps, "{name}");
        assert_eq!(oracle.stalled, bare.stalled, "{name}");
        assert_eq!(oracle.end_ns, bare.end_ns, "{name}");
        assert_eq!(oracle.client_stats, bare.client_stats, "{name}");
        assert_eq!(oracle.server_stats, bare.server_stats, "{name}");
        assert_eq!(oracle.total_packets, bare.total_packets, "{name}");
        assert_eq!(oracle.client_mem, bare.client_mem, "{name}");
        assert_eq!(oracle.server_mem, bare.server_mem, "{name}");
    }
}
