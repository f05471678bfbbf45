//! Cross-crate integration tests: the facade crate driving every layer of
//! the stack together — transport, ODP engine, UCP, DSM, shuffle and the
//! pitfall analyzers.

use ibsim::analysis::{lint_capture, LintConfig, RuleId};
use ibsim::dsm::{Dsm, DsmConfig};
use ibsim::event::{assert_golden, fnv1a_str, Engine, SimTime};
use ibsim::fabric::LinkSpec;
use ibsim::odp::SystemProfile;
use ibsim::scenario::{run_scenario, run_scenario_plan, RunOptions, Scenario, ScenarioRun};
use ibsim::shuffle::{run_shuffle, ShuffleConfig};
use ibsim::ucp::{MemSlice, Tag, Ucp, UcpConfig};
use ibsim::verbs::{
    export_jsonl, Cluster, DeviceProfile, Labels, MrMode, QpConfig, ReadWr, ShardPlan, Telemetry,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(20);

#[test]
fn facade_reexports_are_usable() {
    // A minimal end-to-end run through the facade paths only.
    let mut eng = Engine::new();
    let mut cl = Cluster::new(1);
    let a = cl.add_host("a", DeviceProfile::connectx6());
    let b = cl.add_host("b", DeviceProfile::connectx6());
    let src = cl.alloc_mr(b, 4096, MrMode::Pinned);
    let dst = cl.alloc_mr(a, 4096, MrMode::Pinned);
    cl.mem_write(b, src.base, b"facade");
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(&mut eng, a, qp, ReadWr::new(dst.key, src.key).len(6).id(1));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.mem_read(a, dst.base, 6), b"facade");
}

#[test]
fn paper_headline_damming_and_detection() {
    // §V-A headline + §IX-A detection, through the facade.
    let run = run_scenario(&Scenario::damming_probe());
    assert!(run.execution_time() >= SimTime::from_ms(400));
    let report = lint_capture(&run.captures[0], &LintConfig::default());
    assert_eq!(report.count(RuleId::DammingSignature), 1, "{report}");
    assert_eq!(report.count(RuleId::FloodSignature), 0, "{report}");
}

#[test]
fn paper_headline_flood_and_detection() {
    let run = run_scenario(&Scenario::flood_probe(96));
    let report = lint_capture(&run.captures[0], &LintConfig::default());
    assert!(report.count(RuleId::FloodSignature) >= 1, "{report}");
    assert_eq!(report.count(RuleId::DammingSignature), 0, "{report}");
    assert_eq!(run.errors(), 0);
    assert!(run.client_mem == run.server_mem, "every READ read back");
}

// ---------------------------------------------------------------------
// Cross-shard conformance battery: the sharded conservative-lookahead
// engine must reproduce the sequential goldens bit for bit at every
// shard count (1, 2, 4, 8) — same pinned capture hash, same telemetry
// event counts, same merged metrics export.
// ---------------------------------------------------------------------

/// `sc` under `ShardPlan::pair(shards)`, capture on and the hub synced.
fn run_at(sc: &Scenario, shards: usize) -> ScenarioRun {
    run_scenario_plan(sc, ShardPlan::pair(shards), RunOptions::FULL)
}

/// Sum of one counter family across all label sets.
fn counter_sum(t: &Telemetry, name: &str) -> u64 {
    t.registry()
        .iter()
        .filter(|&(n, _, _)| n == name)
        .filter_map(|(_, _, i)| match i {
            ibsim::telemetry::Instrument::Counter(v) => Some(*v),
            ibsim::telemetry::Instrument::Gauge(_) | ibsim::telemetry::Instrument::Histogram(_) => {
                None
            }
        })
        .sum()
}

/// One engine gauge of a synced hub.
fn engine_gauge(t: &Telemetry, name: &'static str) -> Option<u64> {
    t.registry().gauge(name, Labels::NONE)
}

/// The shard-count-invariant view of a run: its export with
/// `event.peak_depth` left out, which a one-owner run knows and per-shard
/// peaks cannot give. The export carries every engine queue counter.
fn plan_invariant_export(run: &mut ScenarioRun) -> String {
    run.telemetry
        .remove_metric("event.peak_depth", Labels::NONE);
    export_jsonl(&run.telemetry)
}

fn assert_runs_match(seq: &mut ScenarioRun, sh: &mut ScenarioRun, ctx: &str) {
    let timeline = |r: &ScenarioRun| r.captures[0].timeline();
    assert_eq!(timeline(seq), timeline(sh), "{ctx}: timeline");
    assert_eq!(seq.client_comps, sh.client_comps, "{ctx}: completions");
    assert_eq!(
        seq.execution_time(),
        sh.execution_time(),
        "{ctx}: execution time"
    );
    assert_eq!(seq.total_packets, sh.total_packets, "{ctx}: packet count");
    let faults = |r: &ScenarioRun| r.client_stats.faults_raised + r.server_stats.faults_raised;
    assert_eq!(faults(seq), faults(sh), "{ctx}: fault count");
    assert_eq!(
        seq.telemetry.spans().len(),
        sh.telemetry.spans().len(),
        "{ctx}: span count"
    );
    for name in ["fault.raised", "fault.resolved", "cq.completions"] {
        assert_eq!(
            counter_sum(&seq.telemetry, name),
            counter_sum(&sh.telemetry, name),
            "{ctx}: {name}"
        );
    }
    assert_eq!(
        plan_invariant_export(seq),
        plan_invariant_export(sh),
        "{ctx}: telemetry export"
    );
}

/// The battery over one probe: `seq` must carry the client timeline
/// `GOLDENS` pins as `golden_name`, and every shard count must reproduce
/// `seq`.
fn assert_every_shard_count_matches(sc: &Scenario, golden_name: &str) {
    let mut seq = run_at(sc, 1);
    let timeline = seq.captures[0].timeline();
    assert_golden(golden_name, [fnv1a_str(&timeline), timeline.len() as u64]);
    for shards in [1, 2, 4, 8] {
        let mut sh = run_at(sc, shards);
        let ctx = format!("{}, {shards} shards", sc.name);
        assert_runs_match(&mut seq, &mut sh, &ctx);
    }
}

#[test]
fn sharded_damming_reproduces_pinned_golden_at_every_shard_count() {
    assert_every_shard_count_matches(&Scenario::damming_probe(), "damming.timeline");
}

#[test]
fn sharded_flood_reproduces_pinned_golden_at_every_shard_count() {
    assert_every_shard_count_matches(&Scenario::flood_probe(128), "flood.timeline");
}

/// A protocol timer's only stale-fire guard is its keyed slot, so a
/// drained run owes the engine nothing, and every ACK timer that fired
/// found its QP armed with work outstanding: fires == counted timeouts.
#[test]
fn drained_probes_leave_no_timer_behind_and_every_ack_fire_is_a_timeout() {
    let flood = run_at(&Scenario::flood_probe(128), 1);
    let damming = run_at(&Scenario::damming_probe(), 1);
    for (run, name) in [(&flood, "flood"), (&damming, "damming")] {
        assert_eq!(
            engine_gauge(&run.telemetry, "event.live"),
            Some(0),
            "{name}"
        );
        assert_eq!(
            engine_gauge(&run.telemetry, "event.keyed_live"),
            Some(0),
            "{name}"
        );
        let fired = counter_sum(&run.telemetry, "timer.ack_fired");
        assert_eq!(fired, run.client_stats.timeouts, "{name}");
    }
    // Both families ran: the damming stall ends in a Local ACK Timeout,
    // and each of the flood's 128 QPs ticked at least once.
    assert!(damming.client_stats.timeouts >= 1);
    assert!(counter_sum(&flood.telemetry, "timer.stall_tick_fired") >= 128);
}

#[test]
fn sharded_stage_sum_law_holds_with_cross_shard_fault_lifecycles() {
    // Both-side ODP across 2 shards: faults are raised and resolved on
    // each host's own shard, but the retransmit drain closing every span
    // is driven by packets from the peer's shard. The stage-sum
    // conservation law must survive the epoch-merged telemetry.
    let sh = run_at(&Scenario::damming_probe(), 2);
    let spans = sh.telemetry.spans();
    assert!(!spans.is_empty(), "damming probe must record fault spans");
    assert!(
        spans.iter().any(|s| s.host == 0) && spans.iter().any(|s| s.host == 1),
        "both shards must contribute spans"
    );
    assert_eq!(sh.telemetry.stage_sum_violations(), 0);
    let seq = run_at(&Scenario::damming_probe(), 1);
    assert_eq!(seq.telemetry.stage_sum_violations(), 0);
    assert_eq!(seq.telemetry.spans().len(), spans.len());
}

#[test]
#[should_panic(expected = "lookahead violation")]
fn oversized_lookahead_override_is_rejected() {
    // A lookahead wider than the real minimum cross-shard latency lets a
    // packet arrive inside the epoch it was sent in; the leader must
    // reject the run with a diagnostic instead of silently reordering.
    let mut sc = Scenario::damming_probe();
    (sc.client_odp, sc.server_odp) = (false, false);
    let mut plan = ShardPlan::new(2, vec![0, 1]);
    plan.lookahead_override = Some(SimTime::from_ms(1000));
    run_scenario_plan(&sc, plan, RunOptions::BARE);
}

#[test]
fn ucp_over_damming_hardware_still_delivers() {
    // A rendezvous transfer on ODP-by-default UCX settings across
    // damming-prone ConnectX-4: slow maybe, but correct.
    let mut eng = Engine::new();
    let mut cl = Cluster::new(77);
    let ucp = Ucp::new(UcpConfig::default());
    let a = ucp.add_worker(&mut cl, "a", DeviceProfile::connectx4(LinkSpec::fdr()));
    let b = ucp.add_worker(&mut cl, "b", DeviceProfile::connectx4(LinkSpec::fdr()));
    let ep = ucp.connect(&mut eng, &mut cl, a, b);
    let len = 32 * 1024u32;
    let src = ucp.mem_map(&mut cl, a, len as u64);
    let dst = ucp.mem_map(&mut cl, b, len as u64);
    let payload: Vec<u8> = (0..len).map(|i| (i % 131) as u8).collect();
    cl.mem_write(a, src.base, &payload);
    ucp.tag_recv(
        &mut eng,
        &mut cl,
        b,
        Tag(1),
        MemSlice {
            host: b,
            mr: dst.key,
            offset: 0,
            len,
        },
    );
    ucp.tag_send(
        &mut eng,
        &mut cl,
        ep,
        a,
        Tag(1),
        MemSlice {
            host: a,
            mr: src.key,
            offset: 0,
            len,
        },
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(ucp.take_completed(b).len(), 1);
    assert_eq!(cl.mem_read(b, dst.base, len as usize), payload);
}

#[test]
fn dsm_init_faults_on_odp_but_not_pinned() {
    for odp in [false, true] {
        let mut eng = Engine::new();
        let mut cl = Cluster::new(3);
        let cfg = DsmConfig {
            odp,
            compute_base: SimTime::from_ms(10),
            compute_jitter: SimTime::from_ms(1),
            lock_gap_max: SimTime::from_ms(6),
            ..Default::default()
        };
        let dsm = Dsm::build(&mut eng, &mut cl, cfg);
        let finished = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));
        let f = finished.clone();
        dsm.init(&mut eng, &mut cl, move |_, _, at| f.set(at));
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        assert!(finished.get() > SimTime::ZERO);
        let faults: u64 = (0..2)
            .map(|n| {
                let host = dsm.host(n);
                cl.qp_stats_sum(host).faults_raised
            })
            .sum();
        if odp {
            assert!(faults > 0, "ODP init must fault");
        } else {
            assert_eq!(faults, 0, "pinned init must not fault");
        }
    }
}

#[test]
fn shuffle_runs_on_every_table_one_generation() {
    // The shuffle engine works on all four RNIC generations.
    for sys in SystemProfile::all() {
        let cfg = ShuffleConfig {
            device: sys.device.clone(),
            odp: true,
            map_tasks: 4,
            reduce_tasks: 4,
            block_bytes: 512,
            endpoints_per_pair: 4,
            setup_compute: SimTime::from_us(100),
            ..Default::default()
        };
        let rep = run_shuffle(&cfg);
        assert!(rep.data_ok, "{}", sys.name);
        assert_eq!(rep.failed_fetches, 0, "{}", sys.name);
    }
}

#[test]
fn connectx6_shuffle_beats_connectx4_under_odp() {
    // Damming hardware pays timeouts the fixed hardware does not.
    let mk = |device: DeviceProfile| ShuffleConfig {
        device,
        odp: true,
        map_tasks: 16,
        reduce_tasks: 16,
        block_bytes: 256,
        endpoints_per_pair: 64,
        fetch_parallelism: 12,
        fetch_stagger: SimTime::from_us(2),
        setup_compute: SimTime::from_us(100),
        seed: 9,
        ..Default::default()
    };
    let cx4 = run_shuffle(&mk(DeviceProfile::connectx4(LinkSpec::fdr())));
    let cx6 = run_shuffle(&mk(DeviceProfile::connectx6()));
    assert!(cx4.data_ok && cx6.data_ok);
    assert!(
        cx6.duration <= cx4.duration,
        "cx6 {} vs cx4 {}",
        cx6.duration,
        cx4.duration
    );
}
