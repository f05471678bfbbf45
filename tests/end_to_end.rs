//! Cross-crate integration tests: the facade crate driving every layer of
//! the stack together — transport, ODP engine, UCP, DSM, shuffle and the
//! pitfall analyzers.

use ibsim::analysis::{lint_capture, LintConfig, RuleId};
use ibsim::dsm::{Dsm, DsmConfig};
use ibsim::event::{Engine, SimTime};
use ibsim::fabric::LinkSpec;
use ibsim::odp::{
    fnv1a_str, run_microbench, run_microbench_plan, MicrobenchConfig, MicrobenchDigest, OdpMode,
    SystemProfile,
};
use ibsim::shuffle::{run_shuffle, ShuffleConfig};
use ibsim::ucp::{MemSlice, Tag, Ucp, UcpConfig};
use ibsim::verbs::{
    export_jsonl, Cluster, DeviceProfile, MrMode, QpConfig, ReadWr, ShardPlan, Telemetry,
};

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
    eng.run(&mut cl);
    assert_eq!(cl.mem_read(a, dst.base, 6), b"facade");
}

#[test]
fn paper_headline_damming_and_detection() {
    // §V-A headline + §IX-A detection, through the facade.
    let cfg = MicrobenchConfig {
        interval: SimTime::from_ms(1),
        capture: true,
        ..Default::default()
    };
    let run = run_microbench(&cfg);
    assert!(run.execution_time >= SimTime::from_ms(400));
    let report = lint_capture(run.cluster.capture(run.client), &LintConfig::default());
    assert_eq!(report.count(RuleId::DammingSignature), 1, "{report}");
    assert_eq!(report.count(RuleId::FloodSignature), 0, "{report}");
}

#[test]
fn paper_headline_flood_and_detection() {
    let cfg = MicrobenchConfig {
        size: 32,
        num_ops: 96,
        num_qps: 96,
        odp: OdpMode::ClientSide,
        cack: 18,
        capture: true,
        ..Default::default()
    };
    let run = run_microbench(&cfg);
    let report = lint_capture(run.cluster.capture(run.client), &LintConfig::default());
    assert!(report.count(RuleId::FloodSignature) >= 1, "{report}");
    assert_eq!(report.count(RuleId::DammingSignature), 0, "{report}");
    assert_eq!(run.errors, 0);
    assert!(run.data_ok);
}

// ---------------------------------------------------------------------
// Cross-shard conformance battery: the sharded conservative-lookahead
// engine must reproduce the sequential goldens bit for bit at every
// shard count (1, 2, 4, 8) — same pinned capture hash, same telemetry
// event counts, same merged metrics export.
// ---------------------------------------------------------------------

fn damming_probe_cfg() -> MicrobenchConfig {
    MicrobenchConfig {
        interval: SimTime::from_ms(1),
        capture: true,
        telemetry: true,
        ..Default::default()
    }
}

fn flood_probe_cfg() -> MicrobenchConfig {
    MicrobenchConfig {
        size: 32,
        num_ops: 128,
        num_qps: 128,
        odp: OdpMode::ClientSide,
        cack: 18,
        capture: true,
        telemetry: true,
        ..Default::default()
    }
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

fn assert_digest_matches(seq: &MicrobenchDigest, sh: &MicrobenchDigest, ctx: &str) {
    assert_eq!(seq.client_timeline, sh.client_timeline, "{ctx}: timeline");
    assert_eq!(seq.op_completions, sh.op_completions, "{ctx}: completions");
    assert_eq!(
        seq.execution_time, sh.execution_time,
        "{ctx}: execution time"
    );
    assert_eq!(seq.total_packets, sh.total_packets, "{ctx}: packet count");
    assert_eq!(seq.faults, sh.faults, "{ctx}: fault count");
    assert_eq!(seq.queue_stats, sh.queue_stats, "{ctx}: queue stats");
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
        export_jsonl(&seq.telemetry),
        export_jsonl(&sh.telemetry),
        "{ctx}: telemetry export"
    );
}

#[test]
fn sharded_damming_reproduces_pinned_golden_at_every_shard_count() {
    let seq = run_microbench_plan(&damming_probe_cfg(), ShardPlan::pair(1));
    assert_eq!(seq.client_timeline.len(), 919, "sequential golden drifted");
    assert_eq!(
        fnv1a_str(&seq.client_timeline),
        0xeabf_f70d_d984_76b9,
        "sequential golden drifted"
    );
    for shards in [1, 2, 4, 8] {
        let sh = run_microbench_plan(&damming_probe_cfg(), ShardPlan::pair(shards));
        assert_eq!(
            fnv1a_str(&sh.client_timeline),
            0xeabf_f70d_d984_76b9,
            "damming trace diverged at {shards} shards"
        );
        assert_digest_matches(&seq, &sh, &format!("damming, {shards} shards"));
    }
}

#[test]
fn sharded_flood_reproduces_pinned_golden_at_every_shard_count() {
    let seq = run_microbench_plan(&flood_probe_cfg(), ShardPlan::pair(1));
    assert_eq!(
        seq.client_timeline.len(),
        135_890,
        "sequential golden drifted"
    );
    assert_eq!(
        fnv1a_str(&seq.client_timeline),
        0xa115_5303_7a19_1337,
        "sequential golden drifted"
    );
    for shards in [1, 2, 4, 8] {
        let sh = run_microbench_plan(&flood_probe_cfg(), ShardPlan::pair(shards));
        assert_eq!(
            fnv1a_str(&sh.client_timeline),
            0xa115_5303_7a19_1337,
            "flood trace diverged at {shards} shards"
        );
        assert_digest_matches(&seq, &sh, &format!("flood, {shards} shards"));
    }
}

/// A protocol timer's only stale-fire guard is its keyed slot, so a
/// drained run owes the engine nothing, and every ACK timer that fired
/// found its QP armed with work outstanding: fires == counted timeouts.
#[test]
fn drained_probes_leave_no_timer_behind_and_every_ack_fire_is_a_timeout() {
    let flood = run_microbench_plan(&flood_probe_cfg(), ShardPlan::pair(1));
    let damming = run_microbench_plan(&damming_probe_cfg(), ShardPlan::pair(1));
    for (run, name) in [(&flood, "flood"), (&damming, "damming")] {
        assert_eq!(run.queue_stats.live, 0, "{name}");
        assert_eq!(run.queue_stats.keyed_live, 0, "{name}");
        let fired = counter_sum(&run.telemetry, "timer.ack_fired");
        assert_eq!(fired, run.timeouts, "{name}");
    }
    // Both families ran: the damming stall ends in a Local ACK Timeout,
    // and each of the flood's 128 QPs ticked at least once.
    assert!(damming.timeouts >= 1);
    assert!(counter_sum(&flood.telemetry, "timer.stall_tick_fired") >= 128);
}

#[test]
fn sharded_stage_sum_law_holds_with_cross_shard_fault_lifecycles() {
    // Both-side ODP across 2 shards: faults are raised and resolved on
    // each host's own shard, but the retransmit drain closing every span
    // is driven by packets from the peer's shard. The stage-sum
    // conservation law must survive the epoch-merged telemetry.
    let sh = run_microbench_plan(&damming_probe_cfg(), ShardPlan::pair(2));
    assert!(
        !sh.telemetry.spans().is_empty(),
        "damming probe must record fault spans"
    );
    assert!(
        sh.telemetry.spans().iter().any(|s| s.host == 0)
            && sh.telemetry.spans().iter().any(|s| s.host == 1),
        "both shards must contribute spans"
    );
    assert_eq!(sh.telemetry.stage_sum_violations(), 0);
    let seq = run_microbench_plan(&damming_probe_cfg(), ShardPlan::pair(1));
    assert_eq!(seq.telemetry.stage_sum_violations(), 0);
    assert_eq!(seq.telemetry.spans().len(), sh.telemetry.spans().len());
}

#[test]
#[should_panic(expected = "lookahead violation")]
fn oversized_lookahead_override_is_rejected() {
    // A lookahead wider than the real minimum cross-shard latency lets a
    // packet arrive inside the epoch it was sent in; the leader must
    // reject the run with a diagnostic instead of silently reordering.
    let cfg = MicrobenchConfig {
        odp: OdpMode::None,
        ..Default::default()
    };
    let mut plan = ShardPlan::new(2, vec![0, 1]);
    plan.lookahead_override = Some(SimTime::from_ms(1000));
    run_microbench_plan(&cfg, plan);
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
    eng.run(&mut cl);
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
        eng.run(&mut cl);
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
