//! Seeded shard-assignment fuzz: the conservative-lookahead PDES
//! executor must reproduce the sequential trace for *any* host→shard
//! partition, not just the default placement. This sweep runs seeded
//! random scenarios once sequentially and once under a seed-derived
//! [`ShardPlan`] — cycling through all-hosts-on-one-shard, one host per
//! shard, reversed placement and arbitrary assignments — and requires
//! byte-identical trace hashes plus matching end times, span counts and
//! stage-sum verdicts from every pair.

use ibsim_scenario::{
    paper_corpus, random_scenario, run_scenario, run_scenario_plan, RunOptions, Scenario, ShardPlan,
};

#[test]
fn paper_corpus_is_shard_count_invariant() {
    for sc in paper_corpus() {
        let seq = run_scenario(&sc);
        for shards in [2usize, 4, 8] {
            let mut sharded_sc = sc.clone();
            sharded_sc.shards = shards;
            let run = run_scenario(&sharded_sc);
            assert_eq!(
                seq.trace_hash, run.trace_hash,
                "{}: trace diverged at {shards} shards",
                sc.name
            );
            assert_eq!(
                seq.end_ns, run.end_ns,
                "{}: end time diverged at {shards} shards",
                sc.name
            );
            assert_eq!(
                seq.telemetry.spans().len(),
                run.telemetry.spans().len(),
                "{}: span count diverged at {shards} shards",
                sc.name
            );
        }
    }
}

/// The seed-derived partition under test: two hosts over 2, 4 or 8
/// shards, exercising the degenerate corners explicitly.
fn plan_for(seed: u64) -> ShardPlan {
    let shards = [2usize, 4, 8][(seed % 3) as usize];
    let owner = match seed % 4 {
        // Both hosts co-located (the sequential engine in disguise;
        // also the only legal split under order-dependent loss).
        0 => vec![0, 0],
        // One host per shard, client first: the canonical split.
        1 => vec![0, 1],
        // Reversed: the client on the last shard, so shard 0 is the
        // epoch leader without owning the posting host.
        2 => vec![shards - 1, 0],
        // Arbitrary: both indices drawn from the seed.
        _ => vec![seed as usize % shards, (seed as usize / 5) % shards],
    };
    ShardPlan::new(shards, owner)
}

#[test]
fn random_shard_assignments_reproduce_the_sequential_trace() {
    let mut sharded_faults = 0usize;
    for seed in 0..64u64 {
        let mut sc = random_scenario(seed);
        sc.shards = 1;
        let seq = run_scenario(&sc);
        let plan = plan_for(seed);
        let run = run_scenario_plan(&sc, plan.clone(), RunOptions::ORACLE);
        assert_eq!(
            seq.trace_hash, run.trace_hash,
            "seed {seed}: {} shards, owner {:?}: trace diverged from sequential",
            plan.shards, plan.owner
        );
        assert_eq!(
            seq.timeline(),
            run.timeline(),
            "seed {seed}: timeline diverged"
        );
        assert_eq!(seq.end_ns, run.end_ns, "seed {seed}: end time diverged");
        assert_eq!(
            seq.stalled, run.stalled,
            "seed {seed}: stall verdict diverged"
        );
        assert_eq!(
            seq.telemetry.spans().len(),
            run.telemetry.spans().len(),
            "seed {seed}: span count diverged"
        );
        assert_eq!(
            seq.telemetry.stage_sum_violations(),
            run.telemetry.stage_sum_violations(),
            "seed {seed}: stage-sum verdict diverged"
        );
        assert_eq!(
            seq.lint.findings.len(),
            run.lint.findings.len(),
            "seed {seed}: lint findings diverged"
        );
        if plan.owner[0] != plan.owner[1] && !seq.telemetry.spans().is_empty() {
            sharded_faults += seq.telemetry.spans().len();
        }
    }
    // The sweep must not pass vacuously: at least some runs have to
    // resolve ODP faults across a genuinely split partition.
    assert!(
        sharded_faults > 0,
        "no fault spans ran under a split partition — the fuzz never \
         exercised cross-shard fault deferral"
    );
}

/// Route determinism across the executor matrix: the same workload on
/// every built-in topology must produce one trace regardless of shard
/// count. Each shard's replica builds its *own* fabric and computes
/// routes independently — any nondeterminism in route construction
/// (iteration order, tie-breaks) or in the per-hop serialization would
/// split the hashes apart here.
#[test]
fn every_topology_is_shard_count_invariant() {
    for kind in ibsim_fabric::TopologyKind::ALL_SAMPLES {
        // The damming shape: ODP faults on both ends plus paced READs,
        // so cross-shard lookahead, fault deferral and multi-hop transit
        // all engage at once.
        let mut sc = random_scenario(7);
        sc.shards = 1;
        sc.topology = kind;
        let seq = run_scenario(&sc);
        for shards in [2usize, 4, 8] {
            let mut sharded = sc.clone();
            sharded.shards = shards;
            let run = run_scenario(&sharded);
            assert_eq!(
                seq.trace_hash, run.trace_hash,
                "{kind}: trace diverged at {shards} shards"
            );
            assert_eq!(
                seq.timeline(),
                run.timeline(),
                "{kind}: timeline diverged at {shards} shards"
            );
            assert_eq!(
                seq.end_ns, run.end_ns,
                "{kind}: end time diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn the_shards_facet_round_trips_and_dispatches_from_the_spec_pipeline() {
    // A spec-borne shard count must survive the parse round trip and
    // produce the same run as the explicitly sharded entry point.
    let mut sc = random_scenario(3);
    sc.shards = 4;
    let text = sc.to_spec_string();
    assert!(
        text.contains("shards=4"),
        "non-default shard count must serialize"
    );
    let back = Scenario::parse(&text).expect("spec round trip");
    assert_eq!(back.shards, 4);
    let a = run_scenario(&back);
    sc.shards = 1;
    let b = run_scenario(&sc);
    assert_eq!(a.trace_hash, b.trace_hash);
}

#[test]
fn default_shard_count_is_invisible_in_the_spec_format() {
    // Pre-facet spec strings — and every pinned corpus hash derived from
    // them — must stay byte-identical when shards is 1.
    let sc = Scenario::base("plain");
    assert!(!sc.to_spec_string().contains("shards"));
}
