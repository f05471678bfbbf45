//! The §VI flood rung: the workload behind the `qpsweep` scaling gate.
//!
//! Each rung shards its QPs across independent client/server host pairs
//! of [`SHARD_QPS`] QPs each — one §VI flood per shard (all READs
//! landing on one cold client-side ODP page) — inside a *single*
//! engine, so one shared event heap carries thousands of concurrently
//! armed keyed timers (ACK timeouts, RNR waits, 0.5 ms stall ticks).
//! A rung reports simulated quantities only; how fast the host ran it
//! is the benchmark's business (`BENCHMARK.json`, workloads `flood` and
//! `wide`).
//!
//! [`run_flood_rung_sharded`] runs the identical workload on the
//! conservative-lookahead PDES executor. The host pairs are independent
//! (no cross-pair QPs), so a pair-aligned owner map has no cross-shard
//! links at all and the epoch width falls back to the ODP fault-draw
//! floor — the shards genuinely run concurrently, and the rung must
//! still reproduce the sequential completion counts, span counts and
//! simulated end time exactly.

use ibsim_event::{QueueStats, SimTime};
use ibsim_fabric::LinkSpec;
use ibsim_verbs::{
    merge_shard_telemetry, run_sharded, Cluster, DeviceProfile, HostId, MrMode, QpConfig, ReadWr,
    ShardPlan, Sim, Telemetry,
};

/// QPs per client/server host pair — the paper's §VI flood scale.
pub const SHARD_QPS: usize = 64;

/// Simulated outcome of one flood rung.
#[derive(Debug, Clone)]
pub struct FloodRung {
    /// Total QPs in the rung (a multiple of [`SHARD_QPS`]).
    pub qps: usize,
    /// Simulated completion time of the whole rung.
    pub exec: SimTime,
    /// Completions drained across every client CQ (one per QP when the
    /// flood fully drains).
    pub completions: usize,
    /// Engine queue statistics after the drain (merged across shards on
    /// the PDES executor, with `peak_depth` zeroed — per-shard peaks do
    /// not compose).
    pub stats: QueueStats,
    /// Telemetry fault spans recorded (one per shard: each shard has
    /// exactly one cold ODP page).
    pub spans: usize,
}

/// Builds one rung's cluster: `qps / SHARD_QPS` independent 64-QP
/// floods, every QP posting a single 32 B READ against its pair's cold
/// ODP page at t = 0. The rung seed is `qps`, so every invocation of a
/// given rung replays the identical simulation. `shard` selects the
/// replica to build for a PDES run; posts land only on the owning
/// shard.
fn build_flood_rung(qps: usize, shard: Option<(usize, &[usize])>) -> (Sim, Cluster) {
    let mut eng = Sim::new();
    let mut cl = Cluster::new(qps as u64);
    cl.telemetry_enable();
    let device = DeviceProfile::connectx4(LinkSpec::fdr());
    let qp_cfg = QpConfig {
        cack: 18,
        ..QpConfig::default()
    };

    for s in 0..qps / SHARD_QPS {
        cl.add_host(&format!("client{s}"), device.clone());
        cl.add_host(&format!("server{s}"), device.clone());
    }
    if let Some((id, owner)) = shard {
        cl.enable_sharding(id, owner.to_vec());
    }
    for s in 0..qps / SHARD_QPS {
        let (a, b) = (HostId(2 * s), HostId(2 * s + 1));
        // A pair neither of whose endpoints is owned never interacts
        // with this replica: its MR keys and QPNs are per-host counters,
        // so skipping its setup entirely cannot shift any owned host's
        // identifiers — it only removes dead build work.
        if !(cl.owns(a) || cl.owns(b)) {
            continue;
        }
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Odp);
        for i in 0..SHARD_QPS {
            let qp = cl.connect_pair(&mut eng, a, b, qp_cfg.clone()).0;
            if cl.owns(a) {
                cl.post(
                    &mut eng,
                    a,
                    qp,
                    ReadWr::new((local.key, (i * 32) as u64), remote.key)
                        .len(32)
                        .id(i as u64),
                );
            }
        }
    }
    (eng, cl)
}

/// The client host ids of a rung, in pair order.
fn rung_clients(qps: usize) -> Vec<HostId> {
    (0..qps / SHARD_QPS).map(|s| HostId(2 * s)).collect()
}

/// Runs one rung sequentially.
pub fn run_flood_rung(qps: usize) -> FloodRung {
    let (mut eng, mut cl) = build_flood_rung(qps, None);
    eng.run(&mut cl);
    cl.sync_telemetry(&eng);
    let completions = rung_clients(qps).iter().map(|&a| cl.poll_cq(a).len()).sum();
    FloodRung {
        qps,
        exec: eng.now(),
        completions,
        stats: eng.queue_stats(),
        spans: cl.telemetry().spans().len(),
    }
}

/// Runs one rung on `shards` PDES shards with a pair-aligned block
/// owner map (client and server of a pair always co-located, so there
/// are no cross-shard links). Reproduces [`run_flood_rung`]'s outcome
/// exactly; only `stats.peak_depth` may differ.
pub fn run_flood_rung_sharded(qps: usize, shards: usize) -> FloodRung {
    let pairs = qps / SHARD_QPS;
    let owner: Vec<usize> = (0..pairs * 2).map(|h| (h / 2) * shards / pairs).collect();
    let plan = ShardPlan::new(shards, owner);

    struct Out {
        completions: usize,
        telemetry: Telemetry,
        stats: QueueStats,
        globals: (u64, u64),
        end: SimTime,
    }
    let outs: Vec<Out> = run_sharded(
        &plan,
        None,
        |id| build_flood_rung(qps, Some((id, &plan.owner))),
        |_, eng, mut cl, canonical_end| {
            cl.sync_telemetry_at(&eng, canonical_end);
            let mut completions = 0;
            for a in rung_clients(qps) {
                if cl.owns(a) {
                    completions += cl.poll_cq(a).len();
                }
            }
            Out {
                completions,
                telemetry: std::mem::take(cl.telemetry_mut()),
                stats: eng.queue_stats(),
                globals: cl.shard_global_counters(),
                end: canonical_end,
            }
        },
    );

    let globals = outs[0].globals;
    let end = outs[0].end;
    let completions = outs.iter().map(|o| o.completions).sum();
    let qss: Vec<QueueStats> = outs.iter().map(|o| o.stats).collect();
    let hubs: Vec<Telemetry> = outs.into_iter().map(|o| o.telemetry).collect();
    let (telemetry, stats) = merge_shard_telemetry(&hubs, &qss, globals.0, globals.1);
    FloodRung {
        qps,
        exec: end,
        completions,
        stats,
        spans: telemetry.spans().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_rung_reproduces_the_sequential_outcome() {
        let seq = run_flood_rung(2 * SHARD_QPS);
        for shards in [1usize, 2] {
            let par = run_flood_rung_sharded(2 * SHARD_QPS, shards);
            assert_eq!(seq.exec, par.exec, "{shards} shards: end time diverged");
            assert_eq!(seq.completions, par.completions, "{shards} shards");
            assert_eq!(seq.spans, par.spans, "{shards} shards");
            assert_eq!(
                seq.stats.executed, par.stats.executed,
                "{shards} shards: executed-event count diverged"
            );
        }
    }
}
