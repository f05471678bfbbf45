//! `wide`: the trajectory's 4096-QP §VI rung.
//!
//! The shape of `crates/bench/src/flood.rs`: 64 independent 64-QP floods
//! (every QP posts one 32 B READ against its pair's cold client-side ODP
//! page at t = 0) on 128 hosts in **one** event heap, telemetry **on**,
//! run sequentially. Build, `eng.run` and finish (`sync_telemetry`, CQ
//! drain, verify, drop) are timed separately.
//!
//! Why it is here: many hosts and QPs, thousands of armed keyed timers,
//! few events each — set-up, per-QP state and telemetry do most of the
//! work (the sync alone is ≈40 % of a pass). It continues the numbers
//! BENCH_7/9/10 pinned. The traced run also drives the same rung through
//! `run_sharded` on 1 and 2 shards; those times are recorded only —
//! `wide` itself stays sequential.

use std::sync::Mutex;

use ibsim_event::{QueueStats, SimTime};
use ibsim_fabric::{LinkSpec, TopologyKind};
use ibsim_verbs::{
    merge_queue_stats, run_sharded, Cluster, ClusterStats, DeviceProfile, HostId, MrDesc, MrMode,
    QpConfig, QpStats, ReadWr, ShardPlan, Sim, WcOpcode,
};

use super::{
    derive_seed, engine_pass, engine_setup_once, engine_trace, expect_same_digest, fastest,
    set_telemetry_layers, side_pass, sim_digest, EngineTrace, EngineWorkload, Knobs, PassOut,
    TraceOut, Verdict, Workload,
};
use crate::digest::{add_cluster_stats, add_qp_stats};
use crate::replay::FabricShape;
use crate::trace::{timed, Tracer};
use crate::yardstick::normalised;

/// QPs per client/server host pair — the paper's §VI flood scale.
const PAIR_QPS: usize = 64;
const READ_BYTES: u32 = 32;

/// Passes of each kind the traced run makes, keeping the fastest.
const TRIES: usize = 9;

/// The workload; see the module docs.
pub struct Wide {
    pairs: usize,
    /// Rotation of the servers' byte pattern — the one input the seed
    /// argument drives (see [`Wide::new`]).
    pattern_salt: usize,
}

/// One pair's regions, for the read-back.
pub struct PairHandles {
    client: HostId,
    local: MrDesc,
}

fn pattern(salt: usize) -> Vec<u8> {
    (0..4096usize).map(|i| ((i + salt) % 239) as u8).collect()
}

impl Wide {
    /// 64 pairs (quick: 4).
    ///
    /// The cluster seed is the QP count, as in the trajectory's rung, so
    /// the full-size pass simulates what BENCH_7/9/10 timed. Like
    /// `flood`, the amount of simulated work moves with the cluster seed
    /// (by a few percent here), so the seed argument drives only the
    /// payload the READs carry.
    pub fn new(seed: u64, quick: bool) -> Wide {
        Wide {
            pairs: if quick { 4 } else { 64 },
            pattern_salt: (derive_seed(seed, 4) % 239) as usize,
        }
    }

    /// Builds the rung; with `shard` set, builds that shard's replica of
    /// a sharded run (posts and set-up only for pairs the shard owns,
    /// exactly as the trajectory's rung does).
    fn build_world(
        &self,
        tr: &mut Option<Tracer>,
        knobs: Knobs,
        shard: Option<(usize, &[usize])>,
    ) -> (Sim, Cluster, Vec<PairHandles>) {
        let mut eng = Sim::new();
        let mut cl = Cluster::new((self.pairs * PAIR_QPS) as u64);
        if knobs.telemetry {
            cl.telemetry_enable();
        }
        let device = DeviceProfile::connectx4(LinkSpec::fdr());
        let qp_cfg = QpConfig {
            cack: 18,
            ..QpConfig::default()
        };
        for s in 0..self.pairs {
            timed(tr, "verbs.add_host", || {
                cl.add_host(&format!("client{s}"), device.clone())
            });
            timed(tr, "verbs.add_host", || {
                cl.add_host(&format!("server{s}"), device.clone())
            });
        }
        if let Some((id, owner)) = shard {
            cl.enable_sharding(id, owner.to_vec());
        }
        let data = pattern(self.pattern_salt);
        let mut handles = Vec::with_capacity(self.pairs);
        for s in 0..self.pairs {
            let (a, b) = (HostId(2 * s), HostId(2 * s + 1));
            if !(cl.owns(a) || cl.owns(b)) {
                continue;
            }
            let remote = timed(tr, "verbs.alloc_mr", || {
                cl.alloc_mr(b, 4096, MrMode::Pinned)
            });
            let local = timed(tr, "verbs.alloc_mr", || cl.alloc_mr(a, 4096, MrMode::Odp));
            cl.mem_write(b, remote.base, &data);
            for i in 0..PAIR_QPS {
                let qp = timed(tr, "verbs.connect_pair", || {
                    cl.connect_pair(&mut eng, a, b, qp_cfg.clone())
                })
                .0;
                if cl.owns(a) {
                    let wr =
                        ReadWr::new((local.key, (i as u64) * u64::from(READ_BYTES)), remote.key)
                            .len(READ_BYTES)
                            .id(i as u64);
                    timed(tr, "verbs.post", || cl.post(&mut eng, a, qp, wr));
                }
            }
            if cl.owns(a) {
                handles.push(PairHandles { client: a, local });
            }
        }
        (eng, cl, handles)
    }

    /// Drains and checks the pairs in `handles`.
    fn check(&self, tr: &mut Option<Tracer>, cl: &mut Cluster, handles: &[PairHandles]) -> Verdict {
        let mut v = Verdict {
            attempted: (handles.len() * PAIR_QPS) as u64,
            ..Verdict::default()
        };
        let want: Vec<u8> = pattern(self.pattern_salt)[..READ_BYTES as usize].repeat(PAIR_QPS);
        let (mut ok, mut last, mut bad_mem) = (0u64, SimTime::ZERO, 0u64);
        for h in handles {
            let comps = timed(tr, "verbs.poll_cq", || cl.poll_cq(h.client));
            for c in &comps {
                if c.status.is_success() && c.opcode == WcOpcode::Read && c.bytes == READ_BYTES {
                    ok += 1;
                    last = last.max(c.at);
                }
            }
            let got = timed(tr, "verify", || {
                cl.mem_read(h.client, h.local.base, want.len())
            });
            if got != want {
                bad_mem += 1;
            }
        }
        v.failed = v.attempted.saturating_sub(ok);
        if v.failed > 0 {
            v.errors.push(format!(
                "wide: {} of {} READs did not complete successfully with {READ_BYTES} bytes",
                v.failed, v.attempted
            ));
        }
        if bad_mem > 0 {
            v.errors.push(format!(
                "wide: {bad_mem} client region(s) do not hold the server pattern"
            ));
        }
        v.exec_ns = last.as_ns();
        v.digest_words = vec![ok];
        v
    }

    /// The same rung on `shards` PDES shards with a pair-aligned owner
    /// map. Returns `(normalised seconds, sim_digest, errors)`.
    fn sharded(&self, shards: usize) -> (f64, u64, Vec<String>) {
        let ((digest, errors), seconds) = normalised(|| self.sharded_once(shards));
        (seconds, digest, errors)
    }

    fn sharded_once(&self, shards: usize) -> (u64, Vec<String>) {
        struct Out {
            verdict: Verdict,
            queue: QueueStats,
            cluster: ClusterStats,
            qp: QpStats,
            globals: (u64, u64),
            end: SimTime,
        }
        let knobs = self.default_knobs();
        let owner: Vec<usize> = (0..self.pairs * 2)
            .map(|h| (h / 2) * shards / self.pairs)
            .collect();
        let plan = ShardPlan::new(shards, owner);
        // `run_sharded` hands `finish` only the engine and the cluster;
        // each shard parks its handles here in between.
        let stash: Vec<Mutex<Vec<PairHandles>>> =
            (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        let outs: Vec<Out> = run_sharded(
            &plan,
            None,
            |id| {
                let (eng, cl, handles) =
                    self.build_world(&mut None, knobs, Some((id, &plan.owner)));
                *stash[id].lock().expect("invariant: no shard panicked") = handles;
                (eng, cl)
            },
            |id, eng, mut cl, canonical_end| {
                cl.sync_telemetry_at(&eng, canonical_end);
                let handles =
                    std::mem::take(&mut *stash[id].lock().expect("invariant: no shard panicked"));
                let verdict = self.check(&mut None, &mut cl, &handles);
                let qp = (0..cl.host_count())
                    .map(HostId)
                    .filter(|&h| cl.owns(h))
                    .fold(QpStats::default(), |acc, h| {
                        add_qp_stats(&acc, &cl.qp_stats_sum(h))
                    });
                Out {
                    verdict,
                    queue: eng.queue_stats(),
                    cluster: cl.stats,
                    qp,
                    globals: cl.shard_global_counters(),
                    end: canonical_end,
                }
            },
        );
        let queues: Vec<QueueStats> = outs.iter().map(|o| o.queue).collect();
        let globals = outs[0].globals;
        let queue = merge_queue_stats(&queues, globals.0, globals.1);
        let end_ns = outs[0].end.as_ns();
        let mut cluster = ClusterStats::default();
        let mut qp = QpStats::default();
        let (mut ok, mut exec_ns) = (0u64, 0u64);
        let mut errors = Vec::new();
        for o in outs {
            cluster = add_cluster_stats(&cluster, &o.cluster);
            qp = add_qp_stats(&qp, &o.qp);
            ok += o.verdict.digest_words[0];
            exec_ns = exec_ns.max(o.verdict.exec_ns);
            errors.extend(o.verdict.errors);
        }
        let digest = sim_digest(end_ns, &queue, &cluster, &qp, &[exec_ns, ok]);
        (digest, errors)
    }
}

impl EngineWorkload for Wide {
    type Handles = Vec<PairHandles>;

    fn default_knobs(&self) -> Knobs {
        Knobs {
            telemetry: true,
            ..Knobs::PLAIN
        }
    }

    fn build(&self, tr: &mut Option<Tracer>, knobs: Knobs) -> (Sim, Cluster, Vec<PairHandles>) {
        self.build_world(tr, knobs, None)
    }

    fn verify(&self, tr: &mut Option<Tracer>, cl: &mut Cluster, h: Vec<PairHandles>) -> Verdict {
        self.check(tr, cl, &h)
    }

    fn fabric_shape(&self) -> FabricShape {
        FabricShape {
            topology: TopologyKind::Crossbar,
            host_link: LinkSpec::fdr(),
            hosts: self.pairs * 2,
            pairs: (0..self.pairs)
                .flat_map(|s| [(2 * s, 2 * s + 1), (2 * s + 1, 2 * s)])
                .collect(),
        }
    }
}

impl Workload for Wide {
    fn pass(&self) -> PassOut {
        engine_pass(self, &mut None, self.default_knobs()).pass
    }

    fn setup_once(&self) -> f64 {
        engine_setup_once(self)
    }

    fn trace(&self) -> TraceOut {
        // A pass is a tenth of a second: the fastest of nine of each kind.
        let EngineTrace {
            plain,
            traced,
            tracer,
            mut layers,
            mut pass,
        } = engine_trace(self, TRIES);

        // Telemetry: the ordinary pass has it on, so the side pass turns
        // it off.
        if let Some(t) = &traced.telemetry {
            set_telemetry_layers(&mut layers, t);
        }
        let off = side_pass(
            self,
            TRIES,
            Knobs::PLAIN,
            &mut pass,
            "the telemetry-off pass",
        );
        layers.set(
            "telemetry.run_overhead",
            plain.pass.run_s / off.pass.run_s - 1.0,
        );

        // The sharded executor on the same rung: recorded only.
        let by_wall = |out: &(f64, u64, Vec<String>)| out.0;
        let (wall_1, digest_1, errors_1) = fastest(TRIES, || self.sharded(1), by_wall);
        let (wall_2, digest_2, errors_2) = fastest(TRIES, || self.sharded(2), by_wall);
        expect_same_digest(&mut pass, "the 1-shard run", digest_1);
        expect_same_digest(&mut pass, "the 2-shard run", digest_2);
        pass.errors.extend(errors_1);
        pass.errors.extend(errors_2);
        layers.set("verbs.sharded.pass_s.1", wall_1);
        layers.set("verbs.sharded.pass_s.2", wall_2);
        layers.set("verbs.sharded.speedup_2", wall_1 / wall_2);
        TraceOut {
            pass,
            tracer,
            layers,
        }
    }
}
