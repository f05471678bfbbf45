//! `flood`: one Fig. 9 cell — the paper's §VI packet flood.
//!
//! Two hosts on the crossbar, 50 QPs, 8192 × 100 B READs posted round-
//! robin, both buffers under ODP, `C_ack` = 18, go-back-N, telemetry
//! and capture off. The world is built through the public `Cluster` API
//! exactly as `ibsim_odp::run_microbench` builds it, and the traced run
//! proves it: packets, timeouts, retransmissions and execution time
//! must equal `run_microbench`'s for the same `MicrobenchConfig`.
//!
//! Why it is here: this is the simulator's dominant cost (≈99 % of
//! `--bin all` is flood cells). Stall-tick timers, retransmit plans,
//! discarded responses, RNR and driver work — handler turns in `verbs`
//! do most of the work; the fabric is ≈1 % and set-up ≈0.

use std::rc::Rc;

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::TopologyKind;
use ibsim_odp::{run_microbench, MicrobenchConfig, OdpMode};
use ibsim_verbs::{
    Cluster, HostId, MrBuilder, MrDesc, MrMode, QpConfig, Qpn, ReadWr, Sim, WcOpcode,
};

use super::{
    derive_seed, engine_pass, engine_setup_once, engine_trace, fastest, set_telemetry_layers,
    side_pass, EngineOut, EngineTrace, EngineWorkload, Knobs, PassOut, TraceOut, Verdict, Workload,
};
use crate::replay::FabricShape;
use crate::trace::{clocked, timed, CallClock, Tracer};
use crate::yardstick::normalised;

/// Passes of each kind the traced run makes, keeping the fastest.
const TRIES: usize = 3;

/// The workload; see the module docs.
pub struct Flood {
    cfg: MicrobenchConfig,
    /// Rotation of the server's byte pattern — the one input the seed
    /// argument drives (see [`Flood::new`]).
    pattern_salt: u32,
}

/// What `verify` needs.
pub struct Handles {
    client: HostId,
    local: MrDesc,
    pattern: Vec<u8>,
    post_clock: Option<Rc<CallClock>>,
}

impl Flood {
    /// The Fig. 9 cell (quick: 512 ops over 16 QPs).
    ///
    /// The cluster seed stays at the library default, the cell `--bin
    /// fig9` runs. A flood is chaotic: across cluster seeds the same cell
    /// executes between 0.66 M and 2.65 M events, so a seed-derived
    /// cluster seed would make `pass_s` measure the seed, not the code,
    /// and runs made with different seeds could never be compared. The
    /// seed argument therefore drives only the payload the READs carry,
    /// which the read-back check verifies and the simulated work does not
    /// depend on.
    pub fn new(seed: u64, quick: bool) -> Flood {
        let (num_ops, num_qps) = if quick { (512, 16) } else { (8192, 50) };
        Flood {
            cfg: MicrobenchConfig {
                size: 100,
                num_ops,
                num_qps,
                odp: OdpMode::BothSide,
                cack: 18,
                ..MicrobenchConfig::default()
            },
            pattern_salt: (derive_seed(seed, 1) % 241) as u32,
        }
    }
}

fn mode(odp: bool) -> MrMode {
    if odp {
        MrMode::Odp
    } else {
        MrMode::Pinned
    }
}

impl EngineWorkload for Flood {
    type Handles = Handles;

    fn build(&self, tr: &mut Option<Tracer>, knobs: Knobs) -> (Sim, Cluster, Handles) {
        let cfg = &self.cfg;
        let mut eng = Engine::new();
        let mut cl = Cluster::new(cfg.seed);
        if knobs.telemetry {
            cl.telemetry_enable();
        }
        let client = timed(tr, "verbs.add_host", || {
            cl.add_host("client", cfg.device.clone())
        });
        let server = timed(tr, "verbs.add_host", || {
            cl.add_host("server", cfg.device.clone())
        });

        let buf_len = cfg.num_ops as u64 * u64::from(cfg.size);
        let server_odp = matches!(cfg.odp, OdpMode::ServerSide | OdpMode::BothSide);
        let client_odp = matches!(cfg.odp, OdpMode::ClientSide | OdpMode::BothSide);
        let remote = timed(tr, "verbs.alloc_mr", || {
            cl.mr(server, MrBuilder::new(buf_len, mode(server_odp)))
        });
        let local = timed(tr, "verbs.alloc_mr", || {
            cl.mr(client, MrBuilder::new(buf_len, mode(client_odp)))
        });
        let salt = self.pattern_salt;
        let pattern: Vec<u8> = (0..buf_len as u32)
            .map(|i| ((i + salt) % 241) as u8)
            .collect();
        cl.mem_write(server, remote.base, &pattern);
        if knobs.capture {
            cl.capture_enable(client);
        }

        let qp_cfg = QpConfig {
            cack: cfg.cack,
            retry_count: cfg.retry_count,
            min_rnr_delay: cfg.min_rnr_delay,
            recovery: cfg.recovery,
            ..QpConfig::default()
        };
        let qps: Vec<(Qpn, Qpn)> = (0..cfg.num_qps)
            .map(|_| {
                timed(tr, "verbs.connect_pair", || {
                    cl.connect_pair(&mut eng, client, server, qp_cfg.clone())
                })
            })
            .collect();

        // The Fig. 3 loop: op i is posted at i * (interval + overhead)
        // on QP i % num_qps.
        let post_clock = tr.is_some().then(|| Rc::new(CallClock::default()));
        for i in 0..cfg.num_ops {
            let (qa, _) = qps[i % cfg.num_qps];
            let off = i as u64 * u64::from(cfg.size);
            let (lk, rk, size) = (local.key, remote.key, cfg.size);
            let at = (cfg.interval + cfg.post_overhead) * i as u64;
            let clock = post_clock.clone();
            eng.schedule_at(at, move |c: &mut Cluster, eng| {
                let wr = ReadWr::new((lk, off), (rk, off)).len(size).id(i as u64);
                clocked(clock.as_deref(), || c.post(eng, client, qa, wr));
            });
        }
        let handles = Handles {
            client,
            local,
            pattern,
            post_clock,
        };
        (eng, cl, handles)
    }

    fn flush_clocks(&self, tracer: &mut Tracer, h: &Handles) {
        if let Some(clock) = &h.post_clock {
            clock.flush(tracer, "verbs.post");
        }
    }

    fn verify(&self, tr: &mut Option<Tracer>, cl: &mut Cluster, h: Handles) -> Verdict {
        let cfg = &self.cfg;
        let mut v = Verdict {
            attempted: cfg.num_ops as u64,
            ..Verdict::default()
        };
        let mut seen = vec![false; cfg.num_ops];
        let mut last = SimTime::ZERO;
        let comps = timed(tr, "verbs.poll_cq", || cl.poll_cq(h.client));
        if comps.len() != cfg.num_ops {
            v.errors.push(format!(
                "flood: {} completions for {} posted work requests",
                comps.len(),
                cfg.num_ops
            ));
        }
        for c in &comps {
            let idx = c.wr_id.0 as usize;
            let ok = c.status.is_success()
                && c.opcode == WcOpcode::Read
                && c.bytes == cfg.size
                && idx < seen.len()
                && !seen[idx];
            if ok {
                seen[idx] = true;
                last = last.max(c.at);
            }
        }
        v.failed = seen.iter().filter(|&&s| !s).count() as u64;
        if v.failed > 0 {
            v.errors.push(format!(
                "flood: {} work request(s) did not complete successfully with {} bytes",
                v.failed, cfg.size
            ));
        }
        let got = timed(tr, "verify", || {
            cl.mem_read(h.client, h.local.base, h.pattern.len())
        });
        if got != h.pattern {
            v.errors
                .push("flood: read-back bytes differ from the server pattern".to_owned());
        }
        v.exec_ns = last.as_ns();
        v.digest_words = vec![comps.len() as u64];
        v
    }

    fn require(&self, out: &EngineOut) -> Vec<String> {
        if out.qp.responses_discarded == 0 {
            vec!["flood: no READ response was discarded — the pass did not flood".to_owned()]
        } else {
            Vec::new()
        }
    }

    fn fabric_shape(&self) -> FabricShape {
        FabricShape {
            topology: TopologyKind::Crossbar,
            host_link: self.cfg.device.link,
            hosts: 2,
            pairs: vec![(0, 1), (1, 0)],
        }
    }
}

impl Workload for Flood {
    fn pass(&self) -> PassOut {
        engine_pass(self, &mut None, self.default_knobs()).pass
    }

    fn setup_once(&self) -> f64 {
        engine_setup_once(self)
    }

    fn trace(&self) -> TraceOut {
        let EngineTrace {
            plain,
            traced,
            tracer,
            mut layers,
            mut pass,
        } = engine_trace(self, TRIES);

        // Capture on: cost per packet, and the linter over the capture.
        let knobs = Knobs {
            capture: true,
            extras: true,
            ..Knobs::PLAIN
        };
        let cap = side_pass(self, TRIES, knobs, &mut pass, "the capture-on pass");
        layers.set(
            "fabric.capture_ns",
            (cap.pass.run_s - plain.pass.run_s) * 1e9 / cap.pass.packets.max(1) as f64,
        );
        if let Some((records, lint_s)) = cap.lint {
            layers.set(
                "analysis.lint_ns_per_packet",
                lint_s * 1e9 / records.max(1) as f64,
            );
        }

        // Telemetry on: overhead on the run, cost of sync and export.
        let knobs = Knobs {
            telemetry: true,
            extras: true,
            ..Knobs::PLAIN
        };
        let tel = side_pass(self, TRIES, knobs, &mut pass, "the telemetry-on pass");
        layers.set(
            "telemetry.run_overhead",
            tel.pass.run_s / plain.pass.run_s - 1.0,
        );
        if let Some(t) = &tel.telemetry {
            set_telemetry_layers(&mut layers, t);
        }

        // The library's own entry point on the same config: same
        // simulation, and about the same wall time.
        let (lib, lib_s) = fastest(
            TRIES,
            || normalised(|| run_microbench(&self.cfg)),
            |(_, s)| *s,
        );
        layers.set(
            "core.microbench_ratio",
            lib_s / (plain.pass.setup_s + plain.pass.run_s),
        );
        let mine = (
            traced.cluster.total_packets,
            traced.qp.timeouts,
            traced.qp.retransmissions,
            traced.qp.responses_discarded,
            traced.qp.faults_raised,
        );
        // `run_microbench` reports client-side timeouts, retransmissions
        // and discards; on this workload only the client requests, so
        // the server's are zero and the all-host sums must match.
        let theirs = (
            lib.total_packets,
            lib.timeouts,
            lib.retransmissions,
            lib.responses_discarded,
            lib.faults,
        );
        if mine != theirs || !lib.data_ok || lib.errors != 0 {
            pass.errors.push(format!(
                "flood: (packets, timeouts, retransmissions, discards, faults) = {mine:?} \
                 but run_microbench gives {theirs:?} (data_ok={}, errors={})",
                lib.data_ok, lib.errors
            ));
        }
        if lib.execution_time.as_ns() != traced.exec_ns {
            pass.errors.push(format!(
                "flood: execution time {} ns but run_microbench gives {} ns",
                traced.exec_ns,
                lib.execution_time.as_ns()
            ));
        }
        TraceOut {
            pass,
            tracer,
            layers,
        }
    }
}
