//! The ODP sides of the Fig. 3 loop, and a wrapper kept for one caller.
//!
//! Every figure builds its world with [`Scenario::fig3_loop`] and runs it
//! through the scenario executor. [`MicrobenchConfig`] and
//! [`run_microbench`] remain only because the repository benchmark's
//! `flood` workload (`benchmark/src/workloads/flood.rs`) names them: it
//! builds the Fig. 3 world by hand and checks that this one — the
//! executor's — simulates it exactly. They go when that workload moves
//! onto [`Scenario::fig3_loop`].

use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;
use ibsim_scenario::{run_scenario_with, RunOptions, Scenario, POST_OVERHEAD_NS};
use ibsim_verbs::{DeviceProfile, RecoveryKind};

/// Which side(s) register their buffers with On-Demand Paging (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OdpMode {
    /// No ODP: both buffers pinned (the baseline).
    None,
    /// Only the server (responder) buffer uses ODP.
    ServerSide,
    /// Only the client (requester) buffer uses ODP.
    ClientSide,
    /// Both buffers use ODP.
    BothSide,
}

impl OdpMode {
    /// All four modes in Fig. 9's legend order.
    pub const ALL: [OdpMode; 4] = [
        OdpMode::None,
        OdpMode::ServerSide,
        OdpMode::ClientSide,
        OdpMode::BothSide,
    ];

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            OdpMode::None => "No ODP",
            OdpMode::ServerSide => "Server-side ODP",
            OdpMode::ClientSide => "Client-side ODP",
            OdpMode::BothSide => "Both-side ODP",
        }
    }

    /// Registers `sc`'s regions on these sides with ODP, the others
    /// pinned.
    pub fn apply(self, sc: &mut Scenario) {
        (sc.client_odp, sc.server_odp) = match self {
            OdpMode::None => (false, false),
            OdpMode::ServerSide => (false, true),
            OdpMode::ClientSide => (true, false),
            OdpMode::BothSide => (true, true),
        };
    }
}

/// The Fig. 3 loop's parameters, as `flood` sets them.
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// RNIC model on both hosts.
    pub device: DeviceProfile,
    /// Message size per READ.
    pub size: u32,
    /// Number of READ operations.
    pub num_ops: usize,
    /// Number of queue pairs; ops are assigned round-robin.
    pub num_qps: usize,
    /// Sleep between consecutive posts (`usleep(interval)`).
    pub interval: SimTime,
    /// CPU cost of one iteration of the loop.
    pub post_overhead: SimTime,
    /// ODP sides.
    pub odp: OdpMode,
    /// Minimal RNR NAK delay advertised by the responder.
    pub min_rnr_delay: SimTime,
    /// Local ACK Timeout field (`C_ack`).
    pub cack: u8,
    /// Transport retry budget (`C_retry`).
    pub retry_count: u8,
    /// Seed for fault-latency jitter.
    pub seed: u64,
    /// Loss-recovery backend on every QP.
    pub recovery: RecoveryKind,
}

impl Default for MicrobenchConfig {
    /// [`Scenario::fig3_loop`]'s defaults for two READs on one QP.
    fn default() -> Self {
        MicrobenchConfig {
            device: DeviceProfile::connectx4(LinkSpec::fdr()),
            size: 100,
            num_ops: 2,
            num_qps: 1,
            interval: SimTime::ZERO,
            post_overhead: SimTime::from_ns(POST_OVERHEAD_NS),
            odp: OdpMode::BothSide,
            min_rnr_delay: SimTime::from_us(1_280),
            cack: 1,
            retry_count: 7,
            seed: 1,
            recovery: RecoveryKind::GoBackN,
        }
    }
}

/// What `flood` reads of one run.
#[derive(Debug)]
pub struct MicrobenchRun {
    /// Time of the last successful completion.
    pub execution_time: SimTime,
    /// Transport timeouts that fired on the client.
    pub timeouts: u64,
    /// Request retransmissions from the client.
    pub retransmissions: u64,
    /// READ responses discarded by client-side ODP.
    pub responses_discarded: u64,
    /// Network page faults (both sides).
    pub faults: u64,
    /// Every packet submitted.
    pub total_packets: u64,
    /// Ops that completed with an error status.
    pub errors: usize,
    /// True if every successful READ returned the server's bytes.
    pub data_ok: bool,
}

/// Runs `cfg` as a [`Scenario::fig3_loop`] through the scenario executor,
/// capture and telemetry off.
pub fn run_microbench(cfg: &MicrobenchConfig) -> MicrobenchRun {
    let mut sc = Scenario::fig3_loop(cfg.num_ops, cfg.num_qps, cfg.size, SimTime::ZERO);
    sc.post_interval_ns = (cfg.interval + cfg.post_overhead).as_ns();
    sc.device = cfg.device.clone();
    cfg.odp.apply(&mut sc);
    (sc.min_rnr_delay_ns, sc.cack) = (cfg.min_rnr_delay.as_ns(), cfg.cack);
    (sc.retry_count, sc.seed, sc.recovery) = (cfg.retry_count, cfg.seed, cfg.recovery);
    let run = run_scenario_with(&sc, RunOptions::BARE);
    let size = cfg.size as usize;
    let data_ok = run.client_comps.iter().flatten().all(|c| {
        let at = c.wr_id.0 as usize * size;
        !c.status.is_success() || run.client_mem[at..at + size] == run.server_mem[at..at + size]
    });
    let (c, s) = (&run.client_stats, &run.server_stats);
    MicrobenchRun {
        execution_time: run.execution_time(),
        timeouts: c.timeouts,
        retransmissions: c.retransmissions,
        responses_discarded: c.responses_discarded,
        faults: c.faults_raised + s.faults_raised,
        total_packets: run.total_packets,
        errors: run.errors(),
        data_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_verbs::PAGE_SIZE;

    /// Runs `cfg` under `trials` seeds drawn from its own.
    fn trials(cfg: &MicrobenchConfig, trials: u64) -> Vec<MicrobenchRun> {
        let seeds = (0..trials).map(|t| cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(t + 1));
        let runs = seeds.map(|seed| {
            run_microbench(&MicrobenchConfig {
                seed,
                ..cfg.clone()
            })
        });
        runs.collect()
    }

    /// Buffer pages a Fig. 3 loop of `ops` messages of `size` bytes spans.
    fn pages(ops: usize, size: u32) -> u64 {
        let sc = Scenario::fig3_loop(ops, 1, size, SimTime::ZERO);
        sc.region_len().div_ceil(PAGE_SIZE)
    }

    #[test]
    fn page_layout_matches_fig10() {
        // 128 ops of 32 B fill exactly one 4096-byte page.
        assert_eq!(pages(128, 32), 1);
        assert_eq!(pages(129, 32), 2);
        assert_eq!(pages(512, 32), 4);
    }

    #[test]
    fn fig9_parameters_span_200_pages() {
        // "8192 operations and size of communication at 100 bytes with
        // 200 pages involved" (Fig. 9 caption).
        assert_eq!(pages(8192, 100), 200);
    }

    #[test]
    fn baseline_run_is_fast_and_correct() {
        let run = run_microbench(&MicrobenchConfig {
            odp: OdpMode::None,
            num_ops: 8,
            ..Default::default()
        });
        assert_eq!(run.timeouts, 0);
        assert_eq!(run.errors, 0);
        assert!(run.data_ok);
        assert!(run.execution_time < SimTime::from_us(100));
    }

    #[test]
    fn both_side_odp_two_reads_at_1ms_interval_dams() {
        // The headline §V-A result: two READs, 1 ms apart, both-side ODP
        // → several hundred milliseconds.
        let run = run_microbench(&MicrobenchConfig {
            interval: SimTime::from_ms(1),
            ..Default::default()
        });
        assert!(run.timeouts > 0);
        assert!(run.execution_time >= SimTime::from_ms(400));
        assert!(run.data_ok);
    }

    #[test]
    fn probability_is_zero_outside_window() {
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(6),
            ..Default::default()
        };
        assert!(trials(&cfg, 5).iter().all(|r| r.timeouts == 0));
    }

    #[test]
    fn probability_is_one_inside_window() {
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(1),
            ..Default::default()
        };
        assert!(trials(&cfg, 5).iter().all(|r| r.timeouts > 0));
    }

    #[test]
    fn average_execution_reflects_damming() {
        let total = |interval| {
            let cfg = MicrobenchConfig {
                interval,
                ..Default::default()
            };
            let runs = trials(&cfg, 3);
            runs.iter().map(|r| r.execution_time).sum::<SimTime>()
        };
        let (t_fast, t_slow) = (total(SimTime::from_ms(6)), total(SimTime::from_ms(1)));
        assert!(
            t_slow > t_fast * 10,
            "damming dominates: {t_slow} vs {t_fast}"
        );
    }
}
