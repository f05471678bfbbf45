//! The benchmark runners.

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::LinkSpec;
use ibsim_verbs::{
    Cluster, DeviceProfile, HostId, MrDesc, MrMode, QpConfig, Qpn, ReadWr, RecvWr, SendWr, Sim,
    WrId, WriteWr,
};

use super::stats::LatencyReport;

/// How long past its post one iteration (or a bandwidth run's whole
/// burst) may take before it has stalled; the slowest `ibperf` run takes
/// about 5 s.
const HORIZON: SimTime = SimTime::from_secs(60);

/// Parameters shared by every benchmark, mirroring `perftest` flags.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// RNIC model on both ends (`-d`).
    pub device: DeviceProfile,
    /// Message size in bytes (`-s`).
    pub size: u32,
    /// Measured iterations (`-n`).
    pub iterations: usize,
    /// Warm-up iterations excluded from statistics.
    pub warmup: usize,
    /// Register buffers with ODP (`--odp`).
    pub odp: bool,
    /// Pre-fault ODP pages before measuring (`--odp --use_hugepages`-ish
    /// prefetch; a no-op for pinned buffers).
    pub prefetch: bool,
    /// Seed for fault-latency jitter.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            device: DeviceProfile::connectx4(LinkSpec::fdr()),
            size: 8,
            iterations: 1000,
            warmup: 10,
            odp: false,
            prefetch: false,
            seed: 1,
        }
    }
}

struct Bench {
    eng: Sim,
    cl: Cluster,
    client: HostId,
    server: HostId,
    qp: Qpn,
    server_qp: Qpn,
    local: MrDesc,
    remote: MrDesc,
}

fn setup(cfg: &PerfConfig) -> Bench {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(cfg.seed);
    let client = cl.add_host("client", cfg.device.clone());
    let server = cl.add_host("server", cfg.device.clone());
    let mode = if cfg.odp { MrMode::Odp } else { MrMode::Pinned };
    let span = (cfg.size as u64).max(8) * (cfg.iterations + cfg.warmup).max(1) as u64;
    let span = span.clamp(4096, 64 * 1024 * 1024);
    let remote = cl.alloc_mr(server, span, mode);
    let local = cl.alloc_mr(client, span, mode);
    if cfg.prefetch {
        cl.prefetch_mr(server, remote.key);
        cl.prefetch_mr(client, local.key);
    }
    let (qp, server_qp) = cl.connect_pair(&mut eng, client, server, QpConfig::default());
    Bench {
        eng,
        cl,
        client,
        server,
        qp,
        server_qp,
        local,
        remote,
    }
}

/// Offset used by iteration `i` so iterations touch fresh pages first
/// (exposing ODP's first-touch cost), wrapping inside the region.
fn off(b: &Bench, cfg: &PerfConfig, i: usize) -> u64 {
    (i as u64 * cfg.size.max(8) as u64) % (b.local.len - cfg.size as u64)
}

/// `ib_read_lat`: sequential RDMA READ ping, one at a time.
///
/// # Panics
///
/// Panics if an iteration's READ does not complete successfully, or
/// its world stalls.
pub fn read_lat(cfg: &PerfConfig) -> LatencyReport {
    let mut b = setup(cfg);
    let mut samples = Vec::with_capacity(cfg.iterations);
    for i in 0..cfg.warmup + cfg.iterations {
        let o = off(&b, cfg, i);
        let start = b.eng.now();
        b.cl.post(
            &mut b.eng,
            b.client,
            b.qp,
            ReadWr::new((b.local.key, o), (b.remote.key, o))
                .len(cfg.size)
                .id(i as u64),
        );
        b.eng
            .run(&mut b.cl, b.eng.now() + HORIZON)
            .unwrap_or_else(|s| panic!("perftest {s}"));
        let cq = b.cl.poll_cq(b.client);
        assert_eq!(cq.len(), 1, "iteration completes");
        assert!(
            cq[0].status.is_success(),
            "read_lat failed: {}",
            cq[0].status
        );
        if i >= cfg.warmup {
            samples.push(cq[0].at - start);
        }
    }
    LatencyReport::from_samples(samples)
}

/// `ib_send_lat`: two-sided ping (SEND + pre-posted receives).
///
/// # Panics
///
/// Panics if an iteration's SEND or its receive does not complete
/// successfully, or its world stalls.
pub fn send_lat(cfg: &PerfConfig) -> LatencyReport {
    let mut b = setup(cfg);
    let mut samples = Vec::with_capacity(cfg.iterations);
    for i in 0..cfg.warmup + cfg.iterations {
        let o = off(&b, cfg, i);
        b.cl.post_recv(
            b.server,
            b.server_qp,
            RecvWr {
                id: WrId(1_000_000 + i as u64),
                mr: b.remote.key,
                offset: o,
                max_len: cfg.size,
            },
        );
        let start = b.eng.now();
        b.cl.post(
            &mut b.eng,
            b.client,
            b.qp,
            SendWr::new((b.local.key, o)).len(cfg.size).id(i as u64),
        );
        b.eng
            .run(&mut b.cl, b.eng.now() + HORIZON)
            .unwrap_or_else(|s| panic!("perftest {s}"));
        let cq = b.cl.poll_cq(b.client);
        assert!(
            cq[0].status.is_success(),
            "send_lat failed: {}",
            cq[0].status
        );
        let cq_s = b.cl.poll_cq(b.server);
        assert_eq!(cq_s.len(), 1, "receive completed");
        if i >= cfg.warmup {
            samples.push(cq[0].at - start);
        }
    }
    LatencyReport::from_samples(samples)
}

/// Bandwidth summary, like `perftest`'s `BW average` line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwReport {
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall time of the measured phase.
    pub elapsed: SimTime,
    /// Messages completed.
    pub messages: u64,
}

impl BwReport {
    /// Average bandwidth in MiB/s.
    pub fn mib_per_sec(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0) / self.elapsed.as_secs_f64()
    }

    /// Message rate in million messages per second.
    pub fn mpps(&self) -> f64 {
        self.messages as f64 / 1e6 / self.elapsed.as_secs_f64()
    }
}

fn bw_run(cfg: &PerfConfig, write: bool) -> BwReport {
    let mut b = setup(cfg);
    let total = cfg.warmup + cfg.iterations;
    // Post everything up front; max_rd_atomic and the SQ pace the wire
    // like a real tx depth.
    for i in 0..total {
        let o = off(&b, cfg, i);
        if write {
            b.cl.post(
                &mut b.eng,
                b.client,
                b.qp,
                WriteWr::new((b.local.key, o), (b.remote.key, o))
                    .len(cfg.size)
                    .id(i as u64),
            );
        } else {
            b.cl.post(
                &mut b.eng,
                b.client,
                b.qp,
                ReadWr::new((b.local.key, o), (b.remote.key, o))
                    .len(cfg.size)
                    .id(i as u64),
            );
        }
    }
    b.eng
        .run(&mut b.cl, b.eng.now() + HORIZON)
        .unwrap_or_else(|s| panic!("perftest {s}"));
    let cq = b.cl.poll_cq(b.client);
    assert_eq!(cq.len(), total, "all iterations complete");
    let mut first = SimTime::MAX;
    let mut last = SimTime::ZERO;
    let mut measured = 0u64;
    for c in &cq {
        assert!(c.status.is_success(), "bw op failed: {}", c.status);
        if (c.wr_id.0 as usize) >= cfg.warmup {
            first = first.min(c.at);
            last = last.max(c.at);
            measured += 1;
        }
    }
    BwReport {
        bytes: measured * cfg.size as u64,
        elapsed: (last - first).max(SimTime::from_ns(1)),
        messages: measured,
    }
}

/// `ib_read_bw`: pipelined RDMA READ bandwidth.
pub fn read_bw(cfg: &PerfConfig) -> BwReport {
    bw_run(cfg, false)
}

/// `ib_write_bw`: pipelined RDMA WRITE bandwidth.
pub fn write_bw(cfg: &PerfConfig) -> BwReport {
    bw_run(cfg, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(odp: bool) -> PerfConfig {
        PerfConfig {
            iterations: 64,
            warmup: 4,
            odp,
            ..PerfConfig::default()
        }
    }

    #[test]
    fn pinned_read_latency_is_microseconds() {
        let r = read_lat(&quick(false));
        assert!(r.avg.as_us_f64() < 10.0, "{r}");
        assert!(r.min <= r.median && r.median <= r.max);
    }

    #[test]
    fn odp_read_latency_shows_fault_tail() {
        // 4 KiB messages so iterations keep touching cold pages: the tail
        // carries the RNR-path fault cost, the floor stays near wire.
        let cfg = PerfConfig {
            size: 4096,
            ..quick(true)
        };
        let r = read_lat(&cfg);
        assert!(
            r.max.as_ms_f64() > 1.0,
            "faulting iterations pay the RNR wait: {r}"
        );
        let pinned = read_lat(&PerfConfig {
            size: 4096,
            ..quick(false)
        });
        assert!(r.avg > pinned.avg * 10, "odp {r} vs pinned {pinned}");
    }

    #[test]
    fn prefetched_odp_matches_pinned() {
        let cfg = PerfConfig {
            size: 4096,
            prefetch: true,
            ..quick(true)
        };
        let odp = read_lat(&cfg);
        let pinned = read_lat(&PerfConfig {
            size: 4096,
            ..quick(false)
        });
        assert_eq!(odp.avg, pinned.avg, "prefetch hides every fault");
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let small = read_bw(&PerfConfig {
            size: 64,
            ..quick(false)
        });
        let large = read_bw(&PerfConfig {
            size: 65536,
            ..quick(false)
        });
        assert!(
            large.mib_per_sec() > small.mib_per_sec() * 10.0,
            "{} vs {}",
            large.mib_per_sec(),
            small.mib_per_sec()
        );
        // FDR is 56 Gb/s ≈ 6.7 GiB/s: the large-message run should get
        // within an order of magnitude of line rate.
        assert!(large.mib_per_sec() > 1000.0, "{}", large.mib_per_sec());
        assert!(large.mib_per_sec() < 7000.0, "{}", large.mib_per_sec());
    }

    #[test]
    fn write_bw_and_read_bw_are_same_order() {
        let r = read_bw(&PerfConfig {
            size: 16384,
            ..quick(false)
        });
        let w = write_bw(&PerfConfig {
            size: 16384,
            ..quick(false)
        });
        let ratio = w.mib_per_sec() / r.mib_per_sec();
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn send_latency_close_to_read_latency() {
        let s = send_lat(&quick(false));
        let r = read_lat(&quick(false));
        let ratio = s.avg.as_us_f64() / r.avg.as_us_f64();
        assert!((0.3..3.0).contains(&ratio), "send {s} vs read {r}");
    }
}
