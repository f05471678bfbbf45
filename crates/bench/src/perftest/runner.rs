//! The benchmark runners: each builds one [`Scenario`] cell and runs it
//! through the scenario executor.

use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;
use ibsim_scenario::{run_scenario_with, Prefetch, RunOptions, Scenario, WrSpec};
use ibsim_verbs::{Completion, DeviceProfile};

use super::stats::LatencyReport;

/// How far apart a latency cell posts its iterations, so how long one
/// may take before it has stalled; the slowest `ibperf` iteration takes
/// about 5.5 ms.
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

/// The four `perftest` benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfTest {
    /// `ib_read_lat`.
    ReadLat,
    /// `ib_send_lat`.
    SendLat,
    /// `ib_read_bw`.
    ReadBw,
    /// `ib_write_bw`.
    WriteBw,
}

impl PerfConfig {
    /// The world `test` runs: `warmup + iterations` requests of `size`
    /// bytes on one QP, in id order. Request `i` sits `i` messages into
    /// the region, wrapping, so iterations touch fresh pages first
    /// (exposing ODP's first-touch cost). A latency test posts its
    /// requests a minute apart, one alone in the world at a time; a
    /// bandwidth test posts them all at once, and `max_rd_atomic` and the
    /// SQ pace the wire like a real tx depth.
    pub fn cell(&self, test: PerfTest) -> Scenario {
        let step = u64::from(self.size.max(8));
        let total = self.warmup + self.iterations;
        let span = (step * total.max(1) as u64).clamp(4096, 64 * 1024 * 1024);
        let memory = match (self.odp, self.prefetch) {
            (false, _) => "pinned",
            (true, false) => "odp",
            (true, true) => "odp+prefetch",
        };
        let mut sc = Scenario::base(&format!("{test:?}-{}B-{memory}", self.size));
        (sc.seed, sc.device, sc.slot) = (self.seed, self.device.clone(), span);
        (sc.client_odp, sc.server_odp) = (self.odp, self.odp);
        if self.prefetch {
            sc.prefetch = Prefetch::All;
        }
        sc.post_interval_ns = match test {
            PerfTest::ReadLat | PerfTest::SendLat => HORIZON.as_ns(),
            PerfTest::ReadBw | PerfTest::WriteBw => 0,
        };
        let len = self.size;
        sc.wrs = (0..total as u64)
            .map(|i| {
                let off = i * step % (span - u64::from(len));
                let wr = match test {
                    PerfTest::ReadLat | PerfTest::ReadBw => WrSpec::Read { off, len },
                    PerfTest::SendLat => WrSpec::Send { off, len },
                    PerfTest::WriteBw => WrSpec::Write { off, len },
                };
                (0, wr)
            })
            .collect();
        sc
    }
}

/// Each request's latency in a cell that posts them one at a time, in
/// id order: its completion time less its post time.
///
/// # Panics
///
/// Panics if a request fails, completes at or after the next post, or
/// never completes.
pub fn latencies(sc: &Scenario, comps: &[Completion]) -> Vec<SimTime> {
    let samples: Vec<SimTime> = comps
        .iter()
        .map(|c| {
            let i = c.wr_id.0 as usize;
            assert!(c.status.is_success(), "iteration {i} failed: {}", c.status);
            let next = sc.post_time(i + 1);
            assert!(
                c.at < next,
                "iteration {i} stalled past the next post at {next}"
            );
            c.at - sc.post_time(i)
        })
        .collect();
    assert_eq!(samples.len(), sc.wrs.len(), "every iteration completes");
    samples
}

/// The report on a latency cell's measured iterations.
fn latency_report(cfg: &PerfConfig, sc: &Scenario, comps: &[Completion]) -> LatencyReport {
    LatencyReport::from_samples(latencies(sc, comps).split_off(cfg.warmup))
}

/// `ib_read_lat`: sequential RDMA READ ping, one at a time.
///
/// # Panics
///
/// Panics if an iteration's READ does not complete successfully before
/// the next post.
pub fn read_lat(cfg: &PerfConfig) -> LatencyReport {
    let sc = cfg.cell(PerfTest::ReadLat);
    let run = run_scenario_with(&sc, RunOptions::BARE);
    latency_report(cfg, &sc, &run.client_comps[0])
}

/// `ib_send_lat`: two-sided ping (SEND + pre-posted receives).
///
/// # Panics
///
/// Panics if an iteration's SEND does not complete successfully before
/// the next post, or one of its receives does not complete successfully.
pub fn send_lat(cfg: &PerfConfig) -> LatencyReport {
    let sc = cfg.cell(PerfTest::SendLat);
    let run = run_scenario_with(&sc, RunOptions::BARE);
    let recvs = &run.server_comps[0];
    assert_eq!(recvs.len(), sc.wrs.len(), "every receive completes");
    assert!(recvs.iter().all(|c| c.status.is_success()), "{recvs:?}");
    latency_report(cfg, &sc, &run.client_comps[0])
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

fn bw_run(cfg: &PerfConfig, test: PerfTest) -> BwReport {
    let sc = cfg.cell(test);
    let run = run_scenario_with(&sc, RunOptions::BARE);
    let cq = &run.client_comps[0];
    assert_eq!(cq.len(), sc.wrs.len(), "all iterations complete");
    let mut first = SimTime::MAX;
    let mut last = SimTime::ZERO;
    let mut measured = 0u64;
    for c in cq {
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
    bw_run(cfg, PerfTest::ReadBw)
}

/// `ib_write_bw`: pipelined RDMA WRITE bandwidth.
pub fn write_bw(cfg: &PerfConfig) -> BwReport {
    bw_run(cfg, PerfTest::WriteBw)
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
