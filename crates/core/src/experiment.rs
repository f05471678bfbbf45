//! Figure-level experiment runners.
//!
//! Each function regenerates the data behind one figure of the paper's
//! evaluation; the `ibsim-bench` binaries format the results as the rows
//! and series the paper reports. Everything here is plain library code so
//! experiments are unit-testable at reduced scale.

use ibsim_event::{Engine, SimTime};
use ibsim_fabric::Lid;
use ibsim_verbs::{Cluster, MrMode, QpConfig, ReadWr, WcStatus};

use crate::microbench::{
    average_execution, run_microbench, timeout_probability, MicrobenchConfig, OdpMode,
};
use crate::systems::SystemProfile;

/// One measured point of Fig. 2: actual time-to-timeout vs `C_ack`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    /// Requested Local ACK Timeout field.
    pub cack: u8,
    /// Measured `T_o = t / (C_retry + 1)`.
    pub t_o: SimTime,
}

/// Measures `T_o` on one system for each `C_ack`, with the paper's §IV-B
/// methodology: mis-address a QP, post one READ, wait for
/// `IBV_WC_RETRY_EXC_ERR`, and divide the elapsed time by
/// `C_retry + 1 = 8`.
pub fn fig2_curve(sys: &SystemProfile, cacks: impl Iterator<Item = u8>) -> Vec<Fig2Point> {
    cacks
        .map(|cack| {
            let mut eng = Engine::new();
            let mut cl = Cluster::new(2);
            let a = cl.add_host("client", sys.device.clone());
            let b = cl.add_host("server", sys.device.clone());
            let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
            let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
            let cfg = QpConfig {
                cack,
                retry_count: 7,
                ..QpConfig::default()
            };
            let (qa, qb) = cl.connect_pair(&mut eng, a, b, cfg);
            cl.connect_to_lid(a, qa, Lid(0xFFF), qb);
            cl.post(
                &mut eng,
                a,
                qa,
                ReadWr::new(local.key, remote.key).len(100).id(1),
            );
            eng.run(&mut cl);
            let cq = cl.poll_cq(a);
            assert_eq!(cq[0].status, WcStatus::RetryExcErr, "{}", sys.name);
            Fig2Point {
                cack,
                t_o: cq[0].at / 8,
            }
        })
        .collect()
}

/// One point of Fig. 4: mean execution time of the two-READ benchmark at
/// a given interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Interval between the two READs.
    pub interval: SimTime,
    /// Mean execution time over the trials.
    pub mean_execution: SimTime,
}

/// Fig. 4: two READs, both-side ODP, minimal RNR NAK delay 1.28 ms,
/// averaging `trials` seeds per interval.
pub fn fig4_series(intervals: &[SimTime], trials: u64) -> Vec<Fig4Point> {
    intervals
        .iter()
        .map(|&interval| {
            let cfg = MicrobenchConfig {
                interval,
                ..Default::default()
            };
            Fig4Point {
                interval,
                mean_execution: average_execution(&cfg, trials),
            }
        })
        .collect()
}

/// One probability-of-timeout series (Figs. 6 and 7).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutSeries {
    /// Legend label (RNR delay for Fig. 6, op count for Fig. 7).
    pub label: String,
    /// `(interval, probability)` points.
    pub points: Vec<(SimTime, f64)>,
}

/// Fig. 6a/6b: probability of timeout vs interval for two READs, one
/// series per minimal RNR NAK delay, in the given ODP side.
pub fn fig6_series(
    odp: OdpMode,
    rnr_delays: &[SimTime],
    intervals: &[SimTime],
    trials: u64,
) -> Vec<TimeoutSeries> {
    rnr_delays
        .iter()
        .map(|&delay| TimeoutSeries {
            label: format!("{:.2} [ms]", delay.as_ms_f64()),
            points: intervals
                .iter()
                .map(|&interval| {
                    let cfg = MicrobenchConfig {
                        interval,
                        odp,
                        min_rnr_delay: delay,
                        ..Default::default()
                    };
                    (interval, timeout_probability(&cfg, trials))
                })
                .collect(),
        })
        .collect()
}

/// Fig. 7: probability of timeout vs interval with 2–4 READ operations,
/// both-side ODP, minimal RNR NAK delay 1.28 ms.
pub fn fig7_series(op_counts: &[usize], intervals: &[SimTime], trials: u64) -> Vec<TimeoutSeries> {
    op_counts
        .iter()
        .map(|&num_ops| TimeoutSeries {
            label: format!("{num_ops} operations"),
            points: intervals
                .iter()
                .map(|&interval| {
                    let cfg = MicrobenchConfig {
                        interval,
                        num_ops,
                        ..Default::default()
                    };
                    (interval, timeout_probability(&cfg, trials))
                })
                .collect(),
        })
        .collect()
}

/// One point of Fig. 9: a QP count × ODP mode cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Point {
    /// Number of QPs.
    pub qps: usize,
    /// ODP mode.
    pub mode: OdpMode,
    /// Execution time of the benchmark.
    pub execution: SimTime,
    /// Total packets observed (Fig. 9b).
    pub packets: u64,
    /// Failed operations (retry exceeded), excluded from timing like the
    /// paper's omitted samples.
    pub errors: usize,
}

/// Fig. 9: `num_ops` READs of `size` bytes over a varying number of QPs,
/// for every ODP mode. The paper fixes 8192 ops × 100 B (200 pages) with
/// `C_ack = 18`; tests run reduced scales.
pub fn fig9_points(qp_counts: &[usize], num_ops: usize, size: u32) -> Vec<Fig9Point> {
    let mut out = Vec::new();
    for &qps in qp_counts {
        for mode in OdpMode::ALL {
            let cfg = MicrobenchConfig {
                size,
                num_ops,
                num_qps: qps,
                odp: mode,
                cack: 18,
                ..Default::default()
            };
            let run = run_microbench(&cfg);
            out.push(Fig9Point {
                qps,
                mode,
                execution: run.execution_time,
                packets: run.total_packets,
                errors: run.errors,
            });
        }
    }
    out
}

/// One per-page completion curve of Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Curve {
    /// Buffer page index.
    pub page: usize,
    /// Sorted completion times of the ops on that page.
    pub completions: Vec<SimTime>,
}

/// Fig. 11: completions per page over time. 128 QPs, 32-byte messages,
/// client-side ODP; the paper plots 128 and 512 operations.
pub fn fig11_curves(num_ops: usize, num_qps: usize) -> Vec<Fig11Curve> {
    let cfg = MicrobenchConfig {
        size: 32,
        num_ops,
        num_qps,
        odp: OdpMode::ClientSide,
        cack: 18,
        ..Default::default()
    };
    let run = run_microbench(&cfg);
    run.completions_per_page(&cfg)
        .into_iter()
        .enumerate()
        .map(|(page, completions)| Fig11Curve { page, completions })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_flat_below_floor_then_doubles() {
        let knl = SystemProfile::knl();
        let pts = fig2_curve(&knl, [1u8, 8, 16, 17].into_iter());
        // Below the floor (c0=16) everything measures the same.
        assert_eq!(pts[0].t_o, pts[1].t_o);
        assert_eq!(pts[1].t_o, pts[2].t_o);
        // One step above the floor doubles.
        let ratio = pts[3].t_o.as_ns() as f64 / pts[2].t_o.as_ns() as f64;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        // The floor is ~500 ms on ConnectX-4 (Fig. 2).
        assert!(pts[0].t_o >= SimTime::from_ms(400));
    }

    #[test]
    fn fig2_connectx5_floor_is_lower() {
        let hc = SystemProfile::azure_hc();
        let pts = fig2_curve(&hc, [1u8].into_iter());
        assert!(
            pts[0].t_o < SimTime::from_ms(60),
            "ConnectX-5 floor {}",
            pts[0].t_o
        );
    }

    #[test]
    fn fig4_shows_the_damming_plateau() {
        let pts = fig4_series(&[SimTime::from_ms(1), SimTime::from_ms(6)], 2);
        assert!(pts[0].mean_execution >= SimTime::from_ms(300));
        assert!(pts[1].mean_execution < SimTime::from_ms(30));
    }

    #[test]
    fn fig6_window_tracks_rnr_delay() {
        let series = fig6_series(
            OdpMode::ServerSide,
            &[SimTime::from_us(10), SimTime::from_ms_f64(1.28)],
            &[SimTime::from_ms(1)],
            3,
        );
        // 1 ms interval: outside the 10 µs-delay window, inside the
        // 1.28 ms-delay window.
        assert_eq!(series[0].points[0].1, 0.0, "small delay: no timeout");
        assert_eq!(series[1].points[0].1, 1.0, "large delay: timeout");
    }

    #[test]
    fn fig7_more_ops_narrow_the_window() {
        // At a 2 ms interval: 2 ops still dam (2 < 4.5 ms window), but
        // with 4 ops the fourth lands outside and rescues via NAK-seq.
        let series = fig7_series(&[2, 4], &[SimTime::from_ms(2)], 3);
        assert_eq!(series[0].points[0].1, 1.0, "2 ops time out");
        assert_eq!(series[1].points[0].1, 0.0, "4 ops are rescued");
    }

    #[test]
    fn fig9_flood_appears_beyond_resume_slots() {
        // One op per QP isolates the flood from client-side damming: the
        // per-QP page-status staleness is the only slowdown mechanism.
        let run_at = |qps: usize, mode: OdpMode| {
            crate::microbench::run_microbench(&MicrobenchConfig {
                size: 32,
                num_ops: qps,
                num_qps: qps,
                odp: mode,
                cack: 18,
                ..Default::default()
            })
        };
        let small = run_at(4, OdpMode::ClientSide);
        let large = run_at(64, OdpMode::ClientSide);
        assert!(
            large.execution_time > small.execution_time * 2,
            "flood slows execution: {} vs {}",
            large.execution_time,
            small.execution_time
        );
        assert!(
            large.total_packets > small.total_packets * 4,
            "flood multiplies packets: {} vs {}",
            large.total_packets,
            small.total_packets
        );
        let baseline = run_at(64, OdpMode::None);
        assert!(baseline.execution_time < SimTime::from_ms(5));
        assert_eq!(baseline.errors, 0);
    }

    #[test]
    fn fig11_completions_cover_all_pages() {
        let curves = fig11_curves(256, 64);
        assert_eq!(curves.len(), 2, "256 ops × 32 B = 2 pages");
        let total: usize = curves.iter().map(|c| c.completions.len()).sum();
        assert_eq!(total, 256);
        // Completions within a page are sorted.
        for c in &curves {
            assert!(c.completions.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
