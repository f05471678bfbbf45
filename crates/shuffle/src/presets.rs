//! Workload presets shaped like the paper's Fig. 13 cells: three Spark
//! examples (SparkTC, mllib.RecommendationExample,
//! mllib.RankingMetricsExample) on four cluster configurations.
//!
//! Absolute durations are scaled down ~100× from the paper's wall-clock
//! seconds (the paper runs full Spark jobs; we simulate one representative
//! shuffle round plus the setup compute), so the comparisons to make are
//! the *ratios* and the *QP counts*, both of which match Fig. 13.
//! `fetch_stagger` encodes how bursty each system issues its fetches —
//! the "timing issue" §VII-B blames for the per-system spread — and is
//! calibrated per cell.

use ibsim_event::SimTime;
use ibsim_verbs::DeviceProfile;

use crate::config::ShuffleConfig;

/// The Spark examples the paper runs (§VII-B), all join-heavy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparkExample {
    /// SparkTC: transitive closure — many tiny shuffle records.
    SparkTc,
    /// mllib.RecommendationExample (ALS).
    Recommendation,
    /// mllib.RankingMetricsExample.
    RankingMetrics,
}

impl SparkExample {
    /// All three, in Fig. 13 order.
    pub const ALL: [SparkExample; 3] = [
        SparkExample::SparkTc,
        SparkExample::Recommendation,
        SparkExample::RankingMetrics,
    ];

    /// Display name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            SparkExample::SparkTc => "SparkTC",
            SparkExample::Recommendation => "mllib.RecommendationExample",
            SparkExample::RankingMetrics => "mllib.RankingMetricsExample",
        }
    }
}

/// The cluster configurations of Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig13Cluster {
    /// KNL, 2 nodes (ConnectX-4 FDR).
    Knl2,
    /// Reedbush-H, 2 nodes (ConnectX-4 FDR).
    ReedbushH2,
    /// ABCI, 2 nodes (ConnectX-4 EDR).
    Abci2,
    /// ABCI, 4 nodes (ConnectX-4 EDR).
    Abci4,
}

impl Fig13Cluster {
    /// All four, in Fig. 13 order.
    pub const ALL: [Fig13Cluster; 4] = [
        Fig13Cluster::Knl2,
        Fig13Cluster::ReedbushH2,
        Fig13Cluster::Abci2,
        Fig13Cluster::Abci4,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Fig13Cluster::Knl2 => "KNL (2)",
            Fig13Cluster::ReedbushH2 => "Reedbush-H (2)",
            Fig13Cluster::Abci2 => "ABCI (2)",
            Fig13Cluster::Abci4 => "ABCI (4)",
        }
    }

    /// Number of worker machines.
    pub fn workers(self) -> usize {
        match self {
            Fig13Cluster::Abci4 => 4,
            Fig13Cluster::Knl2 | Fig13Cluster::ReedbushH2 | Fig13Cluster::Abci2 => 2,
        }
    }

    fn device(self) -> DeviceProfile {
        match self {
            Fig13Cluster::Knl2 | Fig13Cluster::ReedbushH2 => {
                DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr())
            }
            Fig13Cluster::Abci2 | Fig13Cluster::Abci4 => {
                DeviceProfile::connectx4(ibsim_fabric::LinkSpec::edr())
            }
        }
    }
}

/// One Fig. 13 cell: the paper's reference numbers plus the simulator
/// configuration that reproduces its shape.
#[derive(Debug, Clone)]
pub struct Fig13Cell {
    /// Cluster configuration.
    pub cluster: Fig13Cluster,
    /// Spark example.
    pub example: SparkExample,
    /// QPs the paper reports for this cell.
    pub paper_qps: usize,
    /// Paper's mean duration with ODP disabled (seconds).
    pub paper_disabled_s: f64,
    /// Paper's mean duration with ODP enabled (seconds).
    pub paper_enabled_s: f64,
}

impl Fig13Cell {
    /// Paper's enabled/disabled ratio.
    pub fn paper_ratio(&self) -> f64 {
        self.paper_enabled_s / self.paper_disabled_s
    }

    /// Builds the simulator configuration for this cell.
    pub fn config(&self, odp: bool, seed: u64) -> ShuffleConfig {
        let workers = self.cluster.workers();
        // Endpoints per unordered pair so that total QPs ≈ the paper's.
        let pairs = workers * (workers - 1) / 2;
        let endpoints_per_pair = (self.paper_qps / (pairs * 2)).max(1);
        let (block_bytes, tasks) = match self.example {
            // SparkTC shuffles many tiny records.
            SparkExample::SparkTc => (256, 32),
            SparkExample::Recommendation => (1024, 24),
            SparkExample::RankingMetrics => (512, 28),
        };
        // How bursty the system issues shuffle fetches: fast, lightly
        // loaded executors (ABCI) spread their READs out; over-subscribed
        // KNL/Reedbush executors fire them in tight bursts. Calibrated per
        // cell — §VII-B: "the degree of performance degradation with ODP
        // differs from each system and each example because packet flood
        // is intimately related to the timing issue".
        // (stagger µs, fetch parallelism) per cell, chosen with the
        // `calib13` sweep.
        let (stagger_us, par) = match (self.cluster, self.example) {
            (Fig13Cluster::Knl2, SparkExample::SparkTc) => (400, 6),
            (Fig13Cluster::Knl2, SparkExample::Recommendation) => (900, 2),
            (Fig13Cluster::Knl2, SparkExample::RankingMetrics) => (400, 5),
            (Fig13Cluster::ReedbushH2, SparkExample::SparkTc) => (60, 4),
            (Fig13Cluster::ReedbushH2, SparkExample::Recommendation) => (60, 6),
            (Fig13Cluster::ReedbushH2, SparkExample::RankingMetrics) => (70, 6),
            (Fig13Cluster::Abci2, SparkExample::SparkTc) => (900, 6),
            (Fig13Cluster::Abci2, SparkExample::Recommendation) => (700, 6),
            (Fig13Cluster::Abci2, SparkExample::RankingMetrics) => (600, 6),
            (Fig13Cluster::Abci4, SparkExample::SparkTc) => (60, 6),
            (Fig13Cluster::Abci4, SparkExample::Recommendation) => (250, 6),
            (Fig13Cluster::Abci4, SparkExample::RankingMetrics) => (50, 6),
        };
        ShuffleConfig {
            workers,
            device: self.cluster.device(),
            odp,
            seed,
            map_tasks: tasks,
            reduce_tasks: tasks,
            block_bytes,
            endpoints_per_pair,
            fetch_parallelism: par,
            fetch_stagger: SimTime::from_us(stagger_us),
            // ~1/100 of the paper's disabled wall time, minus the network
            // part, is modeled as setup/compute: 0.95 × 10 ms per paper
            // second, counted in the tenths of a second Fig. 13 prints.
            setup_compute: SimTime::from_ns(
                (self.paper_disabled_s * 10.0).round() as u64 * 950_000,
            ),
        }
    }
}

/// All twelve Fig. 13 cells with the paper's reference numbers.
pub fn fig13_cells() -> Vec<Fig13Cell> {
    use Fig13Cluster::*;
    use SparkExample::*;
    vec![
        // SparkTC
        Fig13Cell {
            cluster: Knl2,
            example: SparkTc,
            paper_qps: 411,
            paper_disabled_s: 303.0,
            paper_enabled_s: 473.0,
        },
        Fig13Cell {
            cluster: ReedbushH2,
            example: SparkTc,
            paper_qps: 980,
            paper_disabled_s: 39.7,
            paper_enabled_s: 256.0,
        },
        Fig13Cell {
            cluster: Abci2,
            example: SparkTc,
            paper_qps: 2191,
            paper_disabled_s: 83.9,
            paper_enabled_s: 84.9,
        },
        Fig13Cell {
            cluster: Abci4,
            example: SparkTc,
            paper_qps: 2858,
            paper_disabled_s: 41.7,
            paper_enabled_s: 59.3,
        },
        // RecommendationExample
        Fig13Cell {
            cluster: Knl2,
            example: Recommendation,
            paper_qps: 210,
            paper_disabled_s: 100.0,
            paper_enabled_s: 151.0,
        },
        Fig13Cell {
            cluster: ReedbushH2,
            example: Recommendation,
            paper_qps: 980,
            paper_disabled_s: 21.9,
            paper_enabled_s: 78.6,
        },
        Fig13Cell {
            cluster: Abci2,
            example: Recommendation,
            paper_qps: 2191,
            paper_disabled_s: 29.0,
            paper_enabled_s: 31.2,
        },
        Fig13Cell {
            cluster: Abci4,
            example: Recommendation,
            paper_qps: 1953,
            paper_disabled_s: 24.3,
            paper_enabled_s: 28.6,
        },
        // RankingMetricsExample
        Fig13Cell {
            cluster: Knl2,
            example: RankingMetrics,
            paper_qps: 389,
            paper_disabled_s: 517.0,
            paper_enabled_s: 674.0,
        },
        Fig13Cell {
            cluster: ReedbushH2,
            example: RankingMetrics,
            paper_qps: 980,
            paper_disabled_s: 46.6,
            paper_enabled_s: 111.0,
        },
        Fig13Cell {
            cluster: Abci2,
            example: RankingMetrics,
            paper_qps: 2191,
            paper_disabled_s: 107.0,
            paper_enabled_s: 147.0,
        },
        Fig13Cell {
            cluster: Abci4,
            example: RankingMetrics,
            paper_qps: 2667,
            paper_disabled_s: 83.2,
            paper_enabled_s: 197.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_cells_with_paper_ratios() {
        let cells = fig13_cells();
        assert_eq!(cells.len(), 12);
        // Extremes of the ratio column.
        let max = cells.iter().map(|c| c.paper_ratio()).fold(0.0f64, f64::max);
        assert!((6.4..6.5).contains(&max), "Reedbush SparkTC is 6.46x");
        let min = cells
            .iter()
            .map(|c| c.paper_ratio())
            .fold(f64::MAX, f64::min);
        assert!((1.0..1.05).contains(&min), "ABCI(2) SparkTC is 1.01x");
    }

    #[test]
    fn configs_hit_paper_qp_counts() {
        for cell in fig13_cells() {
            let cfg = cell.config(true, 1);
            let got = cfg.total_qps();
            let want = cell.paper_qps;
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(
                err < 0.02,
                "{} {}: {} vs {}",
                cell.cluster.name(),
                cell.example.name(),
                got,
                want
            );
        }
    }

    #[test]
    fn setup_compute_is_pinned_in_ns() {
        // 0.95 × (disabled seconds / 100) for every cell, in Fig. 13 order.
        let want: [u64; 12] = [
            2_878_500_000,
            377_150_000,
            797_050_000,
            396_150_000,
            950_000_000,
            208_050_000,
            275_500_000,
            230_850_000,
            4_911_500_000,
            442_700_000,
            1_016_500_000,
            790_400_000,
        ];
        let got: Vec<u64> = fig13_cells()
            .iter()
            .map(|c| c.config(true, 1).setup_compute.as_ns())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn odp_toggle_only_changes_registration() {
        let cell = &fig13_cells()[0];
        let a = cell.config(true, 7);
        let b = cell.config(false, 7);
        assert!(a.odp && !b.odp);
        assert_eq!(a.total_qps(), b.total_qps());
        assert_eq!(a.block_bytes, b.block_bytes);
    }
}
