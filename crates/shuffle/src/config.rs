//! Shuffle workload configuration.

use ibsim_event::SimTime;
use ibsim_verbs::DeviceProfile;

/// Configuration of one shuffle job (the SparkUCX-shaped workload of
/// §VII-B / Fig. 13).
#[derive(Debug, Clone)]
pub struct ShuffleConfig {
    /// Worker machines.
    pub workers: usize,
    /// RNIC model of every worker.
    pub device: DeviceProfile,
    /// Register shuffle buffers with ODP (the Fig. 13 enable/disable
    /// toggle).
    pub odp: bool,
    /// Seed for jitter.
    pub seed: u64,
    /// Map tasks (each produces one block per reduce task).
    pub map_tasks: usize,
    /// Reduce tasks (each fetches one block from every map task).
    pub reduce_tasks: usize,
    /// Bytes per shuffle block.
    pub block_bytes: u32,
    /// Endpoints (QP pairs) per ordered worker pair; SparkUCX creates
    /// hundreds to thousands of QPs (Fig. 13's "QPs" column).
    pub endpoints_per_pair: usize,
    /// Concurrent outstanding fetches per reduce task.
    pub fetch_parallelism: usize,
    /// Mean compute time between a reduce task's fetches (CPU speed and
    /// scheduling noise; larger values spread the READs out in time,
    /// which — as §VII-B observes — weakens the flood).
    pub fetch_stagger: SimTime,
    /// Fixed per-job setup compute (executor launch, scheduling).
    pub setup_compute: SimTime,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig {
            workers: 2,
            device: DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
            odp: true,
            seed: 1,
            map_tasks: 8,
            reduce_tasks: 8,
            block_bytes: 32 * 1024,
            endpoints_per_pair: 16,
            fetch_parallelism: 4,
            fetch_stagger: SimTime::from_us(50),
            setup_compute: SimTime::from_ms(50),
        }
    }
}

impl ShuffleConfig {
    /// Total QPs the job creates: one pair per endpoint per ordered
    /// worker pair (matching how Fig. 13 counts them: both ends).
    pub fn total_qps(&self) -> usize {
        let pairs = self.workers * (self.workers - 1) / 2;
        pairs * self.endpoints_per_pair * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_accounting() {
        let cfg = ShuffleConfig {
            workers: 2,
            endpoints_per_pair: 16,
            ..Default::default()
        };
        assert_eq!(cfg.total_qps(), 32);
        let cfg4 = ShuffleConfig {
            workers: 4,
            endpoints_per_pair: 16,
            ..Default::default()
        };
        // 6 pairs × 16 eps × 2 ends.
        assert_eq!(cfg4.total_qps(), 192);
    }
}
