//! `sim_digest`: one 64-bit identity of everything a pass simulated.
//!
//! A digest covers the simulated end time, the engine's queue counters,
//! the cluster's packet counters, the summed per-QP counters and, where
//! the entry point returns them, trace hashes and reports. It must be
//! identical across passes, between the traced and the untraced run,
//! and on `wide` between the sequential engine and 1 or 2 shards — so
//! it deliberately leaves out `QueueStats::peak_depth` and `live`, the
//! two queue counters that do not compose across shards.

use ibsim_event::QueueStats;
use ibsim_odp::fnv1a;
use ibsim_verbs::{ClusterStats, QpStats};

/// Accumulates words into the repository's pinned FNV-1a.
#[derive(Debug, Default, Clone)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest::default()
    }

    /// Feeds one word.
    pub fn word(&mut self, w: u64) -> &mut Digest {
        self.bytes.extend_from_slice(&w.to_le_bytes());
        self
    }

    /// Feeds the shard-invariant engine counters.
    pub fn queue(&mut self, qs: &QueueStats) -> &mut Digest {
        self.word(qs.executed)
            .word(qs.scheduled)
            .word(qs.cancelled)
            .word(qs.replaced)
            .word(qs.dead_pops)
    }

    /// Feeds every cluster packet counter.
    pub fn cluster(&mut self, cs: &ClusterStats) -> &mut Digest {
        self.word(cs.total_packets)
            .word(cs.request_packets)
            .word(cs.retransmit_packets)
            .word(cs.response_packets)
            .word(cs.ack_packets)
            .word(cs.rnr_nak_packets)
            .word(cs.seq_nak_packets)
            .word(cs.ghost_packets)
            .word(cs.fabric_drops)
    }

    /// Feeds summed per-QP counters.
    pub fn qp(&mut self, s: &QpStats) -> &mut Digest {
        self.word(s.retransmissions)
            .word(s.timeouts)
            .word(s.rnr_naks_received)
            .word(s.rnr_naks_sent)
            .word(s.seq_naks_sent)
            .word(s.responses_discarded)
            .word(s.faults_raised)
            .word(s.pendency_drops)
            .word(s.pages_pinned)
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}

/// Field-wise sum of two per-QP counter sets (the cluster only sums per
/// host).
pub fn add_qp_stats(a: &QpStats, b: &QpStats) -> QpStats {
    QpStats {
        retransmissions: a.retransmissions + b.retransmissions,
        timeouts: a.timeouts + b.timeouts,
        rnr_naks_received: a.rnr_naks_received + b.rnr_naks_received,
        rnr_naks_sent: a.rnr_naks_sent + b.rnr_naks_sent,
        seq_naks_sent: a.seq_naks_sent + b.seq_naks_sent,
        responses_discarded: a.responses_discarded + b.responses_discarded,
        faults_raised: a.faults_raised + b.faults_raised,
        pendency_drops: a.pendency_drops + b.pendency_drops,
        pages_pinned: a.pages_pinned + b.pages_pinned,
        invariant_violations: a.invariant_violations + b.invariant_violations,
        ecn_echoes: a.ecn_echoes + b.ecn_echoes,
    }
}

/// Field-wise sum of two cluster packet-counter sets (sharded replicas
/// each count the packets their own hosts sent).
pub fn add_cluster_stats(a: &ClusterStats, b: &ClusterStats) -> ClusterStats {
    ClusterStats {
        total_packets: a.total_packets + b.total_packets,
        request_packets: a.request_packets + b.request_packets,
        retransmit_packets: a.retransmit_packets + b.retransmit_packets,
        response_packets: a.response_packets + b.response_packets,
        ack_packets: a.ack_packets + b.ack_packets,
        rnr_nak_packets: a.rnr_nak_packets + b.rnr_nak_packets,
        seq_nak_packets: a.seq_nak_packets + b.seq_nak_packets,
        ghost_packets: a.ghost_packets + b.ghost_packets,
        fabric_drops: a.fabric_drops + b.fabric_drops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned_and_order_sensitive() {
        // Pinned: a change to the hash, the byte order or the field
        // order silently invalidates every recorded digest.
        let mut d = Digest::new();
        d.word(1).word(2);
        assert_eq!(
            d.finish(),
            fnv1a(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0])
        );
        let mut swapped = Digest::new();
        swapped.word(2).word(1);
        assert_ne!(d.finish(), swapped.finish());
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn queue_digest_ignores_the_counters_that_do_not_compose() {
        let a = QueueStats {
            executed: 10,
            scheduled: 12,
            cancelled: 1,
            replaced: 1,
            peak_depth: 7,
            live: 0,
            ..QueueStats::default()
        };
        let b = QueueStats {
            peak_depth: 0,
            live: 3,
            keyed_live: 2,
            ..a
        };
        assert_eq!(
            Digest::new().queue(&a).finish(),
            Digest::new().queue(&b).finish()
        );
        let c = QueueStats { executed: 11, ..a };
        assert_ne!(
            Digest::new().queue(&a).finish(),
            Digest::new().queue(&c).finish()
        );
    }

    #[test]
    fn stat_sums_are_field_wise() {
        let q = QpStats {
            timeouts: 2,
            faults_raised: 3,
            ..QpStats::default()
        };
        let s = add_qp_stats(&q, &q);
        assert_eq!((s.timeouts, s.faults_raised, s.retransmissions), (4, 6, 0));
        let c = ClusterStats {
            total_packets: 5,
            ghost_packets: 1,
            ..ClusterStats::default()
        };
        let s = add_cluster_stats(&c, &c);
        assert_eq!(
            (s.total_packets, s.ghost_packets, s.ack_packets),
            (10, 2, 0)
        );
    }
}
