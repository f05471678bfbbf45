//! `/sys/class/infiniband`-style counter reports.
//!
//! The paper reads "page fault counters" from the driver to corroborate
//! its packet captures (Fig. 1 caption). This module renders the same
//! observability surface for a simulated host: per-region ODP counters
//! plus the transport and driver counters that diagnose the pitfalls
//! without packets — useful exactly where the paper couldn't run `ibdump`
//! (§VII: "we are not permitted to use ibdump ... in Reedbush-H and ABCI").

use std::fmt;

use ibsim_verbs::{Cluster, HostId};

/// Snapshot of every counter a host exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostCounters {
    /// Host the snapshot came from.
    pub host: HostId,
    /// Per-region `(key, faults, invalidations, pages)` rows.
    pub regions: Vec<(u32, u64, u64, usize)>,
    /// Transport timeouts fired by requester QPs.
    pub timeouts: u64,
    /// Request retransmissions.
    pub retransmissions: u64,
    /// RNR NAKs sent (responder side).
    pub rnr_naks_sent: u64,
    /// PSN sequence-error NAKs sent.
    pub seq_naks_sent: u64,
    /// READ/ATOMIC responses discarded by client-side ODP.
    pub responses_discarded: u64,
    /// Packets silently dropped during responder fault pendency.
    pub pendency_drops: u64,
    /// Runtime protocol-invariant violations (QP state-machine legality,
    /// counted in every build; zero on a healthy host).
    pub invariant_violations: u64,
    /// Driver: page faults resolved.
    pub faults_resolved: u64,
    /// Driver: per-QP page-status resumes.
    pub qp_resumes: u64,
    /// Driver: interrupt work items absorbed.
    pub irqs_processed: u64,
}

/// Takes a counter snapshot for `host`.
pub fn snapshot(cl: &Cluster, host: HostId) -> HostCounters {
    let nic = cl.nic(host);
    let mut regions: Vec<(u32, u64, u64, usize)> = nic
        .mrs
        .iter()
        .map(|(k, mr)| (k.0, mr.fault_count, mr.invalidation_count, mr.page_count()))
        .collect();
    regions.sort_unstable_by_key(|r| r.0);
    let qps = cl.qp_stats_sum(host);
    let drv = cl.driver_stats(host);
    HostCounters {
        host,
        regions,
        timeouts: qps.timeouts,
        retransmissions: qps.retransmissions,
        rnr_naks_sent: qps.rnr_naks_sent,
        seq_naks_sent: qps.seq_naks_sent,
        responses_discarded: qps.responses_discarded,
        pendency_drops: qps.pendency_drops,
        invariant_violations: qps.invariant_violations,
        faults_resolved: drv.faults_resolved,
        qp_resumes: drv.qp_resumes,
        irqs_processed: drv.irqs_processed,
    }
}

impl HostCounters {
    /// Total network page faults across all regions.
    pub fn total_faults(&self) -> u64 {
        self.regions.iter().map(|r| r.1).sum()
    }

    /// A quick packet-free screen for the §V/§VI pitfalls: a timeout with
    /// ODP activity smells like damming; a discard count far above the
    /// fault count smells like flood. Returns human-readable suspicions.
    pub fn suspicions(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.timeouts > 0 && self.total_faults() > 0 {
            out.push(format!(
                "possible packet damming: {} transport timeout(s) alongside {} ODP fault(s)",
                self.timeouts,
                self.total_faults()
            ));
        }
        if self.responses_discarded > 10 * self.total_faults().max(1) {
            out.push(format!(
                "possible packet flood: {} discarded responses for only {} fault(s)",
                self.responses_discarded,
                self.total_faults()
            ));
        }
        out
    }
}

impl fmt::Display for HostCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters for {}:", self.host)?;
        for (key, faults, inval, pages) in &self.regions {
            writeln!(
                f,
                "  mr{key}: pages={pages} odp_faults={faults} invalidations={inval}"
            )?;
        }
        writeln!(
            f,
            "  qp: timeouts={} retx={} rnr_nak_tx={} seq_nak_tx={} resp_discarded={} pendency_drops={} invariant_violations={}",
            self.timeouts,
            self.retransmissions,
            self.rnr_naks_sent,
            self.seq_naks_sent,
            self.responses_discarded,
            self.pendency_drops,
            self.invariant_violations
        )?;
        write!(
            f,
            "  driver: faults_resolved={} qp_resumes={} irqs={}",
            self.faults_resolved, self.qp_resumes, self.irqs_processed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::{run_microbench, MicrobenchConfig, OdpMode};
    use ibsim_event::SimTime;

    #[test]
    fn clean_run_has_no_suspicions() {
        let run = run_microbench(&MicrobenchConfig {
            odp: OdpMode::None,
            num_ops: 8,
            ..Default::default()
        });
        let c = snapshot(&run.cluster, run.client);
        assert_eq!(c.total_faults(), 0);
        assert!(c.suspicions().is_empty());
        assert!(c.to_string().contains("timeouts=0"));
    }

    #[test]
    fn damming_run_raises_suspicion() {
        let run = run_microbench(&MicrobenchConfig {
            interval: SimTime::from_ms(1),
            ..Default::default()
        });
        assert!(run.timed_out());
        // Both hosts' counters feed the screen; the client sees the
        // timeout, the server the fault.
        let client = snapshot(&run.cluster, run.client);
        let server = snapshot(&run.cluster, run.server);
        assert!(client.timeouts > 0);
        assert!(server.total_faults() > 0 || client.total_faults() > 0);
        let combined = client.timeouts > 0 && (client.total_faults() + server.total_faults()) > 0;
        assert!(combined, "damming smell present");
        if client.total_faults() > 0 {
            assert!(!client.suspicions().is_empty());
        }
    }

    #[test]
    fn flood_run_raises_flood_suspicion() {
        let run = run_microbench(&MicrobenchConfig {
            size: 32,
            num_ops: 96,
            num_qps: 96,
            odp: OdpMode::ClientSide,
            cack: 18,
            ..Default::default()
        });
        let c = snapshot(&run.cluster, run.client);
        assert!(
            c.suspicions().iter().any(|s| s.contains("packet flood")),
            "{c}"
        );
        assert!(c.responses_discarded > 0);
        assert!(c.qp_resumes > 0, "driver resumes visible");
    }
}
