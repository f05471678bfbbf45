//! The runtime invariant registry.
//!
//! The trace linter works offline, after the fact. The invariants here
//! are checked *while the simulation runs*, inside `ibsim-verbs` and
//! `ibsim-event`, in every build: one compare per event pop and one
//! table look-up per QP state change. The registry gives each runtime
//! check a stable identity and a single place to collect the violation
//! counters from.
//!
//! Checks never panic: violations are counted and surfaced — through
//! [`ibsim_verbs::QpStats::invariant_violations`] and
//! `Engine::monotonicity_violations` — so a broken invariant shows up in
//! the counters a run already reports.

use std::fmt;

use ibsim_event::{Engine, Event};
use ibsim_verbs::{Cluster, HostId};

/// Stable identity of one runtime invariant check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantId {
    /// Every QP state change must be legal per the RC state machine
    /// (`QpState::transition_allowed`); checked in `ibsim-verbs`.
    QpStateTransition,
    /// Every event popped by the engine must carry a timestamp at or
    /// after the current clock; checked in `ibsim-event`.
    EventTimeMonotonicity,
}

impl InvariantId {
    /// Every registered runtime invariant.
    pub const ALL: [InvariantId; 2] = [
        InvariantId::QpStateTransition,
        InvariantId::EventTimeMonotonicity,
    ];

    /// Short stable mnemonic.
    pub fn code(self) -> &'static str {
        match self {
            InvariantId::QpStateTransition => "QP_STATE_TRANSITION",
            InvariantId::EventTimeMonotonicity => "EVENT_TIME_MONOTONICITY",
        }
    }
}

impl fmt::Display for InvariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Violation counters collected from a running (or finished) simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantSnapshot {
    /// Illegal QP state transitions, summed over the snapshot's hosts.
    pub qp_transition_violations: u64,
    /// Event pops that moved the clock backwards.
    pub event_monotonicity_violations: u64,
}

impl InvariantSnapshot {
    /// Collects the counters for every host of a cluster plus its engine.
    pub fn collect<W, E: Event<W>>(cl: &Cluster, hosts: &[HostId], engine: &Engine<W, E>) -> Self {
        let qp = hosts
            .iter()
            .map(|&h| cl.qp_stats_sum(h).invariant_violations)
            .sum();
        InvariantSnapshot {
            qp_transition_violations: qp,
            event_monotonicity_violations: engine.monotonicity_violations(),
        }
    }

    /// Total violations across all invariants.
    pub fn total(&self) -> u64 {
        self.qp_transition_violations + self.event_monotonicity_violations
    }

    /// True when every runtime invariant held.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// The counter for one registered invariant.
    pub fn count(&self, id: InvariantId) -> u64 {
        match id {
            InvariantId::QpStateTransition => self.qp_transition_violations,
            InvariantId::EventTimeMonotonicity => self.event_monotonicity_violations,
        }
    }
}

impl fmt::Display for InvariantSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "runtime invariants clean");
        }
        write!(f, "runtime invariant violations:")?;
        for id in InvariantId::ALL {
            if self.count(id) > 0 {
                write!(f, " {}={}", id, self.count(id))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_event::Engine;
    use ibsim_fabric::LinkSpec;
    use ibsim_verbs::{Cluster, DeviceProfile, MrMode, QpConfig, ReadWr};

    #[test]
    fn registry_is_self_describing() {
        for id in InvariantId::ALL {
            assert!(!id.code().is_empty());
            assert_eq!(id.to_string(), id.code());
        }
    }

    #[test]
    fn healthy_run_snapshot_is_clean() {
        let mut eng = Engine::new();
        let mut cl = Cluster::new(1);
        let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
        let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        cl.post(
            &mut eng,
            a,
            qp,
            ReadWr::new(local.key, remote.key).len(256).id(0u64),
        );
        eng.run(&mut cl);
        assert_eq!(cl.poll_cq(a).len(), 1);
        let snap = InvariantSnapshot::collect(&cl, &[a, b], &eng);
        assert!(snap.is_clean(), "{snap}");
        assert_eq!(snap.total(), 0);
        assert!(snap.to_string().contains("clean"));
    }

    #[test]
    fn reconnecting_a_live_qp_is_counted_in_a_default_build() {
        // connect_pair walked both QPs to Rts; pointing one at a LID
        // again makes exactly one illegal hop (Rts -> Init).
        let mut eng = Engine::new();
        let mut cl = Cluster::new(1);
        let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
        let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
        let (qa, qb) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        cl.connect_to_lid(a, qa, cl.lid(b), qb);
        assert_eq!(cl.qp_stats_sum(a).invariant_violations, 1);
        assert_eq!(cl.qp_stats_sum(b).invariant_violations, 0);
        let snap = InvariantSnapshot::collect(&cl, &[a, b], &eng);
        assert_eq!(snap.total(), 1, "{snap}");
        assert_eq!(snap.count(InvariantId::QpStateTransition), 1);
    }

    #[test]
    fn snapshot_display_lists_nonzero_counters() {
        let snap = InvariantSnapshot {
            qp_transition_violations: 2,
            event_monotonicity_violations: 0,
        };
        let s = snap.to_string();
        assert!(s.contains("QP_STATE_TRANSITION=2"), "{s}");
        assert!(!s.contains("EVENT_TIME_MONOTONICITY"), "{s}");
        assert_eq!(snap.count(InvariantId::QpStateTransition), 2);
        assert!(!snap.is_clean());
    }
}
