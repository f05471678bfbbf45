//! The workspace rule-scoping table: which rules apply to which files.
//!
//! The scoping policy, in one place so DESIGN 8.7 and the engine cannot
//! drift apart:
//!
//! * **no-unwrap**, **no-wall-clock** and **no-std-hash-collections**
//!   apply to every crate in the workspace, including `bench` and this
//!   lint crate itself (the self-check). No crate of the root workspace
//!   reads a host clock: speed is measured from outside, by the
//!   `benchmark/` package, which is its own workspace and not a root.
//! * **no-float-in-sim-path** applies to the sim-time crates `event`,
//!   `verbs`, `fabric`, and `core` (the ODP crate), minus the
//!   documented float-boundary files listed in
//!   [`FLOAT_BOUNDARY_FILES`].
//! * **no-wildcard-match-on-protocol-enums** applies to `verbs` and
//!   `analysis`, where protocol-enum matches encode the RC state
//!   machine, the closed set of recovery backends (`RecoveryKind`) and
//!   the trace linter's opcode accounting, and — since the
//!   routed-fabric refactor added `TopologyKind` to the protected enum
//!   list — to `fabric` (route construction dispatches on it) and
//!   `scenario` (the `topology=` facet serializer must stay exhaustive).
//! * **no-direct-retransmit** applies to `verbs`, where every packet is
//!   built: a retransmission is a message the recovery backend selected,
//!   resent by the requester's one resend path, not a hard-coded
//!   `retransmit: true`, minus the sanctioned site in
//!   [`RETRANSMIT_SANCTIONED_FILES`].
//!
//! The sharded PDES executor (`verbs/src/sharded.rs`) needs no scoping
//! of its own: it inherits the full `crates/verbs` rule set, and its
//! determinism contract — bit-identical traces at every shard count —
//! rests on exactly the properties these rules protect (no wall-clock
//! reads, no floats in sim-time arithmetic, no iteration-order-dependent
//! std hash collections anywhere near the epoch merge).

use crate::rules::Policy;

/// One linted source root and its rule flags.
#[derive(Debug, Clone, Copy)]
pub struct RootConfig {
    /// Workspace-relative directory whose `src/` tree is walked
    /// (`"src"` means the workspace root crate).
    pub dir: &'static str,
    /// Enforce no-float-in-sim-path here.
    pub float_path: bool,
    /// Enforce no-wildcard-match-on-protocol-enums here.
    pub wildcard: bool,
    /// Enforce no-direct-retransmit here.
    pub retransmit: bool,
}

/// Every linted source root, in walk order.
pub const ROOTS: &[RootConfig] = &[
    RootConfig {
        dir: "crates/analysis",
        float_path: false,
        wildcard: true,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/bench",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/core",
        float_path: true,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/dsm",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/event",
        float_path: true,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/fabric",
        float_path: true,
        wildcard: true,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/lint",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/scenario",
        float_path: false,
        wildcard: true,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/shuffle",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/telemetry",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/ucp",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
    RootConfig {
        dir: "crates/verbs",
        float_path: true,
        wildcard: true,
        retransmit: true,
    },
    RootConfig {
        dir: "src",
        float_path: false,
        wildcard: false,
        retransmit: false,
    },
];

/// Files where floats are sanctioned by design even inside float-path
/// crates. Each is a conversion or randomness boundary, not sim-time
/// arithmetic:
///
/// * `event/src/time.rs` — the `SimTime` float constructors/accessors
///   themselves (every other crate goes through them);
/// * `event/src/rng.rs` and `fabric/src/loss.rs` — `next_f64` uniform
///   draws; converting the loss models to fixed-point would change the
///   RNG stream and re-pin every golden hash;
/// * `core/src/experiment.rs` and `core/src/microbench.rs` — paper
///   figure reporting (ratios, probabilities), not event scheduling.
pub const FLOAT_BOUNDARY_FILES: &[&str] = &[
    "crates/event/src/time.rs",
    "crates/event/src/rng.rs",
    "crates/fabric/src/loss.rs",
    "crates/core/src/experiment.rs",
    "crates/core/src/microbench.rs",
];

/// Files where a literal `retransmit: true` is sanctioned even inside
/// the retransmit-linted `verbs` crate:
///
/// * `verbs/src/qp/responder.rs` — `Responder::duplicate_atomic`, the
///   one literal left in the crate: it overrides the flag on the packet
///   `QpCtx::packet` (the one packet constructor) hands back, to replay
///   a duplicate ATOMIC from the replay cache. A responder re-answering
///   a duplicate request is wire-mandated replay (IBTA §9.7.5.1.5), not
///   loss recovery, and never consults the requester's backend.
///
/// Everywhere else the flag is threaded: duplicate-READ re-execution
/// passes it to `push_read_responses`, and the requester's
/// `retransmit_at` through `build_request_packet` for the messages the
/// recovery backend selected.
pub const RETRANSMIT_SANCTIONED_FILES: &[&str] = &["crates/verbs/src/qp/responder.rs"];

/// Derives the rule set for one workspace-relative file path. Returns
/// `None` for files outside every configured root (e.g. `tests/`
/// trees, fixtures), which are not linted.
pub fn policy_for(rel: &str) -> Option<Policy> {
    let root = ROOTS.iter().find(|r| {
        if r.dir == "src" {
            rel.starts_with("src/")
        } else {
            rel.strip_prefix(r.dir)
                .is_some_and(|rest| rest.starts_with("/src/"))
        }
    })?;
    let boundary = FLOAT_BOUNDARY_FILES.contains(&rel);
    let sanctioned = RETRANSMIT_SANCTIONED_FILES.contains(&rel);
    Some(Policy {
        no_unwrap: true,
        no_wall_clock: true,
        no_std_hash_collections: true,
        no_float_in_sim_path: root.float_path && !boundary,
        no_wildcard_match: root.wildcard,
        no_direct_retransmit: root.retransmit && !sanctioned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_matches_the_documented_policy() {
        let verbs = policy_for("crates/verbs/src/device.rs").expect("verbs is linted");
        assert!(verbs.no_float_in_sim_path && verbs.no_wildcard_match);
        assert!(verbs.no_direct_retransmit);

        let backends = policy_for("crates/verbs/src/qp/recovery.rs").expect("linted");
        assert!(backends.no_direct_retransmit && backends.no_wildcard_match);
        let replay = policy_for("crates/verbs/src/qp/responder.rs").expect("linted");
        assert!(!replay.no_direct_retransmit && replay.no_unwrap);

        let analysis = policy_for("crates/analysis/src/linter.rs").expect("linted");
        assert!(!analysis.no_direct_retransmit, "only verbs builds packets");

        let bench = policy_for("crates/bench/src/bin/congestion.rs").expect("bench is linted");
        assert!(bench.no_unwrap && bench.no_wall_clock && !bench.no_float_in_sim_path);

        let boundary = policy_for("crates/event/src/time.rs").expect("time.rs is linted");
        assert!(!boundary.no_float_in_sim_path && boundary.no_wall_clock);

        let fabric = policy_for("crates/fabric/src/routing.rs").expect("linted");
        assert!(
            fabric.no_wildcard_match,
            "TopologyKind matches stay exhaustive"
        );
        let scenario = policy_for("crates/scenario/src/spec.rs").expect("linted");
        assert!(
            scenario.no_wildcard_match,
            "facet serializer stays exhaustive"
        );

        let root = policy_for("src/lib.rs").expect("root crate is linted");
        assert!(root.no_unwrap && !root.no_wildcard_match);

        assert!(policy_for("crates/verbs/tests/transport.rs").is_none());
        assert!(policy_for("crates/lint/tests/fixtures/bad_unwrap.rs").is_none());
        // A crate name that merely prefixes another must not match.
        assert!(policy_for("crates/eventual/src/x.rs").is_none());
    }

    #[test]
    fn every_root_lints_unwrap_and_hash_collections() {
        for r in ROOTS {
            let rel = if r.dir == "src" {
                "src/probe.rs".to_owned()
            } else {
                format!("{}/src/probe.rs", r.dir)
            };
            let p = policy_for(&rel).expect("configured root must be linted");
            assert!(
                p.no_unwrap && p.no_wall_clock && p.no_std_hash_collections,
                "{rel}"
            );
        }
    }
}
