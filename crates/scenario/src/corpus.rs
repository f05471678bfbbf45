//! The paper-derived scenario corpus.
//!
//! Each entry replays one of the study's experimental situations — the
//! §V damming probe, the §VI flood probe, the QP-count sweep, the §IX-A
//! workaround ablations — or a stress shape the paper motivates (burst
//! loss, mid-run evictions, mixed verbs). Every corpus scenario must
//! pass the differential oracle: the pitfalls degrade *performance*, not
//! correctness, so conformance holds even while damming or flooding.

use crate::spec::{FaultEvent, LossPhase, LossSpec, Prefetch, Scenario, Side, WrSpec};

/// Builds the full corpus, in a fixed order (index 0 is the damming
/// probe, as the crate-level example relies on).
pub fn paper_corpus() -> Vec<Scenario> {
    let mut corpus = Vec::new();

    // §V damming probe: one QP, both regions ODP and initially unmapped,
    // paced READs — the first access on each side faults, and a request
    // racing the recovery window gets dammed (ghosted).
    let mut sc = Scenario::base("damming");
    sc.seed = 11;
    sc.slot = 256;
    sc.client_odp = true;
    sc.server_odp = true;
    sc.post_interval_ns = 1_000_000; // the paper's 1 ms interval
    sc.wrs = vec![
        (0, WrSpec::Read { off: 0, len: 100 }),
        (0, WrSpec::Read { off: 128, len: 100 }),
    ];
    corpus.push(sc);

    // §VI flood shard: many client-ODP QPs faulting the same first page
    // burst-read at C_ack = 18 (the flood probe's timeout setting).
    let mut sc = Scenario::base("flood-64");
    sc.seed = 12;
    sc.qps = 64;
    sc.slot = 32;
    sc.client_odp = true;
    sc.cack = 18;
    sc.post_interval_ns = 1_000;
    sc.wrs = (0..2)
        .flat_map(|_| (0..64).map(|q| (q, WrSpec::Read { off: 0, len: 32 })))
        .collect();
    corpus.push(sc);

    // QP-sweep shards: the scaling axis of the flood experiment.
    for qps in [8usize, 32] {
        let mut sc = Scenario::base(&format!("qpsweep-{qps}"));
        sc.seed = 13 + qps as u64;
        sc.qps = qps;
        sc.slot = 64;
        sc.client_odp = true;
        sc.cack = 18;
        sc.post_interval_ns = 2_000;
        sc.wrs = (0..qps)
            .map(|q| (q, WrSpec::Read { off: 0, len: 48 }))
            .collect();
        corpus.push(sc);
    }

    // §IX-A workaround ablation: prefetch (ibv_advise_mr). The regions
    // start fully mapped, then a mid-run eviction re-faults one page —
    // prefetch helps until the kernel reclaims.
    let mut sc = Scenario::base("workaround-prefetch");
    sc.seed = 21;
    sc.slot = 256;
    sc.client_odp = true;
    sc.server_odp = true;
    sc.prefetch = Prefetch::All;
    sc.post_interval_ns = 1_000_000;
    sc.wrs = vec![
        (0, WrSpec::Read { off: 0, len: 100 }),
        (0, WrSpec::Read { off: 0, len: 100 }),
        (0, WrSpec::Read { off: 0, len: 100 }),
    ];
    sc.faults = vec![FaultEvent {
        at_ns: 1_500_000,
        side: Side::Server,
        page: 0,
        count: 1,
    }];
    corpus.push(sc);

    // §IX-A workaround ablation: a small minimum RNR NAK delay bounds
    // the responder-fault stall (SENDs against an unmapped ODP sink).
    let mut sc = Scenario::base("workaround-rnr-min");
    sc.seed = 22;
    sc.slot = 128;
    sc.server_odp = true;
    sc.min_rnr_delay_ns = 10_000; // 10 µs instead of the 1.28 ms default
    sc.post_interval_ns = 50_000;
    sc.wrs = vec![
        (0, WrSpec::Send { off: 0, len: 64 }),
        (0, WrSpec::Send { off: 64, len: 64 }),
    ];
    corpus.push(sc);

    // §IX-A workaround ablation: widening the post interval past the
    // fault-resolution time sidesteps damming entirely.
    let mut sc = Scenario::base("workaround-wide-interval");
    sc.seed = 23;
    sc.slot = 256;
    sc.client_odp = true;
    sc.server_odp = true;
    sc.post_interval_ns = 6_000_000; // 6 ms ≫ fault resolution
    sc.wrs = vec![
        (0, WrSpec::Read { off: 0, len: 100 }),
        (0, WrSpec::Read { off: 128, len: 100 }),
    ];
    corpus.push(sc);

    // Uniform fabric loss over mixed pinned-memory traffic: pure
    // transport-recovery stress with no ODP in the mix.
    let mut sc = Scenario::base("loss-uniform");
    sc.seed = 31;
    sc.qps = 4;
    sc.slot = 64;
    sc.post_interval_ns = 3_000;
    sc.wrs = (0..4)
        .flat_map(|q| {
            [
                (q, WrSpec::Write { off: 0, len: 32 }),
                (q, WrSpec::Read { off: 0, len: 32 }),
            ]
        })
        .collect();
    sc.loss = vec![
        LossPhase {
            at_ns: 0,
            model: LossSpec::Uniform {
                prob_milli: 20,
                seed: 5,
            },
        },
        LossPhase {
            at_ns: 500_000,
            model: LossSpec::None,
        },
    ];
    corpus.push(sc);

    // Gilbert–Elliott burst loss: clustered drops hammer go-back-N much
    // harder than independent coin flips at the same average rate.
    let mut sc = Scenario::base("loss-burst");
    sc.seed = 32;
    sc.qps = 2;
    sc.slot = 64;
    sc.post_interval_ns = 3_000;
    sc.wrs = vec![
        (0, WrSpec::Write { off: 0, len: 48 }),
        (1, WrSpec::Read { off: 0, len: 48 }),
        (0, WrSpec::Read { off: 0, len: 48 }),
        // Disjoint from QP 1's outstanding READ: sourcing bytes a READ
        // may still land into is an unsequenced race validate() rejects.
        (1, WrSpec::Write { off: 48, len: 16 }),
    ];
    sc.loss = vec![
        LossPhase {
            at_ns: 0,
            model: LossSpec::Burst {
                enter_milli: 30,
                exit_milli: 500,
                drop_milli: 300,
                seed: 9,
            },
        },
        LossPhase {
            at_ns: 400_000,
            model: LossSpec::None,
        },
    ];
    corpus.push(sc);

    // Every verb in one run, client-side ODP: the §VII verb-coverage
    // axis (the paper tests READ/WRITE/SEND behaviour under ODP).
    let mut sc = Scenario::base("mixed-verbs");
    sc.seed = 33;
    sc.qps = 4;
    sc.slot = 64;
    sc.client_odp = true;
    sc.post_interval_ns = 5_000;
    sc.wrs = vec![
        (0, WrSpec::Read { off: 0, len: 40 }),
        (1, WrSpec::Write { off: 0, len: 40 }),
        (2, WrSpec::Send { off: 0, len: 40 }),
        (3, WrSpec::FetchAdd { off: 0, add: 17 }),
        (
            3,
            WrSpec::CompareSwap {
                off: 8,
                compare: 0,
                swap: 7,
            },
        ),
        (0, WrSpec::Write { off: 40, len: 16 }),
        (1, WrSpec::Read { off: 40, len: 16 }),
    ];
    corpus.push(sc);

    // NIC translation-cache evictions mid-run: prefetched pages are
    // invalidated one by one while traffic flows, re-faulting each.
    let mut sc = Scenario::base("evict-mid-run");
    sc.seed = 34;
    sc.qps = 2;
    sc.slot = 4096; // one page per QP window
    sc.client_odp = true;
    sc.prefetch = Prefetch::All;
    sc.post_interval_ns = 200_000;
    sc.wrs = (0..6)
        .map(|k| (k % 2, WrSpec::Read { off: 0, len: 256 }))
        .collect();
    sc.faults = vec![
        FaultEvent {
            at_ns: 300_000,
            side: Side::Client,
            page: 0,
            count: 1,
        },
        FaultEvent {
            at_ns: 700_000,
            side: Side::Client,
            page: 1,
            count: 1,
        },
    ];
    corpus.push(sc);

    // Atomic hammering on a server-ODP region: replay-cache territory —
    // retransmitted atomics must never re-execute.
    let mut sc = Scenario::base("atomics-hammer");
    sc.seed = 35;
    sc.qps = 2;
    sc.slot = 64;
    sc.server_odp = true;
    sc.post_interval_ns = 2_000;
    sc.wrs = (0..8)
        .map(|k| {
            let qp = (k % 2) as usize;
            if k % 4 < 2 {
                (qp, WrSpec::FetchAdd { off: 0, add: k + 1 })
            } else {
                (
                    qp,
                    WrSpec::CompareSwap {
                        off: 8,
                        compare: 0,
                        swap: k,
                    },
                )
            }
        })
        .collect();
    corpus.push(sc);

    // Exact-index loss on SEND traffic against a faulting responder:
    // deterministic single-packet drops compose with RNR recovery.
    let mut sc = Scenario::base("send-nth-loss");
    sc.seed = 36;
    sc.qps = 2;
    sc.slot = 64;
    sc.server_odp = true;
    sc.device = ibsim_verbs::DeviceProfile::connectx6();
    sc.post_interval_ns = 20_000;
    sc.wrs = vec![
        (0, WrSpec::Send { off: 0, len: 32 }),
        (1, WrSpec::Send { off: 0, len: 32 }),
        (0, WrSpec::Send { off: 32, len: 32 }),
        (1, WrSpec::Send { off: 32, len: 32 }),
    ];
    sc.loss = vec![LossPhase {
        at_ns: 0,
        model: LossSpec::Nth(vec![2, 5]),
    }];
    corpus.push(sc);

    // Routed-fabric coverage: the damming shape replayed across a
    // two-leaf fat-tree, so every request crosses a store-and-forward
    // leaf→spine→leaf path while ODP faults stall the endpoints. The
    // oracle is topology-blind (routing only moves time, never bytes),
    // which is exactly the property this entry locks in.
    let mut sc = Scenario::base("fattree-damming");
    sc.seed = 41;
    sc.slot = 256;
    sc.client_odp = true;
    sc.server_odp = true;
    sc.post_interval_ns = 1_000_000;
    sc.topology = ibsim_fabric::TopologyKind::FatTree { k: 2 };
    sc.wrs = vec![
        (0, WrSpec::Read { off: 0, len: 100 }),
        (0, WrSpec::Read { off: 128, len: 100 }),
    ];
    corpus.push(sc);

    // Ring topology under burst loss: the longest built-in path (two
    // hosts sit one hop apart on a three-switch cycle) composed with
    // go-back-N recovery — retransmissions re-serialize over every
    // inter-switch hop they originally crossed.
    let mut sc = Scenario::base("ring-burst-loss");
    sc.seed = 42;
    sc.qps = 2;
    sc.slot = 64;
    sc.post_interval_ns = 3_000;
    sc.topology = ibsim_fabric::TopologyKind::Ring { switches: 3 };
    sc.wrs = vec![
        (0, WrSpec::Write { off: 0, len: 48 }),
        (1, WrSpec::Read { off: 0, len: 48 }),
        (0, WrSpec::Read { off: 0, len: 48 }),
    ];
    sc.loss = vec![
        LossPhase {
            at_ns: 0,
            model: LossSpec::Burst {
                enter_milli: 30,
                exit_milli: 500,
                drop_milli: 300,
                seed: 9,
            },
        },
        LossPhase {
            at_ns: 400_000,
            model: LossSpec::None,
        },
    ];
    corpus.push(sc);

    for sc in &corpus {
        debug_assert!(sc.validate().is_ok(), "corpus scenario {} invalid", sc.name);
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_valid_and_named_uniquely() {
        let corpus = paper_corpus();
        assert!(corpus.len() >= 12, "corpus shrank to {}", corpus.len());
        let mut names: Vec<&str> = corpus.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate scenario names");
        for sc in &corpus {
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        }
        assert_eq!(corpus[0].name, "damming");
    }

    #[test]
    fn corpus_round_trips_through_the_spec_format() {
        for sc in paper_corpus() {
            let text = sc.to_spec_string();
            let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(sc, back, "{} did not round-trip", sc.name);
        }
    }
}
