//! The seeded random scenario generator for fuzzing.
//!
//! [`random_scenario`] maps a single `u64` seed to a bounded, always
//! [valid](crate::spec::Scenario::validate) scenario: small QP counts,
//! in-window aligned offsets, mild loss. The bounds are not cosmetic —
//! the differential oracle demands that every work request *succeed*, so
//! drop probabilities are capped low enough that exhausting the
//! transport retry budget (eight consecutive losses of one request) has
//! negligible probability even across thousands of fuzz seeds.

use ibsim_fabric::Xorshift64Star;
use ibsim_verbs::RecoveryKind;

use crate::spec::{FaultEvent, LossPhase, LossSpec, Prefetch, Scenario, Side, WrSpec};

/// Generates the scenario for one fuzz seed. Deterministic: the same
/// seed always yields the same scenario (the generator never consults
/// anything but its own PRNG).
pub fn random_scenario(seed: u64) -> Scenario {
    // Decorrelate from the simulator, which seeds its own PRNG with the
    // scenario seed: the generator stream must not mirror run randomness.
    let mut rng = Xorshift64Star::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5CE9_A21F);
    let mut sc = Scenario::base(&format!("fuzz-{seed}"));
    sc.seed = seed;
    if rng.next_below(4) == 0 {
        sc.device = ibsim_verbs::DeviceProfile::connectx6();
    }
    sc.qps = 1 + rng.next_below(6) as usize;
    sc.slot = 8 * (4 + rng.next_below(29)); // 32..=256, 8-aligned
    sc.client_odp = rng.next_below(2) == 1;
    sc.server_odp = rng.next_below(2) == 1;
    if (sc.client_odp || sc.server_odp) && rng.next_below(3) == 0 {
        sc.prefetch = Prefetch::All;
    }
    sc.cack = [1u8, 14, 18][rng.next_below(3) as usize];
    if rng.next_below(4) == 0 {
        sc.min_rnr_delay_ns = 10_000;
    }
    sc.post_interval_ns = 500 + rng.next_below(4_500);
    // Fuzz the recovery backend: half the seeds stay on the paper's
    // go-back-N hardware, the rest split between the two ablations.
    sc.recovery = match rng.next_below(4) {
        0 => RecoveryKind::SelectiveRepeat,
        1 => RecoveryKind::OnDemandPin,
        _ => RecoveryKind::GoBackN,
    };

    // Rejection sampling uses `validate()`'s race rule, in *either*
    // posting order (the global shuffle below may put a request before
    // or after its peers).
    let recovery = sc.recovery;
    let racy = move |a: WrSpec, b: WrSpec| a.races_under(b, recovery) || b.races_under(a, recovery);
    for qp in 0..sc.qps {
        let n = 1 + rng.next_below(5);
        let mut mine: Vec<WrSpec> = Vec::new();
        for _ in 0..n {
            // Rejection-sample until the candidate cannot race any other
            // request on this QP in *either* posting order (the global
            // shuffle below may put it before or after its peers) — the
            // oracle's soundness precondition. The first request always
            // lands, so every QP keeps at least one.
            for _ in 0..16 {
                let wr = random_wr(&mut rng, sc.slot);
                if mine.iter().all(|&prev| !racy(prev, wr)) {
                    mine.push(wr);
                    break;
                }
            }
        }
        sc.wrs.extend(mine.into_iter().map(|wr| (qp, wr)));
    }
    // Interleave across QPs deterministically so posting order is not
    // grouped by QP: sort by a per-entry pseudo-key derived from the
    // PRNG, stably.
    let keys: Vec<u64> = (0..sc.wrs.len()).map(|_| rng.next_u64()).collect();
    let mut order: Vec<usize> = (0..sc.wrs.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    sc.wrs = order.into_iter().map(|i| sc.wrs[i]).collect();

    let post_end = sc.wrs.len() as u64 * sc.post_interval_ns;
    let pages = sc.region_len().div_ceil(ibsim_verbs::PAGE_SIZE) as usize;
    for _ in 0..rng.next_below(4) {
        sc.faults.push(FaultEvent {
            at_ns: rng.next_below(post_end + 200_000),
            side: if rng.next_below(2) == 0 {
                Side::Client
            } else {
                Side::Server
            },
            page: rng.next_below(pages as u64) as usize,
            count: 1 + rng.next_below(pages as u64) as usize,
        });
    }

    for _ in 0..rng.next_below(3) {
        let at_ns = rng.next_below(post_end.max(1));
        let model = match rng.next_below(4) {
            0 => LossSpec::None,
            1 => LossSpec::Uniform {
                // ≤ 3 %: eight consecutive losses of one request is then
                // ≤ 0.03⁸ ≈ 7e-13 — unreachable in any fuzz campaign.
                prob_milli: 1 + rng.next_below(30) as u32,
                seed: rng.next_u64(),
            },
            2 => LossSpec::Burst {
                enter_milli: 1 + rng.next_below(20) as u32, // rare bursts
                exit_milli: (500 + rng.next_below(500)) as u32, // short bursts
                drop_milli: (50 + rng.next_below(250)) as u32, // ≤ 30 % in-burst
                seed: rng.next_u64(),
            },
            _ => LossSpec::Nth(
                (0..1 + rng.next_below(3))
                    .map(|_| rng.next_below(64))
                    .collect(),
            ),
        };
        sc.loss.push(LossPhase { at_ns, model });
    }
    // Always end loss-free so the drain phase cannot keep dropping the
    // final retransmissions.
    if !sc.loss.is_empty() {
        sc.loss.push(LossPhase {
            at_ns: post_end + 300_000,
            model: LossSpec::None,
        });
    }

    // The draw of the removed `shards` facet: made and discarded, so the
    // topology draw below, and every seed's scenario, stay where they
    // were.
    let _ = rng.next_below(4);

    // The newest facet draws last, so enabling it left every older seed's
    // scenario (and its oracle verdict) untouched. Routing is
    // deterministic and the reference executor runs the same fabric, so
    // the differential oracle holds on every topology; the draw just
    // moves traffic onto multi-hop paths for some seeds.
    sc.topology = ibsim_fabric::TopologyKind::ALL_SAMPLES[rng.next_below(4) as usize];

    debug_assert!(sc.validate().is_ok(), "generator produced invalid scenario");
    sc
}

/// One random in-window work request. Atomic offsets are 8-aligned;
/// data offsets are byte-granular with length at least 1.
fn random_wr(rng: &mut Xorshift64Star, slot: u64) -> WrSpec {
    match rng.next_below(5) {
        0 | 1 => {
            // Reads and writes carry the bulk of fuzz coverage.
            let off = rng.next_below(slot - 1);
            let len = (1 + rng.next_below((slot - off).min(96))) as u32;
            if rng.next_below(2) == 0 {
                WrSpec::Read { off, len }
            } else {
                WrSpec::Write { off, len }
            }
        }
        2 => {
            let off = rng.next_below(slot - 1);
            let len = (1 + rng.next_below((slot - off).min(64))) as u32;
            WrSpec::Send { off, len }
        }
        3 => WrSpec::FetchAdd {
            off: 8 * rng.next_below(slot / 8),
            add: rng.next_u64(),
        },
        _ => WrSpec::CompareSwap {
            off: 8 * rng.next_below(slot / 8),
            compare: rng.next_u64(),
            swap: rng.next_u64(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid_and_deterministic() {
        for seed in 0..200 {
            let a = random_scenario(seed);
            let b = random_scenario(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!a.wrs.is_empty());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(random_scenario(1), random_scenario(2));
    }

    #[test]
    fn fuzz_covers_every_recovery_backend() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200 {
            seen.insert(random_scenario(seed).recovery);
        }
        for kind in RecoveryKind::ALL {
            assert!(seen.contains(&kind), "{kind} never generated");
        }
    }

    #[test]
    fn generated_scenarios_round_trip() {
        for seed in 0..50 {
            let sc = random_scenario(seed);
            let back = crate::spec::Scenario::parse(&sc.to_spec_string())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(sc, back);
        }
    }
}
