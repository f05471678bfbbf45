//! The differential oracle over whole-page traffic. The paper corpus and
//! the fuzz generator carry at most 100 bytes per request, so neither
//! ever delivers a whole page or a multi-segment payload, the deliveries
//! a receiver adopts instead of copying (`Memory::write_payload`). These
//! seeded specs do: page-aligned READ/WRITE/SEND of 4-16 KiB in 4-page
//! windows, mixed with sub-page requests on the same pages, across ODP
//! sides, recovery backends and topologies, under uniform loss or a
//! fault window (never both, and no atomics). Every spec must pass the
//! oracle, and a subset must hash alike at 2 shards, where adopted pages
//! cross threads.

use ibsim_event::SplitMix64;
use ibsim_fabric::TopologyKind;
use ibsim_scenario::{
    check_run, run_scenario, FaultEvent, LossPhase, LossSpec, Scenario, Side, WrSpec,
};
use ibsim_verbs::{RecoveryKind, PAGE_SIZE};

/// Pages in each QP's window.
const WINDOW_PAGES: u64 = 4;

/// One request: a page-aligned READ/WRITE/SEND of 4-16 KiB (whole
/// pages, or a short last page), or a sub-page one of 1-200 bytes,
/// starting on a page boundary one time in four.
fn request(rng: &mut SplitMix64) -> WrSpec {
    let (off, len) = if rng.next_below(2) == 0 {
        let first = rng.next_below(WINDOW_PAGES);
        let room = WINDOW_PAGES - first;
        let len = match rng.next_below(2) {
            0 => rng.range(1, room + 1) * PAGE_SIZE,
            _ => rng.range(PAGE_SIZE, room * PAGE_SIZE + 1),
        };
        (first * PAGE_SIZE, len as u32)
    } else {
        let off = match rng.next_below(4) {
            0 => rng.next_below(WINDOW_PAGES) * PAGE_SIZE,
            _ => rng.next_below(WINDOW_PAGES * PAGE_SIZE - 200),
        };
        (off, rng.range(1, 201) as u32)
    };
    match rng.next_below(3) {
        0 => WrSpec::Read { off, len },
        1 => WrSpec::Write { off, len },
        _ => WrSpec::Send { off, len },
    }
}

/// The spec for `seed`: its ODP sides, backend and topology cycle with
/// the seed, so any run of 18 consecutive seeds covers every combination.
fn whole_page_scenario(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(0x9A6E_0000 + seed);
    let mut sc = Scenario::base(&format!("whole-page-{seed}"));
    sc.seed = seed;
    sc.qps = rng.range(1, 3) as usize;
    sc.slot = WINDOW_PAGES * PAGE_SIZE;
    (sc.client_odp, sc.server_odp) =
        [(true, false), (false, true), (false, false)][seed as usize % 3];
    sc.recovery = RecoveryKind::ALL[(seed / 3) as usize % 3];
    sc.topology = [TopologyKind::Crossbar, TopologyKind::FatTree { k: 4 }][(seed / 9) as usize % 2];
    sc.post_interval_ns = rng.range(500, 5_000);
    for qp in 0..sc.qps {
        let mut mine: Vec<WrSpec> = Vec::new();
        for _ in 0..rng.range(2, 7) {
            let wr = request(&mut rng);
            let racy = |prev: &WrSpec| {
                prev.races_under(wr, sc.recovery) || wr.races_under(*prev, sc.recovery)
            };
            if !mine.iter().any(racy) {
                mine.push(wr);
            }
        }
        sc.wrs.extend(mine.into_iter().map(|wr| (qp, wr)));
    }
    let post_end = sc.wrs.len() as u64 * sc.post_interval_ns;
    let odp_side = match (sc.client_odp, sc.server_odp) {
        (true, _) => Some(Side::Client),
        (_, true) => Some(Side::Server),
        _ => None,
    };
    match (rng.next_below(3), odp_side) {
        (0, Some(side)) => {
            let pages = sc.region_len() / PAGE_SIZE;
            sc.faults.push(FaultEvent {
                at_ns: rng.next_below(post_end + 1),
                side,
                page: rng.next_below(pages) as usize,
                count: rng.range(1, pages + 1) as usize,
            });
        }
        (0 | 1, _) => {
            let model = LossSpec::Uniform {
                prob_milli: rng.range(1, 31) as u32,
                seed: rng.next_u64(),
            };
            let at_ns = rng.next_below(post_end);
            sc.loss.push(LossPhase { at_ns, model });
            // End loss-free, so the drain cannot drop the last resends.
            let (at_ns, model) = (post_end + 300_000, LossSpec::None);
            sc.loss.push(LossPhase { at_ns, model });
        }
        _ => {}
    }
    sc
}

/// The specs of seeds `0..n` that pass `validate`.
fn valid_specs(n: u64) -> Vec<Scenario> {
    let specs: Vec<Scenario> = (0..n)
        .map(whole_page_scenario)
        .filter(|sc| sc.validate().is_ok())
        .collect();
    assert!(
        specs.len() as u64 > n * 9 / 10,
        "{} of {n} specs valid",
        specs.len()
    );
    specs
}

#[test]
fn whole_page_traffic_is_oracle_clean() {
    let specs = valid_specs(270);
    let whole = |sc: &Scenario| {
        sc.wrs
            .iter()
            .filter(|(_, wr)| wr.footprint().1 >= PAGE_SIZE)
            .count()
    };
    assert!(
        specs.iter().map(whole).sum::<usize>() > specs.len(),
        "too few whole pages"
    );
    let failing: Vec<String> = specs
        .iter()
        .filter_map(|sc| {
            let report = check_run(sc, &run_scenario(sc));
            (!report.is_clean()).then(|| format!("{}:\n{report}", sc.to_spec_string()))
        })
        .collect();
    assert!(failing.is_empty(), "{}", failing.join("\n"));
}

#[test]
fn whole_page_traffic_hashes_alike_at_two_shards() {
    for mut sc in valid_specs(36) {
        let one = run_scenario(&sc).trace_hash;
        sc.shards = 2;
        assert_eq!(run_scenario(&sc).trace_hash, one, "{}", sc.name);
    }
}
