//! Ablation studies for the modeled design choices.
//!
//! Part 1 — the memory-management trade-off the paper's introduction
//! frames (registration cost vs pinned memory vs ODP):
//! register-per-transfer, pin-down cache \[16\], ODP, and pin-everything.
//!
//! Part 2 — device-quirk knockouts: which modeled mechanism produces
//! which observed result. Turning one knob at a time shows packet damming
//! hinges on the recovery-retransmission flaw, the Fig. 6 window on the
//! RNR stretch, and the flood tail on the resume capacity and interrupt
//! starvation.
//!
//! ```text
//! cargo run --release -p ibsim-bench --bin ablation
//! ```

use ibsim_bench::perftest::latencies;
use ibsim_bench::{header, row, secs};
use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;
use ibsim_odp::experiment::fig3;
use ibsim_odp::regcache::{
    deregistration_cost, registration_cost, strategy_cell, PinDownCache, BUFFER_LEN,
};
use ibsim_odp::OdpMode;
use ibsim_scenario::{run_scenario_with, RunOptions, Scenario, ScenarioRun};
use ibsim_verbs::DeviceProfile;

/// Each strategy's mean latency per transfer and peak pinned bytes on
/// the client. The strategies' costs are host CPU time on top of each
/// READ: registering pays before and deregistering after every READ of
/// the pinned cell, the pin-down cache waits for its ready time, ODP and
/// pinned pay the READ alone.
fn memory_strategies() -> [(&'static str, SimTime, u64); 4] {
    let cell = |odp| {
        let sc = strategy_cell(odp);
        let run = run_scenario_with(&sc, RunOptions::BARE);
        (latencies(&sc, &run.client_comps[0]), sc)
    };
    let (pinned, sc) = cell(false);
    let (odp, _) = cell(true);
    let mean = |total: SimTime| total / sc.wrs.len() as u64;
    let (reg, dereg) = (
        registration_cost(BUFFER_LEN),
        deregistration_cost(BUFFER_LEN),
    );
    let registered: SimTime = pinned.iter().map(|&read| reg + read + dereg).sum();
    let mut cache = PinDownCache::new(u64::MAX >> 1);
    let cached: SimTime = (pinned.iter().zip(&sc.wrs).enumerate())
        .map(|(i, (&read, &(_, wr)))| {
            let now = sc.post_time(i);
            cache.acquire(now, wr.footprint().0, BUFFER_LEN) - now + read
        })
        .sum();
    [
        ("register-each", mean(registered), BUFFER_LEN),
        (
            "pin-down-cache",
            mean(cached),
            cache.stats().peak_pinned_bytes,
        ),
        ("odp", mean(odp.into_iter().sum()), 0),
        ("pinned", mean(pinned.into_iter().sum()), sc.region_len()),
    ]
}

fn part1() {
    header("Ablation 1: memory-management strategies (64 transfers over 8 x 64 KiB buffers)");
    let widths = [16, 22, 18];
    println!(
        "{}",
        row(
            &[
                "strategy".into(),
                "mean latency/transfer".into(),
                "peak pinned [KiB]".into()
            ],
            &widths
        )
    );
    for (strategy, mean, pinned) in memory_strategies() {
        println!(
            "{}",
            row(
                &[
                    strategy.into(),
                    format!("{mean}"),
                    (pinned / 1024).to_string()
                ],
                &widths
            )
        );
    }
    println!(
        "(the intro's trade-off: registering every time pays ~60 µs per\n\
         transfer; the pin-down cache converges to pinned speed at pinned\n\
         memory cost; ODP pays page faults on first touch only, with no\n\
         pinned memory — until the pitfalls strike.)"
    );
}

/// `ops` 32-byte READs over `qps` QPs on `device`, client-side ODP,
/// `C_ack = 18`: the flood case.
fn flood_case(device: DeviceProfile, ops: usize, qps: usize) -> ScenarioRun {
    let mut sc = fig3(ops, qps, 32, SimTime::ZERO, OdpMode::ClientSide);
    (sc.device, sc.cack) = (device, 18);
    run_scenario_with(&sc, RunOptions::BARE)
}

fn part2() {
    header("Ablation 2: quirk knockouts");
    let damming_case = |device: DeviceProfile| {
        let mut sc = Scenario::damming_probe();
        sc.device = device;
        let run = run_scenario_with(&sc, RunOptions::BARE);
        (run.execution_time(), run.client_stats.timeouts)
    };
    let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
    let (t_on, to_on) = damming_case(cx4.clone());
    let healthy = DeviceProfile {
        damming: false,
        ..cx4.clone()
    };
    let (t_off, to_off) = damming_case(healthy);
    println!(
        "damming flag ON : two-READ benchmark {} ({} timeouts)",
        secs(t_on),
        to_on
    );
    println!(
        "damming flag OFF: two-READ benchmark {} ({} timeouts)",
        secs(t_off),
        to_off
    );

    // RNR stretch governs the Fig. 6a window width.
    for stretch_pm in [1000u64, 3500] {
        let mut sc = fig3(2, 1, 100, SimTime::from_ms(2), OdpMode::ServerSide);
        sc.device = DeviceProfile {
            rnr_stretch_pm: stretch_pm,
            ..cx4.clone()
        };
        let run = run_scenario_with(&sc, RunOptions::BARE);
        println!(
            "rnr_stretch {:>4} permille: 2 ms interval -> {} ({} timeouts; window = stretch x 1.28 ms)",
            stretch_pm,
            secs(run.execution_time()),
            run.client_stats.timeouts
        );
    }

    // Resume capacity governs the flood onset.
    for slots in [4u32, 10, 64, 1024] {
        let device = DeviceProfile {
            resume_slots: slots,
            ..cx4.clone()
        };
        let run = flood_case(device, 128, 128);
        println!(
            "resume_slots {slots:>4}: 128-QP flood case finishes in {} ({} discarded responses)",
            run.execution_time(),
            run.client_stats.responses_discarded
        );
    }

    // Interrupt starvation governs the Fig. 11b tail.
    for burst in [1u32, 64, 512] {
        let device = DeviceProfile {
            irq_burst: burst,
            ..cx4.clone()
        };
        let run = flood_case(device, 512, 128);
        println!(
            "irq_burst {burst:>4}: 512-op flood case finishes in {}",
            run.execution_time()
        );
    }
}

fn main() {
    part1();
    part2();
}
