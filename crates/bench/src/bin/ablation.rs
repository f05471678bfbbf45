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

use ibsim_bench::{header, row, secs};
use ibsim_event::{Engine, SimTime};
use ibsim_fabric::LinkSpec;
use ibsim_odp::experiment::fig3;
use ibsim_odp::regcache::{deregistration_cost, registration_cost, PinDownCache};
use ibsim_odp::OdpMode;
use ibsim_scenario::{run_scenario_with, RunOptions, Scenario, ScenarioRun};
use ibsim_verbs::{Cluster, DeviceProfile, MrBuilder, MrMode, QpConfig, ReadWr, Sim, WrId};

/// How long past its post one transfer may take before it has stalled;
/// each takes microseconds.
const HORIZON: SimTime = SimTime::from_secs(1);

/// Sequentially READs `transfers` times, one of `buffers` 16 KiB client
/// buffers per transfer (round-robin), under one strategy; returns
/// (mean per-transfer latency, peak pinned bytes on the client).
fn memory_strategy_run(strategy: &str, transfers: usize, buffers: usize) -> (SimTime, u64) {
    const LEN: u64 = 16 * 4096;
    let mut eng: Sim = Engine::new();
    let mut cl = Cluster::new(9);
    let device = DeviceProfile::connectx6(); // isolate from damming
    let a = cl.add_host("client", device.clone());
    let b = cl.add_host("server", device);
    let remote = cl.alloc_mr(b, LEN, MrMode::Pinned);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());

    let bases: Vec<u64> = (0..buffers).map(|_| cl.alloc_buffer(a, LEN)).collect();
    let mut cache = PinDownCache::new(a, u64::MAX >> 1);
    let mut pinned_keys = Vec::new();
    let mut total = SimTime::ZERO;
    let mut peak_pinned = 0u64;

    // Pre-pin for the "pinned" strategy; pre-register ODP regions once.
    let odp_keys: Vec<_> = if strategy == "odp" {
        bases
            .iter()
            .map(|&bse| cl.mr(a, MrBuilder::odp(LEN).at(bse)).key)
            .collect()
    } else {
        Vec::new()
    };
    if strategy == "pinned" {
        for &bse in &bases {
            pinned_keys.push(cl.mr(a, MrBuilder::pinned(LEN).at(bse)).key);
        }
        peak_pinned = buffers as u64 * LEN;
    }

    for i in 0..transfers {
        let buf = i % buffers;
        let start = eng.now();
        let (key, ready) = match strategy {
            "register-each" => {
                let cost = registration_cost(LEN);
                let key = cl.mr(a, MrBuilder::pinned(LEN).at(bases[buf])).key;
                peak_pinned = peak_pinned.max(LEN);
                (key, eng.now() + cost)
            }
            "pin-down-cache" => {
                let (key, ready) = cache.acquire(&mut eng, &mut cl, bases[buf], LEN);
                peak_pinned = peak_pinned.max(cache.stats().peak_pinned_bytes);
                (key, ready)
            }
            "odp" => (odp_keys[buf], eng.now()),
            "pinned" => (pinned_keys[buf], eng.now()),
            other => panic!("unknown strategy {other}"),
        };
        let wr = WrId(i as u64);
        let at = ready.max(eng.now());
        let read = ReadWr::new(key, remote.key).len(4096).id(wr);
        cl.post_at(&mut eng, at, a, qp, read);
        eng.run(&mut cl, eng.now() + HORIZON)
            .unwrap_or_else(|s| panic!("{strategy}: {s}"));
        let cq = cl.poll_cq(a);
        assert_eq!(cq.len(), 1, "{strategy}: transfer completes");
        assert!(cq[0].status.is_success());
        let mut elapsed = cq[0].at - start;
        if strategy == "register-each" {
            // The buffer is deregistered after use.
            elapsed += deregistration_cost(LEN);
        }
        total += elapsed;
    }
    (total / transfers as u64, peak_pinned)
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
    for strategy in ["register-each", "pin-down-cache", "odp", "pinned"] {
        let (mean, pinned) = memory_strategy_run(strategy, 64, 8);
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
