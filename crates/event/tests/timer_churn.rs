//! Timer-churn stress test: the exact workload that leaked under the old
//! tombstone queue. A seeded loop arms, cancels, and re-arms thousands of
//! keyed timers over wrapping 24-bit PSN-style keys; afterwards the heap
//! must hold exactly the live timers and nothing else, two identical runs
//! must behave identically, and draining must leave zero residue.

use ibsim_event::{Engine, SimTime, SplitMix64, TimerKey};

const PSN_MODULUS: u64 = 1 << 24;
const HOSTS: u64 = 4;
const QPS: u64 = 8;
const ROUNDS: usize = 10_000;

#[derive(Default)]
struct World {
    fires: Vec<(u64, u64)>,
}

/// A keyed timer slot mimicking the cluster's (family, host, qpn, psn)
/// layout, with the PSN component wrapping mod 2^24.
fn slot(host: u64, qpn: u64, psn: u64) -> TimerKey {
    TimerKey(host, (qpn << 32) | (psn % PSN_MODULUS))
}

/// One full churn run; returns (fire log, final stats tuple).
#[expect(
    clippy::type_complexity,
    reason = "the fire log and the five stats counters, compared whole between two runs"
)]
fn churn(seed: u64) -> (Vec<(u64, u64)>, (u64, u64, u64, u64, u64)) {
    let mut rng = SplitMix64::new(seed);
    let mut eng: Engine<World> = Engine::new();
    let mut world = World::default();

    // PSNs deliberately start near the 24-bit wrap point so the modular
    // reduction in `slot` is exercised, not just defined.
    let mut psn = PSN_MODULUS - 64;

    for round in 0..ROUNDS {
        let host = rng.next_below(HOSTS);
        let qpn = rng.next_below(QPS);
        // ACK/RNR-style slot: one per (host, qpn), so re-arms collide and
        // exercise replace-on-rearm.
        let ack_key = slot(host, qpn, 0);
        // Stall-tick-style slot: keyed by a wrapping 24-bit PSN, so the
        // modular key space is exercised too.
        let stall_key = slot(host, qpn, psn);
        psn = psn.wrapping_add(1 + rng.next_below(3));

        match rng.next_below(10) {
            // 40 %: (re-)arm the ACK slot — replaces any previous event.
            0..=3 => {
                let delay = SimTime::from_ns(1 + rng.next_below(5_000));
                let tag = (round as u64, host);
                eng.schedule_keyed_in(ack_key, delay, move |w: &mut World, _| {
                    w.fires.push(tag);
                });
            }
            // 20 %: arm a fresh stall tick under a wrapping PSN key.
            4..=5 => {
                let delay = SimTime::from_ns(1 + rng.next_below(5_000));
                let tag = (round as u64, qpn);
                eng.schedule_keyed_in(stall_key, delay, move |w: &mut World, _| {
                    w.fires.push(tag);
                });
            }
            // 20 %: cancel by key (may be a miss — that must be benign).
            6..=7 => {
                eng.cancel_key(if rng.next_bool() { ack_key } else { stall_key });
            }
            // 10 %: cancel-then-immediately-rearm, the retransmit pattern.
            8 => {
                eng.cancel_key(ack_key);
                let delay = SimTime::from_ns(1 + rng.next_below(5_000));
                let tag = (round as u64, qpn);
                eng.schedule_keyed_in(ack_key, delay, move |w: &mut World, _| {
                    w.fires.push(tag);
                });
            }
            // 10 %: let simulated time advance so some timers fire.
            _ => {
                let until = eng.now() + SimTime::from_ns(rng.next_below(2_000));
                eng.run_until(&mut world, until);
            }
        }

        // The core leak invariant: every pending event is live, and every
        // keyed slot maps to exactly one of them.
        assert_eq!(
            eng.queue_stats().dead_pending,
            0,
            "round {round}: dead entries leaked"
        );
        assert!(
            eng.keyed_timers() <= eng.pending_events(),
            "round {round}: more keyed slots than live events"
        );
    }

    // Drain completely: nothing may remain, live or otherwise.
    eng.run(&mut world);
    assert_eq!(eng.pending_events(), 0, "live events leaked after drain");
    assert_eq!(eng.keyed_timers(), 0, "keyed slots leaked after drain");

    let s = eng.queue_stats();
    assert_eq!(s.dead_pending, 0, "dead entries leaked after drain");
    // Conservation: everything scheduled either executed, was physically
    // cancelled, or was replaced by a re-arm of its slot.
    assert_eq!(
        s.scheduled,
        s.executed + s.cancelled + s.replaced,
        "event conservation violated: {s:?}"
    );
    // The whole point of the rewrite: popping never sees a tombstone.
    assert_eq!(s.dead_pops, 0, "dead-event pops on an indexed heap");

    (
        world.fires,
        (
            s.scheduled,
            s.executed,
            s.cancelled,
            s.replaced,
            s.peak_depth as u64,
        ),
    )
}

#[test]
fn churn_is_deterministic_and_leak_free() {
    let (fires_a, stats_a) = churn(0xDEC0DE);
    let (fires_b, stats_b) = churn(0xDEC0DE);
    assert_eq!(fires_a, fires_b, "same seed must give identical fire order");
    assert_eq!(stats_a, stats_b, "same seed must give identical counters");
    assert!(!fires_a.is_empty(), "scenario should actually fire timers");
    assert!(stats_a.3 > 0, "scenario should actually replace-on-rearm");
}

#[test]
fn churn_varies_with_seed() {
    let (fires_a, _) = churn(1);
    let (fires_b, _) = churn(2);
    assert_ne!(fires_a, fires_b, "different seeds should diverge");
}

#[test]
fn golden_trace_equality_under_interleaved_churn() {
    // A fixed foreground workload must produce a byte-identical fire log
    // whether or not unrelated keyed timers churn around it — i.e. churn
    // affects *capacity*, never *ordering* of surviving events.
    fn run(with_churn: bool) -> Vec<(u64, u64)> {
        let mut eng: Engine<World> = Engine::new();
        let mut world = World::default();
        for i in 0..64u64 {
            let at = SimTime::from_ns(100 + i * 37);
            eng.schedule_at(at, move |w: &mut World, _| w.fires.push((i, 0)));
        }
        if with_churn {
            // Arm-and-cancel background timers that never survive to fire.
            let mut rng = SplitMix64::new(9);
            for i in 0..1_000u64 {
                let key = slot(i % HOSTS, i % QPS, PSN_MODULUS - 8 + i);
                let delay = SimTime::from_ns(1 + rng.next_below(3_000));
                eng.schedule_keyed_in(key, delay, move |w: &mut World, _| {
                    w.fires.push((u64::MAX, i));
                });
                assert!(eng.cancel_key(key), "just armed, must cancel");
            }
        }
        eng.run(&mut world);
        world.fires
    }

    let quiet = run(false);
    let churned = run(true);
    assert_eq!(quiet, churned, "background churn perturbed the fire order");
    assert_eq!(quiet.len(), 64);
}
