//! Randomized tests of the DES kernel: ordering, cancellation, and
//! determinism invariants under arbitrary schedules.
//!
//! These were property-based (`proptest`) tests; they now run as seeded
//! loops over the in-tree [`SplitMix64`] generator so the suite needs no
//! external dependencies and every failure reproduces from its seed.

use ibsim_event::{Engine, SimTime, SplitMix64, TimerKey};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

const CASES: u64 = 64;

/// Events always observe a monotonically non-decreasing clock, and all
/// of them run exactly once.
#[test]
fn clock_is_monotone() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC10C * 1000 + case);
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let mut eng: Engine<Vec<u64>> = Engine::new();
        for &t in &times {
            eng.schedule_at(SimTime::from_ns(t), move |w, eng| {
                w.push(eng.now().as_ns());
            });
        }
        let mut seen = Vec::new();
        eng.run(&mut seen, HORIZON).expect("the world quiesces");
        assert_eq!(seen.len(), times.len(), "case {case}");
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "case {case}");
    }
}

/// Cancelling an arbitrary subset of keys removes exactly the events
/// armed under them.
#[test]
fn cancellation_is_exact() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xCA7CE1 * 1000 + case);
        let n = rng.range(1, 100) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(100_000)).collect();
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.next_bool()).collect();
        let key = |i: usize| TimerKey(case, i as u64);
        let mut eng: Engine<Vec<usize>> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_keyed_at(key(i), SimTime::from_ns(t), move |w, _| w.push(i));
        }
        let mut expect: Vec<usize> = Vec::new();
        for (i, &cancel) in cancel_mask.iter().enumerate() {
            if cancel {
                assert!(eng.cancel_key(key(i)), "case {case}: fresh cancel succeeds");
            } else {
                expect.push(i);
            }
        }
        expect.sort_by_key(|&i| (times[i], i));
        let mut seen = Vec::new();
        eng.run(&mut seen, HORIZON).expect("the world quiesces");
        assert_eq!(seen, expect, "case {case}");
    }
}

/// `run_until` then `run` sees exactly the same events in the same order
/// as a single `run` — pausing the engine is transparent.
#[test]
fn run_until_is_transparent() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5117 * 1000 + case);
        let n = rng.range(1, 150) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let split = rng.next_below(1_000_000);
        let schedule = |eng: &mut Engine<Vec<(u64, usize)>>, times: &[u64]| {
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_ns(t), move |w, eng| {
                    w.push((eng.now().as_ns(), i));
                });
            }
        };
        let mut a: Engine<Vec<(u64, usize)>> = Engine::new();
        schedule(&mut a, &times);
        let mut one_shot = Vec::new();
        a.run(&mut one_shot, HORIZON).expect("the world quiesces");

        let mut b: Engine<Vec<(u64, usize)>> = Engine::new();
        schedule(&mut b, &times);
        let mut paused = Vec::new();
        b.run_until(&mut paused, SimTime::from_ns(split));
        b.run(&mut paused, HORIZON).expect("the world quiesces");

        assert_eq!(one_shot, paused, "case {case} (split {split})");
    }
}
