//! Seeded model test: the engine against a reference small enough to be
//! right by inspection — a `Vec` of pending events popped by minimum
//! `(at, seq)` and a `BTreeMap` of armed keys, where a keyed re-arm is
//! literally remove-then-insert. Under a random mix of every scheduling
//! and execution call, the two must agree after every operation on the
//! fired sequence, the clock, the armed deadlines and the whole
//! [`QueueStats`].

use std::collections::BTreeMap;

use ibsim_event::{Engine, QueueStats, SimTime, SplitMix64, TimerKey};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

/// Tag bit of an event scheduled by a firing event.
const CHILD: u64 = 1 << 63;

/// What one scheduled event is, in both worlds.
#[derive(Debug, Clone, Copy)]
struct Ev {
    tag: u64,
    key: Option<TimerKey>,
    /// On firing, re-arm the own key this many nanoseconds ahead (the
    /// cluster's stall tick does exactly this).
    rearm_after: Option<u64>,
}

/// The tags of the fired events, in fire order.
type World = Vec<u64>;

fn schedule(eng: &mut Engine<World>, at: u64, ev: Ev) {
    let run = move |w: &mut World, eng: &mut Engine<World>| {
        w.push(ev.tag);
        if let (Some(key), Some(after)) = (ev.key, ev.rearm_after) {
            let tag = ev.tag | CHILD;
            eng.schedule_keyed_in(key, SimTime::from_ns(after), move |w: &mut World, _| {
                w.push(tag)
            });
        }
    };
    match ev.key {
        Some(key) => eng.schedule_keyed_at(key, SimTime::from_ns(at), run),
        None => eng.schedule_at(SimTime::from_ns(at), run),
    }
}

struct Pending {
    at: u64,
    seq: u64,
    ev: Ev,
}

/// The parent commit's semantics, written the slow way.
#[derive(Default)]
struct Reference {
    now: u64,
    last_executed_at: u64,
    next_seq: u64,
    pending: Vec<Pending>,
    /// `key → seq` of the event armed under it.
    keys: BTreeMap<TimerKey, u64>,
    stats: QueueStats,
    fired: Vec<u64>,
}

impl Reference {
    fn remove(&mut self, pos: usize) -> Pending {
        let p = self.pending.remove(pos);
        if let Some(key) = p.ev.key {
            if self.keys.get(&key) == Some(&p.seq) {
                self.keys.remove(&key);
            }
        }
        p
    }

    fn position_of_key(&self, key: TimerKey) -> Option<usize> {
        let seq = *self.keys.get(&key)?;
        self.pending.iter().position(|p| p.seq == seq)
    }

    fn schedule(&mut self, at: u64, ev: Ev) {
        assert!(at >= self.now);
        if let Some(pos) = ev.key.and_then(|k| self.position_of_key(k)) {
            self.remove(pos);
            self.stats.replaced += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        if let Some(key) = ev.key {
            self.keys.insert(key, seq);
        }
        self.pending.push(Pending { at, seq, ev });
        self.stats.peak_depth = self.stats.peak_depth.max(self.pending.len());
    }

    fn cancel_key(&mut self, key: TimerKey) -> bool {
        let Some(pos) = self.position_of_key(key) else {
            return false;
        };
        self.remove(pos);
        self.stats.cancelled += 1;
        true
    }

    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].at, self.pending[i].seq))
    }

    fn next_event_time(&self) -> Option<u64> {
        self.head().map(|i| self.pending[i].at)
    }

    fn step(&mut self) -> bool {
        let Some(pos) = self.head() else {
            return false;
        };
        let p = self.remove(pos);
        self.now = p.at;
        self.last_executed_at = p.at;
        self.stats.executed += 1;
        self.fired.push(p.ev.tag);
        if let (Some(key), Some(after)) = (p.ev.key, p.ev.rearm_after) {
            let child = Ev {
                tag: p.ev.tag | CHILD,
                key: Some(key),
                rearm_after: None,
            };
            self.schedule(self.now + after, child);
        }
        true
    }

    fn run_until(&mut self, deadline: u64) {
        while self.next_event_time().is_some_and(|at| at <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    fn stats(&self) -> QueueStats {
        QueueStats {
            live: self.pending.len(),
            keyed_live: self.keys.len(),
            ..self.stats
        }
    }

    fn key_deadline(&self, key: TimerKey) -> Option<SimTime> {
        self.position_of_key(key)
            .map(|pos| SimTime::from_ns(self.pending[pos].at))
    }

    /// `(at, seq)` of the event armed under `key`: its place in the
    /// firing order.
    fn armed(&self, key: TimerKey) -> Option<(u64, u64)> {
        let p = &self.pending[self.position_of_key(key)?];
        Some((p.at, p.seq))
    }
}

/// The engine's private key mix, mirrored so that a key set can be built
/// to share one low-bit pattern — one home position in the index at every
/// table size up to `2^bits`. Should the engine's mix change, this test
/// loses that collision pressure (the unit test beside the index keeps
/// it: it picks hashes directly) but none of its checks.
fn mirrored_mix(key: TimerKey) -> u32 {
    SplitMix64::new(key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key.1).next_u64() as u32
}

fn colliding_keys(n: usize, bits: u32) -> Vec<TimerKey> {
    let mask = (1u32 << bits) - 1;
    (0u64..)
        .map(|i| TimerKey(3, i))
        .filter(|&k| mirrored_mix(k) & mask == 0x155 & mask)
        .take(n)
        .collect()
}

/// Keys shaped like the cluster's: (family, host) and (QP, PSN).
fn cluster_keys(n: u64) -> Vec<TimerKey> {
    (0..n)
        .map(|i| TimerKey(((i % 3) << 48) | (i % 4), ((i % 50) << 32) | (i / 7)))
        .collect()
}

/// Keys in each lane-shaped timer family.
const FAMILY: u64 = 48;
/// The delay of the fixed family, armed in bursts as the stall tick is.
const FIXED_DELAY: u64 = 7_000;
/// The drifting family's base delay; its offset walks, as `T_o` does
/// with the recovery load.
const DRIFT_DELAY: u64 = 9_000;

fn fixed_key(i: u64) -> TimerKey {
    TimerKey(0xF1, i)
}

fn drift_key(i: u64) -> TimerKey {
    TimerKey(0xD1, i)
}

/// Traffic shaped like the cluster's: timers armed at one delay, which the
/// queue's lanes exploit, timers whose delay drifts, one-shots posted
/// nearly in time order with a rare far one, and re-arms and cancels at a
/// lane's head, middle and tail.
#[derive(Default)]
struct LaneTraffic {
    drift: u64,
    /// The nearly monotone one-shots' last time.
    near: u64,
}

impl LaneTraffic {
    /// Runs one lane-shaped operation of kind `kind` (0–3); returns the
    /// key it touched, if one.
    fn op(
        &mut self,
        h: &mut Harness,
        rng: &mut SplitMix64,
        kind: u64,
        tag: u64,
    ) -> Option<TimerKey> {
        let now = h.model.now;
        let timer = |tag, key, rearm_after| Ev {
            tag,
            key: Some(key),
            rearm_after,
        };
        match kind {
            0 => {
                let mut key = None;
                for i in 0..1 + rng.next_below(4) {
                    let k = fixed_key(rng.next_below(FAMILY));
                    let again = (rng.next_below(2) == 0).then_some(FIXED_DELAY);
                    h.schedule(now + FIXED_DELAY, timer(tag | i << 32, k, again));
                    key = Some(k);
                }
                key
            }
            1 => {
                self.drift = (self.drift + rng.next_below(17)).saturating_sub(8).min(300);
                let k = drift_key(rng.next_below(FAMILY));
                h.schedule(now + DRIFT_DELAY + self.drift, timer(tag, k, None));
                Some(k)
            }
            2 => {
                let at = if rng.next_below(40) == 0 {
                    now + 100_000 + rng.next_below(100_000)
                } else {
                    self.near = self.near.max(now) + rng.next_below(100);
                    self.near
                };
                let ev = Ev {
                    tag,
                    key: None,
                    rearm_after: None,
                };
                h.schedule(at, ev);
                None
            }
            _ => {
                // The fixed family in firing order: its lane, head first.
                let mut lane: Vec<(u64, u64, TimerKey)> = (0..FAMILY)
                    .map(fixed_key)
                    .filter_map(|k| h.model.armed(k).map(|(at, seq)| (at, seq, k)))
                    .collect();
                lane.sort_unstable();
                let at = match rng.next_below(3) {
                    0 => lane.first(),
                    1 => lane.get(lane.len() / 2),
                    _ => lane.last(),
                };
                let &(_, _, k) = at?;
                match rng.next_below(3) {
                    0 => assert_eq!(h.eng.cancel_key(k), h.model.cancel_key(k), "{k}"),
                    1 => h.schedule(now + FIXED_DELAY, timer(tag, k, None)),
                    _ => h.schedule(now + rng.next_below(20_000), timer(tag, k, None)),
                }
                Some(k)
            }
        }
    }
}

struct Harness {
    eng: Engine<World>,
    world: World,
    model: Reference,
    keys: Vec<TimerKey>,
}

impl Harness {
    fn schedule(&mut self, at: u64, ev: Ev) {
        schedule(&mut self.eng, at, ev);
        self.model.schedule(at, ev);
    }

    /// Compares everything cheap after an operation; `key` is the key the
    /// operation touched.
    fn check(&self, op: usize, key: Option<TimerKey>) {
        let model = &self.model;
        assert_eq!(self.eng.queue_stats(), model.stats(), "op {op}");
        assert_eq!(self.eng.now(), SimTime::from_ns(model.now), "op {op}");
        assert_eq!(
            self.eng.last_executed_at(),
            SimTime::from_ns(model.last_executed_at)
        );
        assert_eq!(
            self.eng.next_event_time(),
            model.next_event_time().map(SimTime::from_ns),
            "op {op}"
        );
        assert_eq!(self.eng.pending_events(), model.pending.len());
        assert_eq!(self.eng.keyed_timers(), model.keys.len());
        assert_eq!(self.world.len(), model.fired.len(), "op {op}");
        assert_eq!(self.world.last(), model.fired.last(), "op {op}");
        if let Some(key) = key {
            assert_eq!(self.eng.key_deadline(key), model.key_deadline(key));
            assert_eq!(self.eng.key_armed(key), model.keys.contains_key(&key));
        }
    }

    /// The expensive comparison: every key, and the whole fire log.
    fn check_all_keys(&self, op: usize) {
        for &key in &self.keys {
            assert_eq!(
                self.eng.key_deadline(key),
                self.model.key_deadline(key),
                "op {op}: {key}"
            );
        }
        assert_eq!(self.world, self.model.fired, "op {op}");
    }
}

fn run_model(seed: u64, keys: Vec<TimerKey>, ops: usize) -> (usize, QueueStats) {
    let mut rng = SplitMix64::new(seed);
    let random_keys = keys.len() as u64;
    let families = (0..FAMILY).flat_map(|i| [fixed_key(i), drift_key(i)]);
    let mut h = Harness {
        eng: Engine::new(),
        world: World::default(),
        model: Reference::default(),
        keys: keys.into_iter().chain(families).collect(),
    };
    let mut traffic = LaneTraffic::default();
    let mut peak_keyed = 0;
    for op in 0..ops {
        // Three phases: arm-heavy (the index grows through several
        // sizes), cancel-heavy (it drains by backward shifts), mixed.
        let (arm, cancel_key) = match op * 3 / ops {
            0 => (45, 5),
            1 => (10, 45),
            _ => (30, 15),
        };
        let now = h.model.now;
        // Times land on a coarse grid so that many events tie on `at`
        // and only the insertion order separates them.
        let grid = |at: u64| (at & !63).max(now);
        let key = h.keys[rng.next_below(random_keys) as usize];
        let tag = op as u64;
        let roll = rng.next_below(100);
        let shape = rng.next_below(10);
        let mut touched = None;
        if shape < 4 {
            touched = traffic.op(&mut h, &mut rng, shape, tag);
        } else if roll < arm {
            // Re-arm to an earlier, the same or a later time when armed.
            let at = match h.model.key_deadline(key).map(|d| d.as_ns()) {
                Some(d) => match rng.next_below(3) {
                    0 => grid(d.saturating_sub(rng.next_below(5_000))),
                    1 => d,
                    _ => grid(d + rng.next_below(5_000)),
                },
                None => grid(now + rng.next_below(200_000)),
            };
            let rearm_after = (rng.next_below(4) == 0).then(|| rng.next_below(3_000));
            h.schedule(
                at,
                Ev {
                    tag,
                    key: Some(key),
                    rearm_after,
                },
            );
            touched = Some(key);
        } else if roll < arm + cancel_key {
            assert_eq!(h.eng.cancel_key(key), h.model.cancel_key(key), "op {op}");
            touched = Some(key);
        } else if roll < arm + cancel_key + 15 {
            let ev = Ev {
                tag,
                key: None,
                rearm_after: None,
            };
            h.schedule(grid(now + rng.next_below(2_000)), ev);
        } else if roll < arm + cancel_key + 30 {
            assert_eq!(h.eng.step(&mut h.world), h.model.step(), "op {op}");
        } else {
            let deadline = now + rng.next_below(400);
            h.eng.run_until(&mut h.world, SimTime::from_ns(deadline));
            h.model.run_until(deadline);
        }
        h.check(op, touched);
        peak_keyed = peak_keyed.max(h.model.keys.len());
        if op % 512 == 0 {
            h.check_all_keys(op);
        }
    }
    h.check_all_keys(ops);
    // Every key cancels exactly as the model says; the one-shots left
    // then drain in the model's order.
    for key in h.keys.clone() {
        assert_eq!(h.eng.cancel_key(key), h.model.cancel_key(key), "{key}");
    }
    h.check(ops, None);
    h.eng
        .run(&mut h.world, HORIZON)
        .expect("the world quiesces");
    while h.model.step() {}
    h.check(ops, None);
    h.check_all_keys(ops);
    assert_eq!(h.eng.pending_events(), 0);
    (peak_keyed, h.eng.queue_stats())
}

#[test]
fn engine_agrees_with_the_reference_on_cluster_shaped_keys() {
    let (peak_keyed, stats) = run_model(0x1B51, cluster_keys(600), 30_000);
    assert!(peak_keyed > 128, "{peak_keyed} keys armed at once");
    assert!(stats.replaced > 1_000 && stats.cancelled > 1_000, "{stats}");
    assert!(stats.executed > 1_000, "{stats}");
}

#[test]
fn engine_agrees_with_the_reference_on_keys_that_collide_in_the_index() {
    // 1 200 keys on one 9-bit pattern: with a few hundred armed the
    // index has grown at least six times (8 → 512 cells and beyond) and
    // every table size up to 512 cells has held them in a single run.
    let (peak_keyed, stats) = run_model(0xC0111DE, colliding_keys(1_200, 9), 30_000);
    assert!(peak_keyed > 256, "{peak_keyed} keys armed at once");
    assert!(stats.replaced > 500 && stats.cancelled > 1_000, "{stats}");
}

#[test]
fn engine_agrees_with_the_reference_across_seeds() {
    for seed in 1..=8 {
        run_model(seed, cluster_keys(64), 4_000);
    }
}
