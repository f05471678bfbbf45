//! A typed event lives in the engine's slot arena: once the arena, the
//! heap and the key index have reached the size a workload needs,
//! posting, re-arming, cancelling and firing allocate nothing at all.
//!
//! The allocation counters are per thread, so the tests of this binary
//! can run in parallel without billing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ibsim_event::{Engine, Event, EventFn, SimTime, SplitMix64, TimerKey};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

struct Counting;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread past its TLS teardown is not one a test measures.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is plain thread-local data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A closed event set with the boxed closure kept as one variant.
enum Tick {
    Add(u64),
    /// A timer that re-arms its own key when it fires, `left` more times.
    Chain {
        key: TimerKey,
        left: u32,
    },
    Call(EventFn<u64, Tick>),
}

impl Event<u64> for Tick {
    fn fire(self, world: &mut u64, eng: &mut Engine<u64, Tick>) {
        match self {
            Tick::Add(n) => *world += n,
            Tick::Chain { key, left } => {
                *world += 1;
                if left > 0 {
                    let at = eng.now() + SimTime::from_ns(700);
                    eng.post_keyed_at(
                        key,
                        at,
                        Tick::Chain {
                            key,
                            left: left - 1,
                        },
                    );
                }
            }
            Tick::Call(f) => f(world, eng),
        }
    }

    fn from_call(f: EventFn<u64, Tick>) -> Self {
        Tick::Call(f)
    }
}

const KEYS: u64 = 64;
const RESIDENT: usize = 96;

/// One round: a plain post, an arm or re-arm (earlier or later), a chain
/// timer, a doomed timer, two cancels by key, then fire back down to the
/// resident population.
fn round(eng: &mut Engine<u64, Tick>, world: &mut u64, rng: &mut SplitMix64) {
    let now = eng.now();
    let after = |rng: &mut SplitMix64, span: u64| now + SimTime::from_ns(1 + rng.next_below(span));
    eng.post_at(after(rng, 2_000), Tick::Add(1));
    let doomed = TimerKey(3, rng.next_below(KEYS));
    eng.post_keyed_at(doomed, after(rng, 2_000), Tick::Add(1 << 32));
    let key = TimerKey(1, rng.next_below(KEYS));
    eng.post_keyed_at(key, after(rng, 50_000), Tick::Add(2));
    eng.post_keyed_at(key, after(rng, 50_000), Tick::Add(3));
    let chain = TimerKey(2, rng.next_below(KEYS));
    eng.post_keyed_at(
        chain,
        after(rng, 1_000),
        Tick::Chain {
            key: chain,
            left: 2,
        },
    );
    eng.cancel_key(TimerKey(1, rng.next_below(KEYS)));
    assert!(eng.cancel_key(doomed));
    while eng.pending_events() > RESIDENT {
        assert!(eng.step(world));
    }
}

#[test]
fn typed_events_allocate_nothing_in_steady_state() {
    let mut eng: Engine<u64, Tick> = Engine::new();
    let mut world = 0u64;
    let mut rng = SplitMix64::new(0xA110C);
    // Warm-up: every key armed at once, a thousand rounds, then a full
    // drain so the free list has held every slot.
    for k in 0..KEYS {
        eng.post_keyed_at(TimerKey(1, k), SimTime::from_us(10), Tick::Add(0));
        eng.post_keyed_at(TimerKey(2, k), SimTime::from_us(10), Tick::Add(0));
    }
    for _ in 0..1_000 {
        round(&mut eng, &mut world, &mut rng);
    }
    eng.run(&mut world, HORIZON).expect("the world quiesces");
    let warm = eng.queue_stats();

    let before = ALLOCATIONS.get();
    for _ in 0..10_000 {
        round(&mut eng, &mut world, &mut rng);
    }
    let allocated = ALLOCATIONS.get() - before;
    let s = eng.queue_stats();
    assert_eq!(allocated, 0, "after {s}");
    assert!(world < 1 << 32, "a cancelled event fired");
    assert!(s.executed - warm.executed > 20_000, "{s}");
    assert!(s.replaced - warm.replaced > 10_000, "{s}");
    assert!(s.cancelled - warm.cancelled > 10_000, "{s}");
    assert_eq!(s.peak_depth, warm.peak_depth, "the warm-up saw the peak");
}

#[test]
fn a_boxed_closure_is_the_only_allocation_of_the_variant_that_carries_it() {
    let mut eng: Engine<u64, Tick> = Engine::new();
    let mut world = 0u64;
    for i in 0..8 {
        eng.post_at(SimTime::from_ns(i), Tick::Add(1));
    }
    eng.run(&mut world, HORIZON).expect("the world quiesces");
    let bias = [7u64; 4];
    let before = ALLOCATIONS.get();
    for i in 0..8 {
        eng.schedule_in(SimTime::from_ns(i), move |w, _| *w += bias[0]);
    }
    eng.run(&mut world, HORIZON).expect("the world quiesces");
    assert_eq!(ALLOCATIONS.get() - before, 8, "one box per closure");
    assert_eq!(world, 8 + 8 * 7);
}
