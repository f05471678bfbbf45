//! The discrete-event engine.
//!
//! [`Engine`] owns a queue of scheduled events, two *indexed* binary
//! min-heaps, over a *world* (the user's state, generic parameter `W`).
//! An event is a value of the engine's second parameter `E`, anything
//! implementing [`Event`]: firing it hands it mutable access to the world
//! and to the engine itself, so handlers can schedule follow-up events. `E`
//! defaults to [`Call`], a boxed closure, so `Engine<W>` with the
//! closure-taking `schedule_*` methods is the whole API a small model
//! needs; a model with a closed set of hot events names them in an enum
//! (keeping a boxed closure as one variant) and posts them by value with
//! [`post_at`](Engine::post_at) / [`post_keyed_at`](Engine::post_keyed_at),
//! which allocates nothing. Events at equal timestamps fire in insertion
//! order, which makes every run bit-for-bit deterministic.
//!
//! ## Layout: two tiers over one arena
//!
//! The timer-heavy regimes this simulator exists for — thousands of QPs
//! rearming retransmit timers every ~0.5 ms (§VI packet flood) — make the
//! queue itself the hot path, so an event costs its handler and not its
//! container:
//!
//! * two **tiers**, each a binary min-heap of three words per event,
//!   `(at, seq, slot)`. The *timer tier* holds every keyed event (posted
//!   through [`post_keyed_at`](Engine::post_keyed_at) or a
//!   `schedule_keyed_*` method), the *event tier* every one-shot
//!   (deliveries, driver completions, posts, calls). Keyed means timer
//!   because a key is what a protocol timer is: a long-lived slot per QP,
//!   re-armed and cancelled in place, while a one-shot is popped
//!   microseconds after it is pushed. Under the flood ~800 blind
//!   retransmit ticks wait in the timer tier while the event tier holds
//!   the few packets in flight, so a packet's push and pop sift a heap of
//!   a handful of entries instead of one a thousand deep.
//!   [`step`](Engine::step) and [`run_until`](Engine::run_until) compare
//!   the two roots once per event and pop the lower, so the firing order
//!   is the one strict `(at, seq)` order of a single heap;
//! * in both tiers a rank is one `u128` (`at` above `seq`), so a
//!   comparison has no branch, and sifts move a hole rather than swap, so
//!   a level copies 24 bytes and never touches a payload. A pop goes
//!   bottom-up: the hole walks the smaller-child path to a leaf, one
//!   comparison per level, and the displaced tail sifts up from there. It
//!   came from the bottom, so it rarely climbs far, and because ranks are
//!   unique it lands exactly where a top-down sift would have stopped;
//! * the **position table** maps `slot → (generation, tier, index)` in 8
//!   bytes, the tier in the index word's top bit (so each tier holds
//!   fewer than 2^31 − 1 events), updated once per level moved. It is what
//!   makes [`cancel`](Engine::cancel) a physical O(log n) removal,
//!   [`next_event_time`](Engine::next_event_time) an O(1) peek and queue
//!   occupancy observable ([`queue_stats`](Engine::queue_stats), whose
//!   depths sum the tiers): there are no tombstones, so
//!   [`dead_event_pops`](Engine::dead_event_pops) stays zero by
//!   construction;
//! * the **payload arena** holds each event and its [`TimerKey`] in the
//!   slot it was given when scheduled. Nothing moves it until it fires:
//!   the arena grows by whole pages, never by reallocating.
//!
//! An [`EventId`] packs a slot number and the slot's generation; freed
//! slots are recycled through one LIFO free list shared by both tiers.
//! Slot assignment and the free-list discipline are deterministic, and
//! event *ordering* never consults them — both tiers rank strictly by
//! `(time, insertion seq)`, and `seq` is one counter across them — so
//! neither the arena nor the split into tiers can perturb a run.
//!
//! ## Keyed timers
//!
//! Protocol timers (ACK timeout, RNR wait, blind-retransmit ticks) are
//! *slots*: re-arming replaces the previous event rather than piling a
//! new one next to a stale gen-guarded no-op. The engine models this with
//! [`TimerKey`]-addressed scheduling
//! ([`schedule_keyed_in`](Engine::schedule_keyed_in) /
//! [`cancel_key`](Engine::cancel_key)): at most one live event exists per
//! key. Keys resolve through a private open-addressed index — O(1), and
//! never iterated, so its layout cannot reach event order — and arming
//! an armed key **re-arms in place**: time, `seq` and payload are
//! overwritten in the same slot, the slot's generation is bumped, and
//! its timer-tier entry sifts once. That is observably the
//! remove-then-insert it replaces: the LIFO free list would have handed
//! the freed slot straight back, one generation on, so the returned
//! [`EventId`], the `scheduled`/`replaced` counters and the new `seq` are
//! the same.

use std::fmt;
use std::marker::PhantomData;

use crate::rng::SplitMix64;
use crate::time::SimTime;

/// Handle to a scheduled event, usable to [cancel](Engine::cancel) it.
///
/// Internally packs an arena slot index (low 32 bits) and that slot's
/// generation at scheduling time (high 32 bits); a stale handle — the
/// event fired, was cancelled or re-armed, or its slot was recycled —
/// simply fails to resolve. The handle is opaque: only its
/// `Eq`/`Ord`/`Hash` identity is meaningful, never the packed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn slot(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    fn pack(slot: u32, generation: u32) -> Self {
        EventId(((generation as u64) << 32) | slot as u64)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}.{}", self.slot(), self.generation())
    }
}

/// Address of a replaceable timer slot: at most one live event exists per
/// key (see [`Engine::schedule_keyed_in`]). The two words are free-form;
/// `ibsim-verbs` packs (timer family, host) and (QP number, PSN) into
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerKey(pub u64, pub u64);

impl fmt::Display for TimerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer({:#x},{:#x})", self.0, self.1)
    }
}

/// A boxed closure over the world and an engine of `E` events: what the
/// closure-taking `schedule_*` methods box their argument into.
pub type EventFn<W, E> = Box<dyn FnOnce(&mut W, &mut Engine<W, E>)>;

/// What an [`Engine`] schedules: a value that can be fired, and that a
/// boxed closure can be wrapped into (so every engine, whatever its
/// event type, still takes closures from tests and upper layers).
///
/// This is a parameter of the engine and not a bound on the world — an
/// associated `World::Event` — because worlds like `u64` or `Vec<u32>`
/// are foreign types a caller could not implement a world trait for;
/// with a defaulted parameter `Engine<u64>` just works.
pub trait Event<W>: Sized {
    /// Runs the event at its scheduled time.
    fn fire(self, world: &mut W, eng: &mut Engine<W, Self>);

    /// Wraps a boxed closure as an event of this type.
    fn from_call(f: EventFn<W, Self>) -> Self;
}

/// The default event type: a boxed closure, one allocation per event.
pub struct Call<W>(EventFn<W, Call<W>>);

impl<W> Event<W> for Call<W> {
    #[inline]
    fn fire(self, world: &mut W, eng: &mut Engine<W, Self>) {
        (self.0)(world, eng)
    }

    #[inline]
    fn from_call(f: EventFn<W, Self>) -> Self {
        Call(f)
    }
}

/// One heap entry. The payload stays in the arena under `slot`.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    /// Global insertion order — the determinism tiebreak. Never reused.
    seq: u64,
    slot: u32,
}

impl Node {
    /// Lexicographic (time, insertion order) min-heap rank as one integer,
    /// so comparing two is branch-free. Unique: no two nodes share a `seq`.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_ns()) << 64) | u128::from(self.seq)
    }
}

/// Index into [`Engine::tiers`] of the one-shot events.
const EVENTS: usize = 0;
/// Index into [`Engine::tiers`] of the keyed timers.
const TIMERS: usize = 1;

/// One position-table entry: where the slot's live event currently sits,
/// and a generation counter bumped whenever the occupant changes so stale
/// [`EventId`]s cannot alias the current one.
#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    /// The occupying event's tier in the top bit ([`Tier::tag`]) and its
    /// index in that tier's heap below it, or [`Slot::FREE`].
    idx: u32,
}

impl Slot {
    const FREE: u32 = u32::MAX;

    /// `(tier, heap index)` of an occupied slot's `idx`.
    #[inline]
    fn locate(idx: u32) -> (usize, usize) {
        ((idx >> 31) as usize, (idx & (u32::MAX >> 1)) as usize)
    }
}

/// One tier of the queue: an indexed binary min-heap on [`Node::rank`]
/// whose every move is mirrored into the position table it is handed.
struct Tier {
    heap: Vec<Node>,
    /// The tier number in [`Slot::idx`]'s top bit.
    tag: u32,
}

impl Tier {
    /// Events one tier may hold: its last index, tagged, stays below
    /// [`Slot::FREE`].
    const CAP: usize = (1 << 31) - 1;

    fn new(tier: usize) -> Self {
        Tier {
            heap: Vec::new(),
            tag: (tier as u32) << 31,
        }
    }

    /// Rank of the root, or `u128::MAX` when empty. No live rank reaches
    /// that: its `seq` would be the 2^64-th schedule.
    #[inline]
    fn root_rank(&self) -> u128 {
        self.heap.first().map_or(u128::MAX, Node::rank)
    }

    /// Writes `node` at heap index `idx` and records the position.
    #[inline]
    fn put(&mut self, slots: &mut [Slot], idx: usize, node: Node) {
        self.heap[idx] = node;
        slots[node.slot as usize].idx = idx as u32 | self.tag;
    }

    fn push(&mut self, slots: &mut [Slot], node: Node) {
        let idx = self.heap.len();
        self.heap.push(node);
        self.sift_up(slots, idx, node);
    }

    /// Settles `node` at or above the hole at `idx`: parents move down
    /// into the hole until the next one ranks lower than `node`.
    fn sift_up(&mut self, slots: &mut [Slot], mut idx: usize, node: Node) {
        let rank = node.rank();
        while idx > 0 {
            let parent = (idx - 1) / 2;
            let p = self.heap[parent];
            if rank > p.rank() {
                break;
            }
            self.put(slots, idx, p);
            idx = parent;
        }
        self.put(slots, idx, node);
    }

    /// Settles `node` through the hole at `idx`, bottom-up: the smaller
    /// child moves up into the hole all the way to a leaf, one comparison
    /// per level, then `node` sifts up from there — past `idx` if it
    /// outranks the hole's parent. With unique ranks that is where a
    /// top-down sift would have stopped.
    fn sift_down(&mut self, slots: &mut [Slot], mut idx: usize, node: Node) {
        let len = self.heap.len();
        let mut child = 2 * idx + 1;
        while child + 1 < len {
            child += usize::from(self.heap[child + 1].rank() < self.heap[child].rank());
            self.put(slots, idx, self.heap[child]);
            idx = child;
            child = 2 * idx + 1;
        }
        if child < len {
            self.put(slots, idx, self.heap[child]);
            idx = child;
        }
        self.sift_up(slots, idx, node);
    }

    /// Takes out the node at `idx`; the displaced tail fills the hole.
    fn remove(&mut self, slots: &mut [Slot], idx: usize) -> Node {
        let removed = self.heap[idx];
        let tail = self
            .heap
            .pop()
            .expect("invariant: idx names a heap entry, so the heap is non-empty");
        if idx < self.heap.len() {
            self.sift_down(slots, idx, tail);
        }
        removed
    }
}

/// One payload-arena entry, parallel to the position table.
struct Cell<E> {
    key: Option<TimerKey>,
    /// `Some` exactly while the slot is live.
    ev: Option<E>,
}

/// The payload arena: cells in pages of [`Arena::PAGE`]. The first page
/// grows as a `Vec` does, so a small world stays small; every later one
/// is allocated whole. Growing therefore never moves a live cell, and a
/// large world's footprint does not depend on whether the allocator could
/// extend a megabyte block in place.
struct Arena<E> {
    pages: Vec<Vec<Cell<E>>>,
}

impl<E> Arena<E> {
    const SHIFT: u32 = 10;
    const PAGE: usize = 1 << Self::SHIFT;

    fn push(&mut self, cell: Cell<E>) {
        match self.pages.last_mut() {
            Some(page) if page.len() < Self::PAGE => page.push(cell),
            full => {
                let whole = if full.is_some() { Self::PAGE } else { 0 };
                let mut page = Vec::with_capacity(whole);
                page.push(cell);
                self.pages.push(page);
            }
        }
    }
}

impl<E> std::ops::Index<usize> for Arena<E> {
    type Output = Cell<E>;

    #[inline]
    fn index(&self, slot: usize) -> &Cell<E> {
        &self.pages[slot >> Self::SHIFT][slot & (Self::PAGE - 1)]
    }
}

impl<E> std::ops::IndexMut<usize> for Arena<E> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut Cell<E> {
        &mut self.pages[slot >> Self::SHIFT][slot & (Self::PAGE - 1)]
    }
}

/// One cell of the [`KeyIndex`]: the slot armed under some key, and the
/// key's hash so that probing, deletion and growth never read the arena.
#[derive(Debug, Clone, Copy)]
struct IndexCell {
    slot: u32,
    hash: u32,
}

/// `TimerKey → slot` for every armed key: open addressing over a
/// power-of-two table, linear probing, at most half full, deletion by
/// backward shift (no tombstones, so probe lengths do not degrade under
/// the arm/cancel churn that is this table's whole life). A cell names a
/// slot; the key itself is compared where it already lives, in the
/// arena. The table is never iterated except to rehash into a larger
/// one, so its layout cannot reach event order.
#[derive(Debug, Default)]
struct KeyIndex {
    cells: Vec<IndexCell>,
    len: usize,
}

impl KeyIndex {
    const EMPTY: u32 = u32::MAX;

    /// A fixed SplitMix64 mix of the two key words.
    #[inline]
    fn hash(key: TimerKey) -> u32 {
        SplitMix64::new(key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key.1).next_u64() as u32
    }

    /// Table position of the first cell on `hash`'s probe path that
    /// `hit` accepts, or `None` on reaching an empty cell.
    #[inline]
    fn probe(&self, hash: u32, hit: impl Fn(u32) -> bool) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let c = self.cells[i];
            if c.slot == Self::EMPTY {
                return None;
            }
            if c.hash == hash && hit(c.slot) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot armed under `key`, whose arena is `arena`.
    #[inline]
    fn get<E>(&self, arena: &Arena<E>, key: TimerKey, hash: u32) -> Option<u32> {
        self.probe(hash, |slot| arena[slot as usize].key == Some(key))
            .map(|i| self.cells[i].slot)
    }

    /// Records `slot` under a key hashing to `hash` that is not armed.
    fn insert(&mut self, slot: u32, hash: u32) {
        if (self.len + 1) * 2 > self.cells.len() {
            let grown = (self.cells.len() * 2).max(8);
            let empty = IndexCell {
                slot: Self::EMPTY,
                hash: 0,
            };
            let old = std::mem::replace(&mut self.cells, vec![empty; grown]);
            for c in old.into_iter().filter(|c| c.slot != Self::EMPTY) {
                self.place(c);
            }
        }
        self.place(IndexCell { slot, hash });
        self.len += 1;
    }

    fn place(&mut self, cell: IndexCell) {
        let mask = self.cells.len() - 1;
        let mut i = cell.hash as usize & mask;
        while self.cells[i].slot != Self::EMPTY {
            i = (i + 1) & mask;
        }
        self.cells[i] = cell;
    }

    /// Forgets `slot`, armed under a key hashing to `hash`, closing the
    /// gap by shifting back every later cell of the run that may move.
    fn remove(&mut self, slot: u32, hash: u32) {
        let mut hole = self
            .probe(hash, |s| s == slot)
            .expect("invariant: a keyed live event is in the key index");
        let mask = self.cells.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let c = self.cells[j];
            if c.slot == Self::EMPTY {
                break;
            }
            // `c` may move into the hole unless its home position lies
            // cyclically after the hole (it would become unreachable).
            let from_home = j.wrapping_sub(c.hash as usize) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.cells[hole] = c;
                hole = j;
            }
        }
        self.cells[hole].slot = Self::EMPTY;
        self.len -= 1;
    }
}

/// Occupancy and churn counters of an [`Engine`]'s event queue.
///
/// Depths count both tiers. `dead_pops` and `dead_pending` exist to
/// *prove a negative*: the indexed heaps remove cancelled events
/// physically, so both stay at zero by construction. Reports and CI
/// gates pin them there so a future regression back to tombstone
/// cancellation is caught immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events currently scheduled (live entries only).
    pub live: usize,
    /// Cancelled events still occupying heap slots (always 0).
    pub dead_pending: usize,
    /// Events executed so far.
    pub executed: u64,
    /// Pops that found a cancelled event (always 0).
    pub dead_pops: u64,
    /// Maximum simultaneous live events observed.
    pub peak_depth: usize,
    /// Total `schedule_*` / `post_*` calls.
    pub scheduled: u64,
    /// Events physically removed by `cancel` / `cancel_key`.
    pub cancelled: u64,
    /// Events replaced by a keyed re-arm on the same [`TimerKey`].
    pub replaced: u64,
    /// Keyed timer slots currently armed.
    pub keyed_live: usize,
}

impl fmt::Display for QueueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "live={} executed={} dead_pops={} peak={} scheduled={} \
             cancelled={} replaced={} keyed={}",
            self.live,
            self.executed,
            self.dead_pops,
            self.peak_depth,
            self.scheduled,
            self.cancelled,
            self.replaced,
            self.keyed_live
        )
    }
}

/// A deterministic discrete-event simulation engine over a world `W`,
/// scheduling events of type `E` (boxed closures unless named).
///
/// # Examples
///
/// ```
/// use ibsim_event::{Engine, SimTime};
///
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_in(SimTime::from_us(5), |w, eng| {
///     *w += 1;
///     eng.schedule_in(SimTime::from_us(5), |w, _| *w += 10);
/// });
/// let mut world = 0u32;
/// engine.run(&mut world);
/// assert_eq!(world, 11);
/// assert_eq!(engine.now(), SimTime::from_us(10));
/// ```
///
/// A closed event type fires without a box:
///
/// ```
/// use ibsim_event::{Engine, Event, EventFn, SimTime};
///
/// enum Tick {
///     Add(u32),
///     Call(EventFn<u32, Tick>),
/// }
///
/// impl Event<u32> for Tick {
///     fn fire(self, w: &mut u32, eng: &mut Engine<u32, Tick>) {
///         match self {
///             Tick::Add(n) => *w += n,
///             Tick::Call(f) => f(w, eng),
///         }
///     }
///     fn from_call(f: EventFn<u32, Tick>) -> Self {
///         Tick::Call(f)
///     }
/// }
///
/// let mut engine: Engine<u32, Tick> = Engine::new();
/// engine.post_at(SimTime::from_us(1), Tick::Add(2));
/// engine.schedule_at(SimTime::from_us(2), |w, _| *w *= 10);
/// let mut world = 0;
/// engine.run(&mut world);
/// assert_eq!(world, 20);
/// ```
pub struct Engine<W, E = Call<W>> {
    now: SimTime,
    /// The one-shot tier ([`EVENTS`]) and the keyed-timer tier
    /// ([`TIMERS`]): indexed binary min-heaps on `(at, seq)` holding
    /// exactly the live events between them (cancellation removes).
    tiers: [Tier; 2],
    /// The position table: `id.slot() → (tier, heap index)` and generation.
    slots: Vec<Slot>,
    /// The payload arena, parallel to `slots`.
    cells: Arena<E>,
    /// Freed slot indices, recycled LIFO (deterministic, cache-warm).
    free: Vec<u32>,
    /// `key → slot` of the single live event armed under each timer key.
    keyed: KeyIndex,
    next_seq: u64,
    executed: u64,
    scheduled_total: u64,
    cancelled_total: u64,
    replaced_total: u64,
    /// Pops that found a cancelled event. The indexed heap removes
    /// cancelled entries physically, so this is zero by construction;
    /// the counter (and the analysis-crate invariant over it) exists to
    /// catch a regression back to tombstone cancellation.
    dead_pops: u64,
    peak_depth: usize,
    /// Event pops whose timestamp preceded the clock. A non-zero value
    /// means the min-heap ordering invariant broke — causality is gone.
    monotonicity_violations: u64,
    /// Timestamp of the last event actually executed. Unlike `now`, this
    /// is *not* advanced by a `run_until` deadline, so a sharded run —
    /// whose clocks park at epoch boundaries — can still recover the
    /// sequential run's final event time (max over shards).
    last_executed_at: SimTime,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E> fmt::Debug for Engine<W, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field(
                "pending",
                &(self.tiers[EVENTS].heap.len() + self.tiers[TIMERS].heap.len()),
            )
            .field("executed", &self.executed)
            .field("peak_depth", &self.peak_depth)
            .finish()
    }
}

impl<W, E: Event<W>> Engine<W, E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`]. Nothing is
    /// allocated until the first event is scheduled.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            tiers: [Tier::new(EVENTS), Tier::new(TIMERS)],
            slots: Vec::new(),
            cells: Arena { pages: Vec::new() },
            free: Vec::new(),
            keyed: KeyIndex::default(),
            next_seq: 0,
            executed: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            replaced_total: 0,
            dead_pops: 0,
            peak_depth: 0,
            monotonicity_violations: 0,
            last_executed_at: SimTime::ZERO,
            _world: PhantomData,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timestamp of the last executed event ([`SimTime::ZERO`] before any
    /// event ran). Unlike [`now`](Engine::now), a
    /// [`run_until`](Engine::run_until) deadline does not advance this, so
    /// it reports where the *work* ended rather than where the clock was
    /// parked.
    #[inline]
    pub fn last_executed_at(&self) -> SimTime {
        self.last_executed_at
    }

    /// Number of *live* events still pending, in both tiers. Cancelled
    /// events are physically removed, so — unlike the old tombstone
    /// engine — this never overstates queue depth.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.tiers[EVENTS].heap.len() + self.tiers[TIMERS].heap.len()
    }

    /// Pops that found a cancelled event (zero by construction; see
    /// [`QueueStats::dead_pops`]).
    #[inline]
    pub fn dead_event_pops(&self) -> u64 {
        self.dead_pops
    }

    /// Keyed timer slots currently armed.
    #[inline]
    pub fn keyed_timers(&self) -> usize {
        self.keyed.len
    }

    /// Snapshot of every queue counter.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            live: self.pending_events(),
            dead_pending: 0,
            executed: self.executed,
            dead_pops: self.dead_pops,
            peak_depth: self.peak_depth,
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            replaced: self.replaced_total,
            keyed_live: self.keyed.len,
        }
    }

    /// Number of event pops that violated clock monotonicity: counted,
    /// never panicked on, so a broken heap shows up in the same counter
    /// reports as every other runtime invariant.
    #[inline]
    pub fn monotonicity_violations(&self) -> u64 {
        self.monotonicity_violations
    }

    // ------------------------------------------------------------------
    // Two-tier plumbing
    // ------------------------------------------------------------------

    /// Resolves an id to the `(tier, heap index)` of its live event, or
    /// `None` if the event already fired, was cancelled, or the slot was
    /// recycled.
    #[inline]
    fn live_idx(&self, id: EventId) -> Option<(usize, usize)> {
        let slot = self.slots.get(id.slot())?;
        (slot.generation == id.generation() && slot.idx != Slot::FREE)
            .then(|| Slot::locate(slot.idx))
    }

    /// The tier whose root fires next, if any event is pending: the one
    /// whose root ranks lower (an empty tier's root ranks last).
    #[inline]
    fn next_tier(&self) -> Option<usize> {
        let [events, timers] = &self.tiers;
        let tier = usize::from(timers.root_rank() < events.root_rank());
        (!self.tiers[tier].heap.is_empty()).then_some(tier)
    }

    /// Physically removes the entry at `idx` of tier `tier`, frees its
    /// arena slot (unlinking its key) and restores the heap property;
    /// returns the removed event and its time.
    fn remove_at(&mut self, tier: usize, idx: usize) -> (SimTime, E) {
        let removed = self.tiers[tier].remove(&mut self.slots, idx);
        let slot = &mut self.slots[removed.slot as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.idx = Slot::FREE;
        self.free.push(removed.slot);
        let cell = &mut self.cells[removed.slot as usize];
        if let Some(key) = cell.key.take() {
            self.keyed.remove(removed.slot, KeyIndex::hash(key));
        }
        let ev = cell
            .ev
            .take()
            .expect("invariant: a slot in a tier holds its event");
        (removed.at, ev)
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
    }

    /// Takes the next insertion sequence number, counting one schedule.
    fn stamp(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        seq
    }

    /// Schedules `ev` in a fresh slot: in the timer tier when it is keyed,
    /// in the event tier otherwise.
    #[inline]
    fn insert(&mut self, at: SimTime, key: Option<TimerKey>, ev: E) -> EventId {
        let tier = if key.is_some() { TIMERS } else { EVENTS };
        assert!(
            self.tiers[tier].heap.len() < Tier::CAP,
            "invariant: fewer than 2^31 - 1 events are live in one tier"
        );
        let seq = self.stamp();
        let slot = match self.free.pop() {
            Some(s) => {
                let cell = &mut self.cells[s as usize];
                cell.key = key;
                cell.ev = Some(ev);
                s
            }
            None => {
                // Two tiers below their caps hold fewer than 2^32 - 2
                // events, so a fresh slot number fits a `u32`.
                self.slots.push(Slot {
                    generation: 0,
                    idx: Slot::FREE,
                });
                self.cells.push(Cell { key, ev: Some(ev) });
                (self.slots.len() - 1) as u32
            }
        };
        self.tiers[tier].push(&mut self.slots, Node { at, seq, slot });
        self.peak_depth = self.peak_depth.max(self.pending_events());
        EventId::pack(slot, self.slots[slot as usize].generation)
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Schedules the event `ev` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (`at < self.now()`): rewinding the
    /// clock would silently corrupt causality, so it is a programming error.
    #[inline]
    pub fn post_at(&mut self, at: SimTime, ev: E) -> EventId {
        self.assert_not_past(at);
        self.insert(at, None, ev)
    }

    /// Schedules the event `ev` at absolute time `at` under timer slot
    /// `key`, *replacing* any event currently armed under that key (the
    /// old event will never fire and its [`EventId`] goes stale). This is
    /// the re-arm semantics protocol timers want: no gen-guarded no-op
    /// events left behind in the queue. A replacement counts as one
    /// `scheduled` and one `replaced` in [`QueueStats`].
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past, leaving the engine — an event
    /// already armed under `key` included — exactly as it was.
    pub fn post_keyed_at(&mut self, key: TimerKey, at: SimTime, ev: E) -> EventId {
        self.assert_not_past(at);
        let hash = KeyIndex::hash(key);
        let Some(slot) = self.keyed.get(&self.cells, key, hash) else {
            let id = self.insert(at, Some(key), ev);
            self.keyed.insert(id.slot() as u32, hash);
            return id;
        };
        // Re-arm in place: what removing the old event and inserting the
        // new one would leave behind, without the two index operations,
        // the slot round trip through the free list and the second sift.
        let seq = self.stamp();
        self.replaced_total += 1;
        self.cells[slot as usize].ev = Some(ev);
        let pos = &mut self.slots[slot as usize];
        pos.generation = pos.generation.wrapping_add(1);
        let ((tier, idx), generation) = (Slot::locate(pos.idx), pos.generation);
        let timers = &mut self.tiers[tier];
        // `seq` only grows, so the entry moves up exactly when its time
        // moved earlier.
        let earlier = at < timers.heap[idx].at;
        let node = Node { at, seq, slot };
        if earlier {
            timers.sift_up(&mut self.slots, idx, node);
        } else {
            timers.sift_down(&mut self.slots, idx, node);
        }
        EventId::pack(slot, generation)
    }

    /// Schedules `f` to run at absolute time `at`; see
    /// [`post_at`](Engine::post_at).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        self.post_at(at, E::from_call(Box::new(f)))
    }

    /// Schedules `f` to run after relative delay `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` at absolute time `at` under timer slot `key`; see
    /// [`post_keyed_at`](Engine::post_keyed_at).
    pub fn schedule_keyed_at(
        &mut self,
        key: TimerKey,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        self.post_keyed_at(key, at, E::from_call(Box::new(f)))
    }

    /// Schedules `f` after `delay` under timer slot `key`; see
    /// [`post_keyed_at`](Engine::post_keyed_at).
    pub fn schedule_keyed_in(
        &mut self,
        key: TimerKey,
        delay: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) -> EventId {
        self.schedule_keyed_at(key, self.now + delay, f)
    }

    /// `(tier, heap index)` of the event armed under `key`, if any.
    #[inline]
    fn key_idx(&self, key: TimerKey) -> Option<(usize, usize)> {
        let slot = self.keyed.get(&self.cells, key, KeyIndex::hash(key))?;
        Some(Slot::locate(self.slots[slot as usize].idx))
    }

    /// True if an event is currently armed under `key`.
    pub fn key_armed(&self, key: TimerKey) -> bool {
        self.key_idx(key).is_some()
    }

    /// Fire time of the event armed under `key`, if any.
    pub fn key_deadline(&self, key: TimerKey) -> Option<SimTime> {
        self.key_idx(key)
            .map(|(tier, idx)| self.tiers[tier].heap[idx].at)
    }

    /// Cancels the event armed under timer slot `key`, physically
    /// removing it from the queue. Returns `true` if one was armed.
    pub fn cancel_key(&mut self, key: TimerKey) -> bool {
        let Some((tier, idx)) = self.key_idx(key) else {
            return false;
        };
        self.remove_at(tier, idx);
        self.cancelled_total += 1;
        true
    }

    /// Cancels a previously scheduled event, physically removing it from
    /// the queue in O(log n).
    ///
    /// Returns `true` if the event had not yet fired (and therefore will
    /// not fire). Cancelling an already-executed or already-cancelled event
    /// returns `false` and is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some((tier, idx)) = self.live_idx(id) else {
            return false;
        };
        self.remove_at(tier, idx);
        self.cancelled_total += 1;
        true
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs events until the queue is empty.
    pub fn run(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    /// Runs events whose time is `<= deadline`, then stops.
    ///
    /// The clock is left at the time of the last executed event (or moved to
    /// `deadline` if that is later and the queue still holds future events).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(tier) = self.next_tier() {
            if self.tiers[tier].heap[0].at > deadline {
                break;
            }
            self.fire_root(tier, world);
        }
        if deadline != SimTime::MAX && self.now < deadline {
            self.now = deadline;
        }
    }

    /// Executes exactly one event if one is pending; returns whether it did.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(tier) = self.next_tier() else {
            return false;
        };
        self.fire_root(tier, world);
        true
    }

    /// Pops the root of tier `tier` and fires it.
    #[inline]
    fn fire_root(&mut self, tier: usize, world: &mut W) {
        let (at, ev) = self.remove_at(tier, 0);
        if at < self.now {
            self.monotonicity_violations += 1;
        }
        self.now = at;
        self.last_executed_at = at;
        self.executed += 1;
        ev.fire(world, self);
    }

    /// Time of the next pending event, if any — an O(1) peek at the lower
    /// of the two roots (every entry is live; cancellation removes
    /// physically).
    #[inline]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_tier().map(|tier| self.tiers[tier].heap[0].at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_us(30), |w, _| w.push(3));
        eng.schedule_at(SimTime::from_us(10), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_us(20), |w, _| w.push(2));
        let mut out = Vec::new();
        eng.run(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(eng.now(), SimTime::from_us(30));
        assert_eq!(eng.queue_stats().executed, 3);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let t = SimTime::from_us(5);
        for i in 0..100 {
            eng.schedule_at(t, move |w, _| w.push(i));
        }
        let mut out = Vec::new();
        eng.run(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng: Engine<Vec<SimTime>> = Engine::new();
        fn tick(w: &mut Vec<SimTime>, eng: &mut Engine<Vec<SimTime>>) {
            w.push(eng.now());
            if w.len() < 4 {
                eng.schedule_in(SimTime::from_us(7), tick);
            }
        }
        eng.schedule_at(SimTime::ZERO, tick);
        let mut out = Vec::new();
        eng.run(&mut out);
        assert_eq!(
            out,
            vec![
                SimTime::ZERO,
                SimTime::from_us(7),
                SimTime::from_us(14),
                SimTime::from_us(21)
            ]
        );
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_at(SimTime::from_us(10), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_us(20), |w, _| *w += 100);
        assert!(eng.cancel(id));
        assert!(!eng.cancel(id), "double cancel reports false");
        let mut w = 0;
        eng.run(&mut w);
        assert_eq!(w, 100);
    }

    #[test]
    fn cancel_after_execution_is_false() {
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_at(SimTime::from_us(1), |w, _| *w += 1);
        let mut w = 0;
        eng.run(&mut w);
        assert!(!eng.cancel(id));
    }

    #[test]
    fn cancel_physically_removes() {
        let mut eng: Engine<u32> = Engine::new();
        let ids: Vec<_> = (0..10)
            .map(|i| eng.schedule_at(SimTime::from_us(i), |_, _| {}))
            .collect();
        assert_eq!(eng.pending_events(), 10);
        for id in &ids[..5] {
            assert!(eng.cancel(*id));
        }
        // No tombstones: the queue depth drops immediately.
        assert_eq!(eng.pending_events(), 5);
        assert_eq!(eng.queue_stats().cancelled, 5);
        let mut w = 0;
        eng.run(&mut w);
        let s = eng.queue_stats();
        assert_eq!((s.executed, s.dead_pending, s.dead_pops), (5, 0, 0));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_us(10), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_us(30), |w, _| w.push(2));
        let mut out = Vec::new();
        eng.run_until(&mut out, SimTime::from_us(20));
        assert_eq!(out, vec![1]);
        assert_eq!(eng.now(), SimTime::from_us(20));
        eng.run(&mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn step_executes_one_event() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_us(1), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_us(2), |w, _| *w += 1);
        let mut w = 0;
        assert!(eng.step(&mut w));
        assert_eq!(w, 1);
        assert!(eng.step(&mut w));
        assert!(!eng.step(&mut w));
        assert_eq!(w, 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_us(10), |_, eng| {
            eng.schedule_at(SimTime::from_us(5), |_, _| {});
        });
        let mut w = 0;
        eng.run(&mut w);
    }

    #[test]
    fn next_event_time_skips_cancelled() {
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_at(SimTime::from_us(5), |_, _| {});
        eng.schedule_at(SimTime::from_us(9), |_, _| {});
        assert_eq!(eng.next_event_time(), Some(SimTime::from_us(5)));
        eng.cancel(id);
        assert_eq!(eng.next_event_time(), Some(SimTime::from_us(9)));
    }

    #[test]
    fn world_with_shared_state() {
        // Regression test: handlers may close over Rc'd state.
        let hits = Rc::new(RefCell::new(0));
        let mut eng: Engine<()> = Engine::new();
        for _ in 0..10 {
            let h = Rc::clone(&hits);
            eng.schedule_in(SimTime::from_us(1), move |_, _| *h.borrow_mut() += 1);
        }
        eng.run(&mut ());
        assert_eq!(*hits.borrow(), 10);
    }

    #[test]
    fn keyed_rearm_replaces_previous_event() {
        let key = TimerKey(1, 7);
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_keyed_at(key, SimTime::from_us(10), |w, _| w.push(1));
        assert!(eng.key_armed(key));
        assert_eq!(eng.key_deadline(key), Some(SimTime::from_us(10)));
        // Re-arm: the first event must never fire.
        eng.schedule_keyed_at(key, SimTime::from_us(20), |w, _| w.push(2));
        assert_eq!(eng.pending_events(), 1, "replace, not accumulate");
        assert_eq!(eng.key_deadline(key), Some(SimTime::from_us(20)));
        let mut out = Vec::new();
        eng.run(&mut out);
        assert_eq!(out, vec![2]);
        assert!(!eng.key_armed(key));
        assert_eq!(eng.queue_stats().replaced, 1);
    }

    #[test]
    fn rearming_into_the_past_leaves_the_engine_as_it_was() {
        let key = TimerKey(4, 2);
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_us(10), |w, _| w.push(1));
        let armed = eng.schedule_keyed_at(key, SimTime::from_us(30), |w, _| w.push(3));
        eng.schedule_at(SimTime::from_us(20), |w, _| w.push(2));
        let mut out = Vec::new();
        eng.run_until(&mut out, SimTime::from_us(15));
        let before = eng.queue_stats();
        let rearm = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.schedule_keyed_at(key, SimTime::from_us(5), |w, _| w.push(99))
        }));
        assert!(rearm.is_err(), "scheduling into the past panics");
        assert_eq!(eng.queue_stats(), before);
        assert_eq!(eng.key_deadline(key), Some(SimTime::from_us(30)));
        eng.run(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(!eng.cancel(armed), "the armed event fired under its own id");
    }

    #[test]
    fn rearm_in_place_returns_the_id_a_remove_then_insert_would() {
        let key = TimerKey(7, 7);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_us(1), |_, _| {});
        let first = eng.schedule_keyed_at(key, SimTime::from_us(50), |w, _| *w += 1);
        // Same slot, next generation: what the LIFO free list hands back.
        let second = eng.schedule_keyed_at(key, SimTime::from_us(5), |w, _| *w += 10);
        assert_eq!((second.slot(), second.generation()), (first.slot(), 1));
        assert!(!eng.cancel(first), "the replaced id is stale");
        let s = eng.queue_stats();
        assert_eq!(
            (s.scheduled, s.replaced, s.live, s.peak_depth),
            (3, 1, 2, 2)
        );
        // Later again, then cancel by the live id: the slot frees once.
        let third = eng.schedule_keyed_at(key, SimTime::from_us(90), |w, _| *w += 100);
        assert_eq!(eng.key_deadline(key), Some(SimTime::from_us(90)));
        assert!(eng.cancel(third));
        assert!(!eng.key_armed(key));
        let mut w = 0;
        eng.run(&mut w);
        assert_eq!(w, 0);
        assert_eq!(eng.queue_stats().executed, 1);
    }

    #[test]
    fn arena_grows_by_pages_and_never_moves_a_cell() {
        let mut arena: Arena<u32> = Arena { pages: Vec::new() };
        let cell = |i: usize| Cell {
            key: None,
            ev: Some(i as u32),
        };
        arena.push(cell(0));
        assert!(
            arena.pages[0].capacity() < Arena::<u32>::PAGE,
            "the first page starts small"
        );
        for i in 1..Arena::<u32>::PAGE {
            arena.push(cell(i));
        }
        let first: *const Cell<u32> = &arena[0];
        for i in Arena::<u32>::PAGE..2 * Arena::<u32>::PAGE + 1 {
            arena.push(cell(i));
        }
        assert_eq!(arena.pages.len(), 3);
        assert!(std::ptr::eq(first, &arena[0]), "growth moved a live cell");
        assert!(arena
            .pages
            .iter()
            .all(|p| p.capacity() == Arena::<u32>::PAGE));
        for i in 0..2 * Arena::<u32>::PAGE + 1 {
            assert_eq!(arena[i].ev, Some(i as u32));
        }
        arena[Arena::<u32>::PAGE].ev = None;
        assert_eq!(arena[Arena::<u32>::PAGE].ev, None);
    }

    #[test]
    fn key_index_survives_colliding_churn_and_growth() {
        // Every key hashes to the same home position, so the whole table
        // is one probe run and each removal is a long backward shift.
        const SLOTS: usize = 512;
        let mut arena: Arena<()> = Arena { pages: Vec::new() };
        for k in 0..SLOTS as u64 {
            arena.push(Cell {
                key: Some(TimerKey(k, !k)),
                ev: None,
            });
        }
        let hash = |slot: u32| 5 | (slot % 3) << 16;
        let key = |slot: u32| TimerKey(slot as u64, !(slot as u64));
        let mut index = KeyIndex::default();
        let mut rng = SplitMix64::new(11);
        let mut armed = vec![false; SLOTS];
        for round in 0..20_000 {
            // Fill in the first half of the run, drain in the second, so
            // the table grows several times and then empties.
            let slot = rng.next_below(SLOTS as u64) as u32;
            let want = if round < 10_000 {
                rng.next_below(4) > 0
            } else {
                rng.next_below(4) == 0
            };
            if want && !armed[slot as usize] {
                index.insert(slot, hash(slot));
            } else if !want && armed[slot as usize] {
                index.remove(slot, hash(slot));
            } else {
                continue;
            }
            armed[slot as usize] = want;
            if round % 97 == 0 {
                for s in 0..SLOTS as u32 {
                    let found = index.get(&arena, key(s), hash(s));
                    assert_eq!(found, armed[s as usize].then_some(s), "round {round}");
                }
            }
        }
        assert_eq!(index.len, armed.iter().filter(|&&a| a).count());
        assert!(
            index.cells.len() >= 512,
            "the table grew past its first sizes"
        );
    }

    #[test]
    fn cancel_key_removes_event() {
        let key = TimerKey(3, 4);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_in(key, SimTime::from_us(5), |w, _| *w += 1);
        assert!(eng.key_armed(key));
        assert!(eng.cancel_key(key));
        assert!(!eng.cancel_key(key), "double cancel reports false");
        assert_eq!(eng.pending_events(), 0);
        let mut w = 0;
        eng.run(&mut w);
        assert_eq!(w, 0, "cancelled keyed timer never fires");
    }

    #[test]
    fn cancel_by_id_frees_keyed_slot() {
        let key = TimerKey(2, 2);
        let mut eng: Engine<u32> = Engine::new();
        let id = eng.schedule_keyed_in(key, SimTime::from_us(5), |w, _| *w += 1);
        assert!(eng.cancel(id));
        assert!(!eng.key_armed(key), "id cancel unlinks the key slot");
        assert_eq!(eng.keyed_timers(), 0);
    }

    #[test]
    fn keyed_slot_clears_after_fire() {
        let key = TimerKey(9, 9);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_in(key, SimTime::from_us(5), |w, _| *w += 1);
        let mut w = 0;
        eng.run(&mut w);
        assert_eq!(w, 1);
        assert!(!eng.key_armed(key), "slot is free after the event fires");
        assert_eq!(eng.keyed_timers(), 0);
    }

    #[test]
    fn stale_ids_do_not_alias_recycled_slots() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule_at(SimTime::from_us(1), |w, _| *w += 1);
        assert!(eng.cancel(a));
        // The freed slot is recycled for the next event; the stale handle
        // must not resolve to (and cancel) the new occupant.
        let b = eng.schedule_at(SimTime::from_us(2), |w, _| *w += 10);
        assert_ne!(a, b);
        assert!(!eng.cancel(a), "stale id after recycle is inert");
        let mut w = 0;
        eng.run(&mut w);
        assert_eq!(w, 10);
        assert!(!eng.cancel(b), "fired id is inert");
    }

    #[test]
    fn heavy_churn_keeps_physical_cancellation_invariants() {
        // Schedule/cancel storm across interleaved times: the arena must
        // keep ids straight while slots recycle constantly.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut live = Vec::new();
        for round in 0..50u64 {
            for i in 0..20u64 {
                let tag = round * 100 + i;
                let id =
                    eng.schedule_at(SimTime::from_us(1000 + (tag % 37)), move |w, _| w.push(tag));
                live.push((tag, id));
            }
            // Cancel every third outstanding event.
            let mut idx = 0;
            live.retain(|&(_, id)| {
                idx += 1;
                if idx % 3 == 0 {
                    assert!(eng.cancel(id));
                    false
                } else {
                    true
                }
            });
        }
        let expect: Vec<u64> = {
            let mut v: Vec<(u64, EventId)> = live.clone();
            // Equal times fire in insertion order; sort by (time, tag)
            // since tags are assigned in insertion order per time bucket.
            v.sort_by_key(|&(tag, _)| (1000 + (tag % 37), tag));
            v.into_iter().map(|(tag, _)| tag).collect()
        };
        let mut out = Vec::new();
        eng.run(&mut out);
        assert_eq!(out, expect);
        let s = eng.queue_stats();
        assert_eq!((s.dead_pops, s.dead_pending, s.live), (0, 0, 0));
    }

    #[test]
    fn last_executed_at_ignores_deadline_parking() {
        let mut eng: Engine<u32> = Engine::new();
        assert_eq!(eng.last_executed_at(), SimTime::ZERO);
        eng.schedule_at(SimTime::from_us(10), |w, _| *w += 1);
        let mut w = 0;
        eng.run_until(&mut w, SimTime::from_us(50));
        // The clock parks at the deadline; the work ended at 10 µs.
        assert_eq!(eng.now(), SimTime::from_us(50));
        assert_eq!(eng.last_executed_at(), SimTime::from_us(10));
        eng.schedule_at(SimTime::from_us(60), |w, _| *w += 1);
        assert!(eng.step(&mut w));
        assert_eq!(eng.last_executed_at(), SimTime::from_us(60));
    }

    #[test]
    fn queue_stats_track_churn() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule_at(SimTime::from_us(1), |_, _| {});
        eng.schedule_at(SimTime::from_us(2), |_, _| {});
        assert_eq!(eng.queue_stats().peak_depth, 2);
        eng.cancel(a);
        let mut w = 0;
        eng.run(&mut w);
        let s = eng.queue_stats();
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.executed, 1);
        assert_eq!(s.dead_pops, 0);
        assert_eq!(s.peak_depth, 2);
        assert_eq!(s.live, 0);
        assert_eq!(format!("{s}"), s.to_string());
    }

    /// Every structural invariant of the queue, checked from scratch: each
    /// tier is a heap on `(at, seq)`; every live slot's recorded tier and
    /// index point back at it; the free slots are exactly the free list;
    /// keyed slots sit only in the timer tier, each found under its key.
    fn check_invariants<W, E>(eng: &Engine<W, E>) {
        let mut live = 0;
        for (tier, t) in eng.tiers.iter().enumerate() {
            for (i, node) in t.heap.iter().enumerate() {
                if i > 0 {
                    let parent = t.heap[(i - 1) / 2];
                    assert!(parent.rank() < node.rank(), "tier {tier}: no heap at {i}");
                }
                let slot = node.slot as usize;
                assert_eq!(
                    Slot::locate(eng.slots[slot].idx),
                    (tier, i),
                    "slot {slot} does not point back"
                );
                let cell = &eng.cells[slot];
                assert!(cell.ev.is_some(), "live slot {slot} holds no event");
                assert_eq!(
                    cell.key.is_some(),
                    tier == TIMERS,
                    "slot {slot}: tier {tier}"
                );
                if let Some(key) = cell.key {
                    let found = eng.keyed.get(&eng.cells, key, KeyIndex::hash(key));
                    assert_eq!(found, Some(node.slot), "{key}");
                }
                live += 1;
            }
        }
        let free: Vec<u32> = (0..eng.slots.len() as u32)
            .filter(|&s| eng.slots[s as usize].idx == Slot::FREE)
            .collect();
        for &s in &free {
            let cell = &eng.cells[s as usize];
            assert!(cell.ev.is_none() && cell.key.is_none(), "free slot {s}");
        }
        let mut list = eng.free.clone();
        list.sort_unstable();
        assert_eq!(list, free, "the free slots are not the free list");
        assert_eq!(live + free.len(), eng.slots.len());
        assert_eq!(eng.keyed.len, eng.tiers[TIMERS].heap.len());
    }

    #[test]
    fn tiers_keep_their_invariants_through_a_seeded_operation_mix() {
        // The world logs the clock at every fire.
        let mut eng: Engine<Vec<SimTime>> = Engine::new();
        let mut world = Vec::new();
        let mut rng = SplitMix64::new(0x2713);
        let mut ids = Vec::new();
        let mut peak = [0; 2];
        for _ in 0..20_000 {
            let now = eng.now();
            // A coarse grid makes timers and one-shots tie on `at`.
            let at = SimTime::from_ns((now.as_ns() + rng.next_below(40_000)) & !63).max(now);
            let key = TimerKey(rng.next_below(2), rng.next_below(300));
            match rng.next_below(10) {
                0..=2 => ids.push(eng.schedule_at(at, |w, eng| w.push(eng.now()))),
                3..=5 => {
                    // A third re-arm their own key when they fire, as the
                    // stall tick does.
                    let again = rng.next_below(3) == 0;
                    ids.push(eng.schedule_keyed_at(key, at, move |w, eng| {
                        w.push(eng.now());
                        if again {
                            eng.schedule_keyed_in(key, SimTime::from_ns(500), |w, eng| {
                                w.push(eng.now())
                            });
                        }
                    }));
                }
                6 => {
                    eng.cancel_key(key);
                }
                7 if !ids.is_empty() => {
                    eng.cancel(ids[rng.next_below(ids.len() as u64) as usize]);
                }
                8 => {
                    eng.step(&mut world);
                }
                _ => eng.run_until(&mut world, now + SimTime::from_ns(rng.next_below(800))),
            }
            check_invariants(&eng);
            for (p, t) in peak.iter_mut().zip(&eng.tiers) {
                *p = (*p).max(t.heap.len());
            }
        }
        eng.run(&mut world);
        check_invariants(&eng);
        assert_eq!(eng.pending_events(), 0);
        assert!(world.windows(2).all(|w| w[0] <= w[1]), "the clock ran back");
        assert!(peak[EVENTS] > 100 && peak[TIMERS] > 100, "{peak:?}");
    }

    #[test]
    fn a_timer_and_a_one_shot_at_one_instant_fire_in_insertion_order() {
        type Eng = Engine<Vec<&'static str>>;
        type Post = fn(&mut Eng);
        fn timer(eng: &mut Eng) {
            eng.schedule_keyed_at(TimerKey(1, 1), SimTime::from_us(5), |w, _| w.push("timer"));
        }
        fn event(eng: &mut Eng) {
            eng.schedule_at(SimTime::from_us(5), |w, _| w.push("event"));
        }
        let cases: [(&[Post], [&str; 2]); 3] = [
            (&[timer, event], ["timer", "event"]),
            (&[event, timer], ["event", "timer"]),
            // A re-arm takes a fresh `seq`: re-armed to the same instant,
            // the timer now follows the event.
            (&[timer, event, timer], ["event", "timer"]),
        ];
        for (posts, want) in cases {
            let mut eng = Eng::new();
            for post in posts {
                post(&mut eng);
            }
            let mut out = Vec::new();
            eng.run(&mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn a_rearm_ahead_of_every_pending_event_fires_first() {
        let key = TimerKey(2, 0);
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_keyed_at(key, SimTime::from_us(900), |w, _| w.push(0));
        for i in 1..=40 {
            let at = SimTime::from_us(100 + i);
            eng.schedule_at(at, move |w, _| w.push(i));
            eng.schedule_keyed_at(TimerKey(3, i), at, move |w, _| w.push(100 + i));
        }
        eng.schedule_keyed_at(key, SimTime::from_us(50), |w, _| w.push(999));
        assert_eq!(eng.next_event_time(), Some(SimTime::from_us(50)));
        let mut out = Vec::new();
        assert!(eng.step(&mut out));
        assert_eq!(out, [999]);
        eng.run(&mut out);
        let rest: Vec<u64> = (1..=40).flat_map(|i| [i, 100 + i]).collect();
        assert_eq!(out[1..], rest, "the replaced event never fires");
    }

    #[test]
    fn peak_depth_counts_both_tiers() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_us(1), |_, _| {});
        eng.schedule_keyed_at(TimerKey(1, 0), SimTime::from_us(2), |_, _| {});
        eng.schedule_keyed_at(TimerKey(1, 1), SimTime::from_us(3), |_, _| {});
        let depths = eng.tiers.each_ref().map(|t| t.heap.len());
        assert_eq!((depths[EVENTS], depths[TIMERS]), (1, 2));
        // A re-arm replaces in place: no deeper.
        eng.schedule_keyed_at(TimerKey(1, 0), SimTime::from_us(4), |_, _| {});
        let s = eng.queue_stats();
        assert_eq!((s.live, s.peak_depth, s.keyed_live), (3, 3, 2));
        eng.run(&mut 0);
        assert_eq!(eng.queue_stats().peak_depth, 3);
    }

    #[test]
    fn queue_entries_stay_small() {
        assert!(std::mem::size_of::<Node>() <= 24);
        assert!(std::mem::size_of::<Slot>() <= 8);
    }
}
