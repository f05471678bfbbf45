//! The discrete-event engine.
//!
//! [`Engine`] owns a queue of scheduled events, in two tiers of sorted
//! lists and heaps, over a *world* (the user's state, generic parameter `W`).
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
//! ## Layout: two tiers, in-order timers in lanes beside their heaps
//!
//! The timer-heavy regimes this simulator exists for — thousands of QPs
//! rearming retransmit timers every ~0.5 ms (§VI packet flood) — make the
//! queue itself the hot path, so an event costs its handler and not its
//! container. Each mechanism below stays because a benchmark workload ran
//! slower with it taken out; that workload is named with it:
//!
//! * two **tiers** (`flood`): the *timer tier* holds every keyed event
//!   (posted through [`post_keyed_at`](Engine::post_keyed_at) or a
//!   `schedule_keyed_*` method), the *event tier* every one-shot
//!   (deliveries, driver completions, posts, calls). Keyed means timer
//!   because a key is what a protocol timer is: a long-lived slot per QP,
//!   re-armed and cancelled in place, while a one-shot is popped
//!   microseconds after it is pushed;
//! * four FIFO **lanes** (`flood`, `wide`) keep in-order timers off the
//!   timer heap. A timer armed with the delay (`at − now`) of a lane joins
//!   its tail; a delay no lane has claims an empty lane. A lane's members
//!   were armed with one delay, at a clock that never runs back, each with
//!   a larger `seq`, so a lane is sorted by construction. A timer whose
//!   delay matches no lane while all four hold others goes into the heap.
//!   Under the flood the ~440 blind-retransmit ticks, all armed with one
//!   delay, wait in one lane, so the timer heap holds a handful of entries
//!   where it would hold ~440;
//! * each tier's **heap** is a binary min-heap of three words per entry,
//!   `(at, seq, slot)`, ranked by one `u128` (`at` above `seq`) so a
//!   comparison has no branch. The timer heap holds each lane's head
//!   beside the timers that joined none, so its root is the tier's
//!   minimum. [`step`](Engine::step) and [`run_until`](Engine::run_until)
//!   compare the two roots once per event and pop the lower, so the firing
//!   order is the one strict `(at, seq)` order of a single heap. The sifts
//!   move a hole rather than swap, so a level copies 24 bytes and never
//!   touches a payload. A pop goes bottom-up: the hole walks the
//!   smaller-child path to a leaf, one comparison per level, and the
//!   displaced entry sifts up from there, landing, because ranks are
//!   unique, exactly where a top-down sift would have stopped. Popping a
//!   lane's head instead hands its entry to the successor with one
//!   **top-down sift** (`flood`), which mostly stops at once;
//! * the lanes are threaded through a **link** (time, `seq`, neighbours)
//!   in each slot's arena cell, so they allocate nothing. A one-shot is
//!   fire-and-forget: nothing can address it once posted. Only a timer has
//!   an address, its key, so only the timer tier is *indexed*: the
//!   **position table** maps each armed timer's slot to its heap index,
//!   updated once per level moved, or, for a timer waiting behind its
//!   lane's head, to a lane tag. A lane is doubly linked, so a re-arm or
//!   [`cancel_key`](Engine::cancel_key) behind the head is an O(1) unlink,
//!   and at the head or in the heap one sift;
//! * the **payload arena** (`stream`) holds each event, its [`TimerKey`]
//!   and its link in the slot it was given when scheduled. Nothing moves
//!   it until it fires: the arena grows by whole pages, never by
//!   reallocating.
//!
//! Freed slots are recycled through one LIFO free list shared by both
//! tiers. Slot assignment, the free-list discipline and the choice of
//! lane are deterministic, and event *ordering* never consults them —
//! every lane and heap is sorted on `(time, insertion seq)`, and `seq` is
//! one counter across the tiers — so none of them can perturb a run.
//! There are no tombstones: every queued entry is live, so
//! [`next_event_time`](Engine::next_event_time) is an O(1) peek and queue
//! occupancy is observable ([`queue_stats`](Engine::queue_stats), whose
//! depth counts every slot off the free list).
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
//! overwritten in the same slot, which leaves its lane or heap entry and
//! is armed again. That is observably the remove-then-insert it replaces:
//! the LIFO free list would have handed the freed slot straight back, so
//! the `scheduled`/`replaced` counters and the new `seq` are the same.

use std::fmt;
use std::marker::PhantomData;

use crate::rng::SplitMix64;
use crate::time::SimTime;

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

/// Lanes in the timer tier. The cluster arms timers with few delays at a
/// time — the blind-retransmit tick's, `T_o` at each recovery load, the
/// RNR wait — so four take nearly all of them. Eight measured no cheaper
/// (DESIGN 2.3).
const LANES: usize = 4;

/// The tag of a position-table word naming a timer that waits behind its
/// lane's head; the low bits are the lane. Heap indexes stay below it.
const IN_LANE: u32 = 1 << 31;

/// No slot: the end of a lane, or an empty one's head and tail.
const NIL: u32 = u32::MAX;

/// One heap entry. The payload stays in the arena under `slot`.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    /// Global insertion order — the determinism tiebreak. Never reused.
    seq: u64,
    slot: u32,
    /// The lane this entry heads, or [`Node::SOLO`] for an event that
    /// joined none (every one-shot).
    head_of: u32,
}

impl Node {
    const SOLO: u32 = u32::MAX;

    /// Lexicographic (time, insertion order) min-heap rank as one integer,
    /// so comparing two is branch-free. Unique: no two nodes share a `seq`.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_ns()) << 64) | u128::from(self.seq)
    }
}

/// A lane member's time, order and neighbours ([`NIL`] at either
/// end), kept in its arena cell.
#[derive(Debug, Clone, Copy)]
struct Link {
    at: SimTime,
    seq: u64,
    prev: u32,
    next: u32,
}

impl Link {
    /// A fresh slot's link, in no list.
    const NONE: Link = Link {
        at: SimTime::ZERO,
        seq: 0,
        prev: NIL,
        next: NIL,
    };
}

/// A FIFO list threaded through the arena cells' links: a lane. Empty
/// when `head` is [`NIL`].
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };

    /// Appends `node`; returns whether it is the first member, the head.
    #[inline]
    fn push<E>(&mut self, cells: &mut Arena<E>, node: Node) -> bool {
        cells[node.slot as usize].link = Link {
            at: node.at,
            seq: node.seq,
            prev: self.tail,
            next: NIL,
        };
        let first = self.head == NIL;
        if first {
            self.head = node.slot;
        } else {
            cells[self.tail as usize].link.next = node.slot;
        }
        self.tail = node.slot;
        first
    }
}

/// A binary min-heap on [`Node::rank`] over a tier's entries: every
/// one-shot, or the lanes' heads and every timer that joined none. An
/// `INDEXED` heap mirrors every move into its position table, `pos`.
/// Sifts move a hole rather than swap, so a level copies 24 bytes and
/// never touches a payload.
#[derive(Default)]
struct Heap<const INDEXED: bool> {
    nodes: Vec<Node>,
    pos: Vec<u32>,
}

impl<const INDEXED: bool> Heap<INDEXED> {
    /// Writes `node` at index `idx` and records the position.
    #[inline]
    fn put(&mut self, idx: usize, node: Node) {
        self.nodes[idx] = node;
        if INDEXED {
            self.pos[node.slot as usize] = idx as u32;
        }
    }

    fn push(&mut self, node: Node) {
        let idx = self.nodes.len();
        assert!(
            idx < IN_LANE as usize,
            "invariant: a heap index stays below the lane tag"
        );
        self.nodes.push(node);
        self.sift_up(idx, node);
    }

    /// Settles `node` at or above the hole at `idx`: parents move down
    /// into the hole until the next one ranks lower than `node`.
    fn sift_up(&mut self, mut idx: usize, node: Node) {
        let rank = node.rank();
        while idx > 0 {
            let parent = (idx - 1) / 2;
            let p = self.nodes[parent];
            if rank > p.rank() {
                break;
            }
            self.put(idx, p);
            idx = parent;
        }
        self.put(idx, node);
    }

    /// Settles `node` through the hole at `idx`, bottom-up: the smaller
    /// child moves up into the hole all the way to a leaf, one comparison
    /// per level, then `node` sifts up from there — past `idx` if it
    /// outranks the hole's parent. With unique ranks that is where a
    /// top-down sift would have stopped.
    fn sift_down(&mut self, mut idx: usize, node: Node) {
        let len = self.nodes.len();
        let mut child = 2 * idx + 1;
        while child + 1 < len {
            child += usize::from(self.nodes[child + 1].rank() < self.nodes[child].rank());
            self.put(idx, self.nodes[child]);
            idx = child;
            child = 2 * idx + 1;
        }
        if child < len {
            self.put(idx, self.nodes[child]);
            idx = child;
        }
        self.sift_up(idx, node);
    }

    /// Writes `node`, which ranks above the entry at `idx`, in its place
    /// and sifts it top-down. A lane's successor mostly still ranks below
    /// both children, so this stops at once where a bottom-up sift would
    /// walk to a leaf and back.
    fn replace_down(&mut self, mut idx: usize, node: Node) {
        let len = self.nodes.len();
        let rank = node.rank();
        loop {
            let mut child = 2 * idx + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.nodes[child + 1].rank() < self.nodes[child].rank() {
                child += 1;
            }
            if rank < self.nodes[child].rank() {
                break;
            }
            self.put(idx, self.nodes[child]);
            idx = child;
        }
        self.put(idx, node);
    }

    /// Takes the entry at `idx` out of the heap; the displaced tail fills
    /// the hole.
    fn remove(&mut self, idx: usize) -> Node {
        let node = self.nodes[idx];
        let tail = self
            .nodes
            .pop()
            .expect("invariant: idx names a heap entry, so the heap is non-empty");
        if idx < self.nodes.len() {
            self.sift_down(idx, tail);
        }
        node
    }
}

/// The timer tier: [`LANES`] lanes, each of timers armed with one delay,
/// and an indexed heap of their heads and every other timer.
struct TimerTier {
    heap: Heap<true>,
    lanes: [Fifo; LANES],
    /// The delay each lane's members were armed with. An empty lane keeps
    /// its last members' delay until a timer whose delay no lane has
    /// claims it.
    delays: [SimTime; LANES],
}

impl TimerTier {
    /// The lane a timer armed `delay` ahead joins: the one with that
    /// delay, else the first empty one, claimed for it. `None`: every
    /// lane holds other timers, so the timer goes into the heap.
    #[inline]
    fn lane_for(&self, delay: SimTime) -> Option<usize> {
        let lane = self.delays.iter().position(|&d| d == delay);
        lane.or_else(|| self.lanes.iter().position(|l| l.head == NIL))
    }

    /// Queues the timer `node`, armed `delay` ahead of the clock.
    fn arm<E>(&mut self, cells: &mut Arena<E>, node: Node, delay: SimTime) {
        let Some(l) = self.lane_for(delay) else {
            self.heap.push(node);
            return;
        };
        self.delays[l] = delay;
        if self.lanes[l].push(cells, node) {
            // A lane's first member enters the heap as its head.
            self.heap.push(Node {
                head_of: l as u32,
                ..node
            });
        } else {
            self.heap.pos[node.slot as usize] = IN_LANE | l as u32;
        }
    }

    /// Takes the entry at heap index `idx` out of the tier. A lane's head
    /// hands its entry to its successor, which ranks above it; any other
    /// entry leaves the heap.
    fn take<E>(&mut self, cells: &mut Arena<E>, idx: usize) -> Node {
        let node = self.heap.nodes[idx];
        if let Some(lane) = self.lanes.get_mut(node.head_of as usize) {
            let next = cells[node.slot as usize].link.next;
            lane.head = next;
            if next != NIL {
                let link = &mut cells[next as usize].link;
                link.prev = NIL;
                let succ = Node {
                    at: link.at,
                    seq: link.seq,
                    slot: next,
                    head_of: node.head_of,
                };
                self.heap.replace_down(idx, succ);
                return node;
            }
            lane.tail = NIL;
        }
        self.heap.remove(idx)
    }

    /// Takes the timer in `slot` out of the tier, wherever it waits.
    fn detach<E>(&mut self, cells: &mut Arena<E>, slot: u32) {
        let p = self.heap.pos[slot as usize];
        if p & IN_LANE == 0 {
            self.take(cells, p as usize);
            return;
        }
        // Behind its lane's head, so `prev` is a slot.
        let Link { prev, next, .. } = cells[slot as usize].link;
        cells[prev as usize].link.next = next;
        if next == NIL {
            self.lanes[(p & !IN_LANE) as usize].tail = prev;
        } else {
            cells[next as usize].link.prev = prev;
        }
    }

    /// Moves the timer in `node.slot` to `node`'s rank, armed `delay`
    /// ahead: a detach and an arm, but one sift in place when it stays in
    /// the heap outside every lane.
    fn rearm<E>(&mut self, cells: &mut Arena<E>, node: Node, delay: SimTime) {
        let p = self.heap.pos[node.slot as usize];
        let solo = p & IN_LANE == 0 && self.heap.nodes[p as usize].head_of == Node::SOLO;
        if !solo || self.lane_for(delay).is_some() {
            self.detach(cells, node.slot);
            self.arm(cells, node, delay);
        } else if node.at < self.heap.nodes[p as usize].at {
            // `seq` only grows, so the entry moves up exactly when its
            // time moved earlier.
            self.heap.sift_up(p as usize, node);
        } else {
            self.heap.sift_down(p as usize, node);
        }
    }

    /// Fire time of the timer in `slot`.
    fn deadline<E>(&self, cells: &Arena<E>, slot: u32) -> SimTime {
        let p = self.heap.pos[slot as usize];
        if p & IN_LANE == 0 {
            self.heap.nodes[p as usize].at
        } else {
            cells[slot as usize].link.at
        }
    }
}

/// One payload-arena entry, parallel to the position table.
struct Cell<E> {
    key: Option<TimerKey>,
    /// The slot's place in a lane, while one holds it.
    link: Link,
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
/// Depths count both tiers. `dead_pending` and `dead_pops` are constant
/// zeros: cancellation removes physically, so no queued entry is ever
/// dead. They stay only so that reports and pinned telemetry keep their
/// shape.
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
    /// Events physically removed by `cancel_key`.
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

/// A run that reached its horizon with events still pending: the error
/// of [`Engine::run`]. A world that never quiesces — a SEND RNR-NAKed for
/// ever, a timer that re-arms itself — ends here instead of hanging.
///
/// ```
/// use ibsim_event::{Engine, SimTime, Stalled};
///
/// fn tick(_: &mut (), eng: &mut Engine<()>) {
///     eng.schedule_in(SimTime::from_us(3), tick);
/// }
/// let mut eng = Engine::new();
/// eng.schedule_at(SimTime::ZERO, tick);
/// let (at, next) = (SimTime::from_us(10), SimTime::from_us(12));
/// assert_eq!(eng.run(&mut (), at), Err(Stalled { at, pending: 1, next }));
/// assert_eq!(eng.now(), SimTime::from_us(9), "the clock is not parked");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stalled {
    /// The horizon the run reached: every event up to it has fired.
    pub at: SimTime,
    /// Events still pending.
    pub pending: usize,
    /// Time of the earliest of them, past the horizon.
    pub next: SimTime,
}

impl fmt::Display for Stalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stalled at the {} horizon: {} events pending, the next at {}",
            self.at, self.pending, self.next
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
/// let quiet = engine.run(&mut world, SimTime::from_ms(1));
/// assert_eq!(quiet, Ok(SimTime::from_us(10)));
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
/// engine.run(&mut world, SimTime::from_ms(1)).expect("quiesces");
/// assert_eq!(world, 20);
/// ```
pub struct Engine<W, E = Call<W>> {
    now: SimTime,
    /// The event tier: a heap of every pending one-shot.
    events: Heap<false>,
    /// The timer tier: every armed keyed event, indexed by slot.
    timers: TimerTier,
    /// The payload arena, parallel to the timer tier's position table.
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
    peak_depth: usize,
    /// Event pops whose timestamp preceded the clock. A non-zero value
    /// means the queue's ordering invariant broke — causality is gone.
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
            .field("pending", &(self.timers.heap.pos.len() - self.free.len()))
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
            events: Heap::default(),
            timers: TimerTier {
                heap: Heap::default(),
                lanes: [Fifo::EMPTY; LANES],
                delays: [SimTime::ZERO; LANES],
            },
            cells: Arena { pages: Vec::new() },
            free: Vec::new(),
            keyed: KeyIndex::default(),
            next_seq: 0,
            executed: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            replaced_total: 0,
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

    /// Number of events still pending: every slot off the free list.
    /// Cancelled events are physically removed, so this never overstates
    /// queue depth.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.timers.heap.pos.len() - self.free.len()
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
            dead_pops: 0,
            peak_depth: self.peak_depth,
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            replaced: self.replaced_total,
            keyed_live: self.keyed.len,
        }
    }

    /// Number of event pops that violated clock monotonicity: counted,
    /// never panicked on, so a broken queue shows up in the same counter
    /// reports as every other runtime invariant.
    #[inline]
    pub fn monotonicity_violations(&self) -> u64 {
        self.monotonicity_violations
    }

    // ------------------------------------------------------------------
    // Two-tier plumbing
    // ------------------------------------------------------------------

    /// The root that fires next, if any event is pending — the lower of
    /// the two tiers' heap roots, each its tier's minimum — and whether it
    /// is the timer tier's.
    #[inline]
    fn next_root(&self) -> Option<(Node, bool)> {
        match (self.events.nodes.first(), self.timers.heap.nodes.first()) {
            (Some(e), Some(t)) if t.rank() < e.rank() => Some((*t, true)),
            (Some(e), _) => Some((*e, false)),
            (None, t) => t.map(|t| (*t, true)),
        }
    }

    /// Frees an arena slot taken out of its tier, unlinking its key;
    /// returns the event it held.
    fn release(&mut self, slot: u32) -> E {
        self.free.push(slot);
        let cell = &mut self.cells[slot as usize];
        if let Some(key) = cell.key.take() {
            self.keyed.remove(slot, KeyIndex::hash(key));
        }
        cell.ev
            .take()
            .expect("invariant: a slot in a tier holds its event")
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
    /// in the event tier otherwise. Returns the slot.
    #[inline]
    fn insert(&mut self, at: SimTime, key: Option<TimerKey>, ev: E) -> u32 {
        let seq = self.stamp();
        let slot = match self.free.pop() {
            Some(s) => {
                let cell = &mut self.cells[s as usize];
                cell.key = key;
                cell.ev = Some(ev);
                s
            }
            None => {
                // A slot number names a live event in the key index,
                // whose empty cells hold `KeyIndex::EMPTY`, and in the
                // lists, whose ends are `NIL`: both `u32::MAX`.
                assert!(
                    self.timers.heap.pos.len() < NIL as usize,
                    "invariant: fewer than 2^32 - 1 events are live"
                );
                self.timers.heap.pos.push(0);
                self.cells.push(Cell {
                    key,
                    link: Link::NONE,
                    ev: Some(ev),
                });
                (self.timers.heap.pos.len() - 1) as u32
            }
        };
        let node = Node {
            at,
            seq,
            slot,
            head_of: Node::SOLO,
        };
        if key.is_some() {
            self.timers.arm(&mut self.cells, node, at - self.now);
        } else {
            self.events.push(node);
        }
        self.peak_depth = self.peak_depth.max(self.pending_events());
        slot
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Schedules the event `ev` at absolute time `at`. Nothing can cancel
    /// it: only a keyed event ([`post_keyed_at`](Engine::post_keyed_at))
    /// has an address.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (`at < self.now()`): rewinding the
    /// clock would silently corrupt causality, so it is a programming error.
    #[inline]
    pub fn post_at(&mut self, at: SimTime, ev: E) {
        self.assert_not_past(at);
        self.insert(at, None, ev);
    }

    /// Schedules the event `ev` at absolute time `at` under timer slot
    /// `key`, *replacing* any event currently armed under that key (the
    /// old event will never fire). This is the re-arm semantics protocol
    /// timers want: no gen-guarded no-op events left behind in the queue.
    /// A replacement counts as one `scheduled` and one `replaced` in
    /// [`QueueStats`].
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past, leaving the engine — an event
    /// already armed under `key` included — exactly as it was.
    pub fn post_keyed_at(&mut self, key: TimerKey, at: SimTime, ev: E) {
        self.assert_not_past(at);
        let hash = KeyIndex::hash(key);
        let Some(slot) = self.keyed.get(&self.cells, key, hash) else {
            let slot = self.insert(at, Some(key), ev);
            self.keyed.insert(slot, hash);
            return;
        };
        // Re-arm in place: what removing the old event and inserting the
        // new one would leave behind, without the two index operations
        // and the slot round trip through the free list.
        let seq = self.stamp();
        self.replaced_total += 1;
        self.cells[slot as usize].ev = Some(ev);
        let node = Node {
            at,
            seq,
            slot,
            head_of: Node::SOLO,
        };
        self.timers.rearm(&mut self.cells, node, at - self.now);
    }

    /// Schedules `f` to run at absolute time `at`; see
    /// [`post_at`](Engine::post_at).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) {
        self.post_at(at, E::from_call(Box::new(f)))
    }

    /// Schedules `f` to run after relative delay `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` at absolute time `at` under timer slot `key`; see
    /// [`post_keyed_at`](Engine::post_keyed_at).
    pub fn schedule_keyed_at(
        &mut self,
        key: TimerKey,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) {
        self.post_keyed_at(key, at, E::from_call(Box::new(f)))
    }

    /// Schedules `f` after `delay` under timer slot `key`; see
    /// [`post_keyed_at`](Engine::post_keyed_at).
    pub fn schedule_keyed_in(
        &mut self,
        key: TimerKey,
        delay: SimTime,
        f: impl FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    ) {
        self.schedule_keyed_at(key, self.now + delay, f)
    }

    /// The slot of the event armed under `key`, if any.
    #[inline]
    fn key_slot(&self, key: TimerKey) -> Option<u32> {
        self.keyed.get(&self.cells, key, KeyIndex::hash(key))
    }

    /// True if an event is currently armed under `key`.
    pub fn key_armed(&self, key: TimerKey) -> bool {
        self.key_slot(key).is_some()
    }

    /// Fire time of the event armed under `key`, if any.
    pub fn key_deadline(&self, key: TimerKey) -> Option<SimTime> {
        self.key_slot(key)
            .map(|slot| self.timers.deadline(&self.cells, slot))
    }

    /// Cancels the event armed under timer slot `key`, physically
    /// removing it from the queue: O(1) from behind a lane's head,
    /// O(log n) from the heap. Returns `true` if one was armed;
    /// cancelling a key with nothing armed is harmless.
    pub fn cancel_key(&mut self, key: TimerKey) -> bool {
        let Some(slot) = self.key_slot(key) else {
            return false;
        };
        self.timers.detach(&mut self.cells, slot);
        self.release(slot);
        self.cancelled_total += 1;
        true
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs events whose time is `<= horizon`; returns the time the
    /// world went quiet, or [`Stalled`] if events are still pending past
    /// the horizon. The clock is left at the last event fired, never
    /// parked at the horizon.
    pub fn run(&mut self, world: &mut W, horizon: SimTime) -> Result<SimTime, Stalled> {
        self.fire_through(world, horizon);
        match self.next_event_time() {
            None => Ok(self.now),
            Some(next) => Err(Stalled {
                at: horizon,
                pending: self.pending_events(),
                next,
            }),
        }
    }

    /// Runs events whose time is `<= deadline`, then stops.
    ///
    /// A finite `deadline` (any but [`SimTime::MAX`]) then parks the clock
    /// there if it is still earlier, whether or not events remain: a PDES
    /// epoch or a sliced run ends at its boundary even when its queue ran
    /// dry. [`last_executed_at`](Engine::last_executed_at) keeps the last
    /// event's time.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        self.fire_through(world, deadline);
        if deadline != SimTime::MAX && self.now < deadline {
            self.now = deadline;
        }
    }

    /// The hot loop of [`run`](Engine::run) and
    /// [`run_until`](Engine::run_until): fires every event whose time is
    /// `<= deadline`.
    #[inline]
    fn fire_through(&mut self, world: &mut W, deadline: SimTime) {
        while let Some((node, timer)) = self.next_root() {
            if node.at > deadline {
                break;
            }
            self.fire_next(timer, world);
        }
    }

    /// Executes exactly one event if one is pending; returns whether it did.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some((_, timer)) = self.next_root() else {
            return false;
        };
        self.fire_next(timer, world);
        true
    }

    /// Pops the root of the timer tier if `timer`, else of the event
    /// tier, and fires it.
    #[inline]
    fn fire_next(&mut self, timer: bool, world: &mut W) {
        let node = if timer {
            self.timers.take(&mut self.cells, 0)
        } else {
            self.events.remove(0)
        };
        let ev = self.release(node.slot);
        if node.at < self.now {
            self.monotonicity_violations += 1;
        }
        self.now = node.at;
        self.last_executed_at = node.at;
        self.executed += 1;
        ev.fire(world, self);
    }

    /// Time of the next pending event, if any — an O(1) peek at the lower
    /// of the two roots (every entry is live; cancellation removes
    /// physically).
    #[inline]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_root().map(|(node, _)| node.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// How far any world in this file may run before it must have quiesced.
    const HORIZON: SimTime = SimTime::from_secs(1);

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_us(30), |w, _| w.push(3));
        eng.schedule_at(SimTime::from_us(10), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_us(20), |w, _| w.push(2));
        let mut out = Vec::new();
        eng.run(&mut out, HORIZON).expect("the world quiesces");
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
        eng.run(&mut out, HORIZON).expect("the world quiesces");
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
        eng.run(&mut out, HORIZON).expect("the world quiesces");
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
        // A handler that clears a wait cancels its timer in the same turn.
        let key = TimerKey(1, 1);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_at(key, SimTime::from_us(20), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_us(10), move |w, eng| {
            assert!(eng.cancel_key(key));
            assert!(!eng.cancel_key(key), "double cancel reports false");
            *w += 100;
        });
        let mut w = 0;
        eng.run(&mut w, HORIZON).expect("the world quiesces");
        assert_eq!(w, 100);
    }

    #[test]
    fn cancel_after_execution_is_false() {
        let key = TimerKey(1, 2);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_at(key, SimTime::from_us(1), |w, _| *w += 1);
        let mut w = 0;
        eng.run(&mut w, HORIZON).expect("the world quiesces");
        assert!(!eng.cancel_key(key));
        assert_eq!(eng.queue_stats().cancelled, 0);
    }

    #[test]
    fn cancel_physically_removes() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule_keyed_at(TimerKey(0, i), SimTime::from_us(i), |_, _| {});
        }
        assert_eq!(eng.pending_events(), 10);
        for i in 0..5 {
            assert!(eng.cancel_key(TimerKey(0, i)));
        }
        // No tombstones: the queue depth drops immediately.
        assert_eq!(eng.pending_events(), 5);
        assert_eq!(eng.queue_stats().cancelled, 5);
        let mut w = 0;
        eng.run(&mut w, HORIZON).expect("the world quiesces");
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
        eng.run(&mut out, HORIZON).expect("the world quiesces");
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
        eng.run(&mut w, HORIZON).expect("the world quiesces");
    }

    #[test]
    fn next_event_time_skips_cancelled() {
        let key = TimerKey(5, 5);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_at(key, SimTime::from_us(5), |_, _| {});
        eng.schedule_at(SimTime::from_us(9), |_, _| {});
        assert_eq!(eng.next_event_time(), Some(SimTime::from_us(5)));
        eng.cancel_key(key);
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
        eng.run(&mut (), HORIZON).expect("the world quiesces");
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
        eng.run(&mut out, HORIZON).expect("the world quiesces");
        assert_eq!(out, vec![2]);
        assert!(!eng.key_armed(key));
        assert_eq!(eng.queue_stats().replaced, 1);
    }

    #[test]
    fn rearming_into_the_past_leaves_the_engine_as_it_was() {
        let key = TimerKey(4, 2);
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_us(10), |w, _| w.push(1));
        eng.schedule_keyed_at(key, SimTime::from_us(30), |w, _| w.push(3));
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
        eng.run(&mut out, HORIZON).expect("the world quiesces");
        assert_eq!(out, vec![1, 2, 3]);
        assert!(!eng.key_armed(key), "the armed event fired under its key");
    }

    #[test]
    fn rearm_in_place_counts_as_a_remove_then_insert() {
        let key = TimerKey(7, 7);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_us(1), |_, _| {});
        eng.schedule_keyed_at(key, SimTime::from_us(50), |w, _| *w += 1);
        // Earlier: the same slot, the one a LIFO free list hands back.
        let slot = eng.key_slot(key);
        eng.schedule_keyed_at(key, SimTime::from_us(5), |w, _| *w += 10);
        assert_eq!(eng.key_slot(key), slot);
        let s = eng.queue_stats();
        assert_eq!(
            (s.scheduled, s.replaced, s.live, s.peak_depth),
            (3, 1, 2, 2)
        );
        // Later again, then cancel: the slot frees once.
        eng.schedule_keyed_at(key, SimTime::from_us(90), |w, _| *w += 100);
        assert_eq!(eng.key_deadline(key), Some(SimTime::from_us(90)));
        assert!(eng.cancel_key(key));
        assert!(!eng.key_armed(key));
        assert_eq!(eng.free.len(), 1);
        let mut w = 0;
        eng.run(&mut w, HORIZON).expect("the world quiesces");
        assert_eq!(w, 0);
        assert_eq!(eng.queue_stats().executed, 1);
    }

    #[test]
    fn arena_grows_by_pages_and_never_moves_a_cell() {
        let mut arena: Arena<u32> = Arena { pages: Vec::new() };
        let cell = |i: usize| Cell {
            key: None,
            link: Link::NONE,
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
                link: Link::NONE,
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
        eng.run(&mut w, HORIZON).expect("the world quiesces");
        assert_eq!(w, 0, "cancelled keyed timer never fires");
    }

    #[test]
    fn keyed_slot_clears_after_fire() {
        let key = TimerKey(9, 9);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_in(key, SimTime::from_us(5), |w, _| *w += 1);
        let mut w = 0;
        eng.run(&mut w, HORIZON).expect("the world quiesces");
        assert_eq!(w, 1);
        assert!(!eng.key_armed(key), "slot is free after the event fires");
        assert_eq!(eng.keyed_timers(), 0);
    }

    #[test]
    fn heavy_churn_keeps_physical_cancellation_invariants() {
        // Schedule/cancel storm across interleaved times: the arena must
        // keep keys straight while slots recycle constantly.
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut live = Vec::new();
        for round in 0..50u64 {
            for i in 0..20u64 {
                let tag = round * 100 + i;
                let at = SimTime::from_us(1000 + (tag % 37));
                eng.schedule_keyed_at(TimerKey(0, tag), at, move |w, _| w.push(tag));
                live.push(tag);
            }
            // Cancel every third outstanding event.
            let mut idx = 0;
            live.retain(|&tag| {
                idx += 1;
                if idx % 3 == 0 {
                    assert!(eng.cancel_key(TimerKey(0, tag)));
                    false
                } else {
                    true
                }
            });
        }
        // Equal times fire in insertion order; sort by (time, tag) since
        // tags are assigned in insertion order per time bucket.
        live.sort_by_key(|&tag| (1000 + (tag % 37), tag));
        let mut out = Vec::new();
        eng.run(&mut out, HORIZON).expect("the world quiesces");
        assert_eq!(out, live);
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
        let key = TimerKey(3, 3);
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_keyed_at(key, SimTime::from_us(1), |_, _| {});
        eng.schedule_at(SimTime::from_us(2), |_, _| {});
        assert_eq!(eng.queue_stats().peak_depth, 2);
        eng.cancel_key(key);
        let mut w = 0;
        eng.run(&mut w, HORIZON).expect("the world quiesces");
        let s = eng.queue_stats();
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.executed, 1);
        assert_eq!(s.dead_pops, 0);
        assert_eq!(s.peak_depth, 2);
        assert_eq!(s.live, 0);
        assert_eq!(format!("{s}"), s.to_string());
    }

    /// The members of a lane, head first.
    fn members<E>(cells: &Arena<E>, fifo: Fifo) -> Vec<u32> {
        let mut members = Vec::new();
        let mut s = fifo.head;
        while s != NIL {
            members.push(s);
            s = cells[s as usize].link.next;
        }
        members
    }

    /// Checks that a lane's links point back, its tail ends it, it is
    /// sorted, and its head, and only its head, has an entry in `heap`
    /// that heads lane `id`. Returns its members.
    fn check_fifo<E>(cells: &Arena<E>, fifo: Fifo, id: usize, heap: &[Node]) -> Vec<u32> {
        let members = members(cells, fifo);
        assert_eq!(members.last().copied().unwrap_or(NIL), fifo.tail, "{id}");
        let mut prev = NIL;
        let mut ranks = Vec::new();
        for &s in &members {
            let link = cells[s as usize].link;
            assert_eq!(link.prev, prev, "lane {id}: slot {s} does not point back");
            prev = s;
            ranks.push((u128::from(link.at.as_ns()) << 64) | u128::from(link.seq));
        }
        assert!(
            ranks.windows(2).all(|w| w[0] < w[1]),
            "lane {id} is unsorted"
        );
        let entries: Vec<(u128, u32)> = heap
            .iter()
            .filter(|n| n.head_of == id as u32)
            .map(|n| (n.rank(), n.slot))
            .collect();
        let head = members.first().map(|&s| (ranks[0], s));
        assert_eq!(entries, Vec::from_iter(head), "lane {id}'s heap entries");
        members
    }

    /// Every structural invariant of the queue, checked from scratch: each
    /// heap is a heap on `(at, seq)`; the event heap holds no lane's head;
    /// every lane is sorted, and its head, and only its head, has an entry
    /// in the timer heap; every
    /// position entry says where its slot is — a heap index, or the lane it
    /// waits in; no two lanes hold one delay; one-shots hold unkeyed
    /// slots, every timer's key finds it; the free slots are exactly the
    /// free list; the depth counts every member.
    fn check_invariants<W, E: Event<W>>(eng: &Engine<W, E>) {
        let (ev, t, cells) = (&eng.events, &eng.timers, &eng.cells);
        let heaps = [ev.nodes.as_slice(), &t.heap.nodes];
        for (tier, heap) in heaps.into_iter().enumerate() {
            for (i, node) in heap.iter().enumerate().skip(1) {
                let parent = heap[(i - 1) / 2];
                assert!(parent.rank() < node.rank(), "tier {tier}: no heap at {i}");
            }
        }
        // Every queued slot, and whether it is a timer.
        let mut queued: Vec<(u32, bool)> = Vec::new();
        for node in &ev.nodes {
            assert_eq!(node.head_of, Node::SOLO, "slot {}", node.slot);
            queued.push((node.slot, false));
        }
        for (i, node) in t.heap.nodes.iter().enumerate() {
            let slot = node.slot as usize;
            assert_eq!(t.heap.pos[slot] as usize, i, "slot {slot}");
            if node.head_of == Node::SOLO {
                queued.push((node.slot, true));
            }
        }
        for (l, &lane) in t.lanes.iter().enumerate() {
            let lane_slots = check_fifo(cells, lane, l, &t.heap.nodes);
            for &s in lane_slots.iter().skip(1) {
                let pos = t.heap.pos[s as usize];
                assert_eq!(pos, IN_LANE | l as u32, "lane {l}: slot {s}");
            }
            queued.extend(lane_slots.into_iter().map(|s| (s, true)));
            let twins = (0..l).filter(|&k| t.lanes[k].head != NIL && t.delays[k] == t.delays[l]);
            assert!(
                lane.head == NIL || twins.count() == 0,
                "two lanes hold one delay"
            );
        }
        for &(slot, timer) in &queued {
            let cell = &eng.cells[slot as usize];
            assert!(cell.ev.is_some(), "live slot {slot} holds no event");
            assert_eq!(cell.key.is_some(), timer, "slot {slot}");
            if let Some(key) = cell.key {
                let found = eng.keyed.get(&eng.cells, key, KeyIndex::hash(key));
                assert_eq!(found, Some(slot), "{key}");
            }
        }
        let free: Vec<u32> = (0..t.heap.pos.len() as u32)
            .filter(|&s| eng.cells[s as usize].ev.is_none())
            .collect();
        for &s in &free {
            assert!(eng.cells[s as usize].key.is_none(), "free slot {s}");
        }
        let mut list = eng.free.clone();
        list.sort_unstable();
        assert_eq!(list, free, "the free slots are not the free list");
        let mut slots: Vec<u32> = queued.iter().map(|&(s, _)| s).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), queued.len(), "a slot is queued twice");
        assert_eq!(queued.len() + free.len(), t.heap.pos.len());
        assert_eq!(
            eng.pending_events(),
            queued.len(),
            "the depth misses a member"
        );
        let timers = queued.iter().filter(|&&(_, timer)| timer).count();
        assert_eq!(eng.keyed.len, timers);
    }

    #[test]
    fn tiers_keep_their_invariants_through_a_seeded_operation_mix() {
        // The world logs the clock at every fire.
        type Eng = Engine<Vec<SimTime>>;
        fn log(w: &mut Vec<SimTime>, eng: &mut Eng) {
            w.push(eng.now())
        }
        /// A timer that re-arms its own key `again` ahead when it fires,
        /// as the stall tick does.
        fn tick(eng: &mut Eng, key: TimerKey, at: SimTime, again: Option<SimTime>) {
            eng.schedule_keyed_at(key, at, move |w, eng| {
                log(w, eng);
                if let Some(delay) = again {
                    eng.schedule_keyed_in(key, delay, log);
                }
            });
        }
        let mut eng = Eng::new();
        let mut world = Vec::new();
        let mut rng = SplitMix64::new(0x2713);
        // A second timer family's delay drifts, as `T_o` does with load.
        let mut drift = 0;
        // One-shots post near the last one, rarely far ahead.
        let mut last_post = SimTime::ZERO;
        // Deepest heaps (event, timer) and longest lane.
        let mut peak = [0; 3];
        for _ in 0..20_000 {
            let now = eng.now();
            // A coarse grid makes timers and one-shots tie on `at`.
            let at = SimTime::from_ns((now.as_ns() + rng.next_below(40_000)) & !63).max(now);
            let key = TimerKey(rng.next_below(2), rng.next_below(300));
            match rng.next_below(16) {
                0..=1 => eng.schedule_at(at, log),
                2..=3 => {
                    last_post = match rng.next_below(32) {
                        0 => now + SimTime::from_ns(50_000 + rng.next_below(50_000)),
                        _ => last_post.max(now) + SimTime::from_ns(rng.next_below(300)),
                    };
                    eng.schedule_at(last_post, log);
                }
                4..=5 => {
                    let again = rng.next_below(3) == 0;
                    tick(&mut eng, key, at, again.then_some(SimTime::from_ns(500)));
                }
                6..=7 => {
                    // A burst at one fixed delay, re-armed at it.
                    for _ in 0..1 + rng.next_below(4) {
                        let key = TimerKey(2, rng.next_below(300));
                        let delay = SimTime::from_ns(20_000);
                        tick(&mut eng, key, now + delay, Some(delay));
                    }
                }
                8 => {
                    drift = (drift + rng.next_below(64)).saturating_sub(31);
                    let key = TimerKey(3, rng.next_below(100));
                    tick(&mut eng, key, now + SimTime::from_ns(30_000 + drift), None);
                }
                9 => {
                    eng.cancel_key(key);
                }
                10..=11 => {
                    // Re-arm or cancel a lane's head, middle or tail.
                    let l = rng.next_below(LANES as u64) as usize;
                    let members = members(&eng.cells, eng.timers.lanes[l]);
                    if !members.is_empty() {
                        let s = match rng.next_below(3) {
                            0 => members[0],
                            1 => members[members.len() / 2],
                            _ => members[members.len() - 1],
                        };
                        let key = eng.cells[s as usize].key.expect("a lane member is a timer");
                        match rng.next_below(3) {
                            0 => {
                                eng.cancel_key(key);
                            }
                            1 => {
                                let delay = eng.timers.delays[l];
                                tick(&mut eng, key, now + delay, None)
                            }
                            _ => tick(&mut eng, key, at, None),
                        }
                    }
                }
                12..=13 => {
                    eng.step(&mut world);
                }
                _ => eng.run_until(&mut world, now + SimTime::from_ns(rng.next_below(800))),
            }
            check_invariants(&eng);
            let t = &eng.timers;
            let lanes = t.lanes.iter().map(|&f| members(&eng.cells, f).len());
            let now = [
                eng.events.nodes.len(),
                t.heap.nodes.len(),
                lanes.max().unwrap_or(0),
            ];
            peak = std::array::from_fn(|i| peak[i].max(now[i]));
        }
        eng.run(&mut world, HORIZON).expect("the world quiesces");
        check_invariants(&eng);
        assert_eq!(eng.pending_events(), 0);
        assert!(world.windows(2).all(|w| w[0] <= w[1]), "the clock ran back");
        // The mix reached deep heaps and a long lane.
        assert!(peak.iter().all(|&p| p > 50), "{peak:?}");
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
            eng.run(&mut out, HORIZON).expect("the world quiesces");
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
        eng.run(&mut out, HORIZON).expect("the world quiesces");
        let rest: Vec<u64> = (1..=40).flat_map(|i| [i, 100 + i]).collect();
        assert_eq!(out[1..], rest, "the replaced event never fires");
    }

    #[test]
    fn peak_depth_counts_both_tiers() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..3 {
            eng.schedule_at(SimTime::from_us(1 + i), |_, _| {});
            eng.schedule_keyed_at(TimerKey(1, i), SimTime::from_us(9), |_, _| {});
        }
        // Three one-shots in the event heap; one lane of three timers, one
        // timer heap entry.
        fn lengths<E>(cells: &Arena<E>, lanes: &[Fifo]) -> Vec<usize> {
            let lengths = lanes.iter().map(|&l| members(cells, l).len());
            lengths.filter(|&n| n > 0).collect()
        }
        let lanes = lengths(&eng.cells, &eng.timers.lanes);
        let heaps = (eng.events.nodes.len(), eng.timers.heap.nodes.len());
        assert_eq!((lanes, heaps), (vec![3], (3, 1)));
        // A re-arm of the lane's head moves it to the tail: no deeper.
        eng.schedule_keyed_at(TimerKey(1, 0), SimTime::from_us(9), |_, _| {});
        assert_eq!(lengths(&eng.cells, &eng.timers.lanes), [3]);
        let s = eng.queue_stats();
        assert_eq!((s.live, s.peak_depth, s.keyed_live), (6, 6, 3));
        eng.run(&mut 0, HORIZON).expect("the world quiesces");
        assert_eq!(eng.queue_stats().peak_depth, 6);
    }

    #[test]
    fn queue_entries_stay_small() {
        assert!(std::mem::size_of::<Node>() <= 24);
    }
}
