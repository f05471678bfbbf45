//! The ODP fault layer: the page gate, per-QP page staleness and the
//! requester's recovery-window state.
//!
//! ## The page gate
//!
//! Both of the paper's pitfalls come out of one hardware mechanism: the
//! RNIC checks the status of every page an access touches (§III-B), and a
//! page it cannot use yet stalls the QP that asked. The simulator states
//! that mechanism once, as [`admit`] — "may this QP touch this span
//! now?" — and asks it in three places:
//!
//! | asked by | span | pages still pending mean |
//! |---|---|---|
//! | responder admission (`Responder::admit`) | the request's remote target, or a SEND's posted receive | fault pendency on exactly those pages + an RNR NAK; every later packet is dropped until the last one resolves (the responder half of damming, §V) |
//! | requester pump (`Requester::pump`) | the local source of the next WRITE/SEND segment | the pages join `tx_blocked`, a [`PageSet`]; the send queue is head-of-line blocked until the last one resolves |
//! | requester landing (`Requester::on_response`) | the local range a READ segment or an atomic's original value lands in | each page registers this QP's fault wait; the response is discarded and the message stalls on the first page that is faulting *or stale for this QP* (the flood, §VI) |
//!
//! What the gate does, in order. **Who may touch a span:** pinned memory
//! is always usable and the gate returns at once. On an ODP region under
//! the pinning backend ([`RecoveryKind::pins_on_first_touch`]) every page
//! of the span that is not mapped is mapped on the spot, counted into
//! `pages_pinned`, and the span is usable — no
//! fault event, no wait, the fault window never opens. Under every other
//! backend the gate is [`raise`], the one span walk. **What is raised:**
//! each `Unmapped` page becomes `Faulting`, bumps the region's
//! `fault_count` and is pushed onto [`Effects::faults`] in ascending page
//! order — the order the driver queues them in, which the golden traces
//! pin; `Faulting` and `Mapped` pages are left alone; a walk that raised
//! anything counts as *one* `faults_raised`. **What is reported:**
//! [`Gated::pending`] lists the pages still not mapped (ascending; those
//! just raised included) and [`Gated::blocking`] adds the asking QP's
//! stale set. The caller pushes its own effects after the walk's —
//! fault waits, then timers; an RNR NAK; nothing — so within one handler
//! turn `faults` always precedes what the fault caused.
//!
//! **Zero length** is decided in [`pages`], after the bounds check and
//! nowhere else: an empty span touches the page it points into (a
//! zero-length READ inside an ODP region faults that page) and touches
//! no page when it points at the region's end. The one exception is
//! upstream of the gate: an empty WRITE/SEND segment gathers nothing, so
//! `wire::source_segment` never asks.
//!
//! Two callers use less than the whole gate. The responder's drop path
//! (a packet dropped under pendency still primes faults for its target)
//! calls [`raise`] directly, under *every* backend. And a request that
//! may only execute if nothing needs answering — a future request under
//! selective repeat, a duplicate READ — uses the non-faulting form,
//! [`usable`].
//!
//! ## State
//!
//! This is the only place requester and responder knowledge meet: the
//! [`FaultTracker`] stale-page set is owned by the QP facade, read by
//! the landing gate, and written only by page-ready / mark-stale events.
//! It and the requester's `tx_blocked` are the QP's two page sets, both
//! a [`PageSet`].

use std::ops::Range;

use ibsim_event::SimTime;

use crate::mem::{MemRegion, MrMode, PageState};
use crate::types::{MrKey, Psn};

use super::effects::Effects;
use super::recovery::RecoveryKind;

/// A set of `(region, page)` pairs: one bitset per region, one bit per
/// page up to the highest page inserted. A QP touches one to three
/// regions, so [`PageSet::contains`] is a short scan and one bit test.
/// A drained region keeps its words, so the flood's mark/resume cycle
/// over the same pages allocates only on its first round. Each region
/// counts its own bits, so the set stays one `Vec` (24 bytes; see
/// `tests/layout.rs`). Nothing iterates it, so its layout decides no
/// order.
#[derive(Debug, Default)]
pub(super) struct PageSet {
    regions: Vec<PageBits>,
}

/// One region's pages in a [`PageSet`].
#[derive(Debug)]
struct PageBits {
    key: MrKey,
    /// Set bits in `words`.
    live: u32,
    words: Vec<u64>,
}

impl PageSet {
    /// Adds `(key, page)`; true if it was absent.
    pub(super) fn insert(&mut self, key: MrKey, page: usize) -> bool {
        let i = match self.regions.iter().position(|r| r.key == key) {
            Some(i) => i,
            None => {
                self.regions.push(PageBits {
                    key,
                    live: 0,
                    words: Vec::new(),
                });
                self.regions.len() - 1
            }
        };
        let r = &mut self.regions[i];
        let (w, bit) = (page / 64, 1u64 << (page % 64));
        if w >= r.words.len() {
            r.words.resize(w + 1, 0);
        }
        let absent = r.words[w] & bit == 0;
        r.words[w] |= bit;
        r.live += u32::from(absent);
        absent
    }

    /// Drops `(key, page)`; true if it was present.
    pub(super) fn remove(&mut self, key: MrKey, page: usize) -> bool {
        let Some(r) = self.regions.iter_mut().find(|r| r.key == key) else {
            return false;
        };
        let bit = 1u64 << (page % 64);
        match r.words.get_mut(page / 64) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                r.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// True if `(key, page)` is in the set.
    pub(super) fn contains(&self, key: MrKey, page: usize) -> bool {
        self.regions
            .iter()
            .find(|r| r.key == key)
            .and_then(|r| r.words.get(page / 64))
            .is_some_and(|w| w & (1u64 << (page % 64)) != 0)
    }

    /// True if no page is in the set.
    pub(super) fn is_empty(&self) -> bool {
        self.regions.iter().all(|r| r.live == 0)
    }

    /// Empties the set, keeping every region's words.
    pub(super) fn clear(&mut self) {
        for r in &mut self.regions {
            r.words.fill(0);
            r.live = 0;
        }
    }
}

impl Extend<(MrKey, usize)> for PageSet {
    fn extend<I: IntoIterator<Item = (MrKey, usize)>>(&mut self, pages: I) {
        for (key, page) in pages {
            self.insert(key, page);
        }
    }
}

/// Pages globally mapped but not yet propagated to this QP — the packet
/// flood root cause ("update failure of page statuses", §VI-B). Owned by
/// the QP facade; the requester reads it, only page-ready/stale events
/// write it. Every landing response asks [`FaultTracker::is_stale`] of
/// each page it touches, and every driver resume clears one page, so the
/// set is a [`PageSet`]: one bit test either way.
#[derive(Debug, Default)]
pub(super) struct FaultTracker {
    stale_pages: PageSet,
}

impl FaultTracker {
    /// An empty tracker (no stale pages).
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Marks a mapped page as not yet propagated to this QP.
    pub(super) fn mark_stale(&mut self, mr: MrKey, page: usize) {
        self.stale_pages.insert(mr, page);
    }

    /// A page became usable for this QP: drop any staleness.
    pub(super) fn page_ready(&mut self, mr: MrKey, page: usize) {
        self.stale_pages.remove(mr, page);
    }

    /// True if the page is mapped globally but unusable by this QP.
    pub(super) fn is_stale(&self, mr: MrKey, page: usize) -> bool {
        self.stale_pages.contains(mr, page)
    }

    /// True if this QP holds no stale page.
    pub(super) fn is_empty(&self) -> bool {
        self.stale_pages.is_empty()
    }
}

/// An active client-side ODP stall: a READ whose response was discarded
/// because local pages were not usable; blindly retransmitted each tick.
#[derive(Debug, Clone)]
pub(super) struct OdpStall {
    /// First PSN of the stalled message.
    pub(super) psn: Psn,
    /// End of the damming ghost window (= time of the first blind retick).
    pub(super) ghost_until: SimTime,
    /// The page whose fault blocked the response, when the gate knows
    /// it. Event-driven backends resume a stall only when *its* page
    /// resolves, so one page's resolution never triggers retransmissions
    /// that the still-faulting pages would discard again.
    pub(super) blocked_on: Option<(MrKey, usize)>,
}

/// The requester's fault-recovery state: the RNR wait (if any) plus every
/// active ODP stall. Owned by the requester engine; grouped here because
/// the damming ghost window (§V) is defined over exactly this state.
#[derive(Debug, Default)]
pub(super) struct Recovery {
    /// PSN of the message the responder RNR-NAKed, while the wait lasts.
    pub(super) rnr_wait: Option<Psn>,
    /// Active client-side ODP stalls.
    pub(super) stalls: Vec<OdpStall>,
}

impl Recovery {
    /// True while the QP is inside a fault-recovery window (RNR wait, or
    /// the pre-first-retransmit phase of an ODP stall): on `damming`
    /// devices, requests first transmitted now become ghosts.
    pub(super) fn in_window(&self, now: SimTime) -> bool {
        self.rnr_wait.is_some() || self.stalls.iter().any(|s| now < s.ghost_until)
    }

    /// True if any ODP stall or RNR wait is active (used by the NIC to
    /// estimate timer-management load, §VI-C).
    pub(super) fn active(&self) -> bool {
        self.rnr_wait.is_some() || !self.stalls.is_empty()
    }
}

/// A byte range of one registered region: what a request targets, a
/// response lands in, or a payload segment is gathered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Span {
    /// The region (rkey for a remote target, lkey for a local range).
    pub(super) key: MrKey,
    /// Offset of the first byte within the region.
    pub(super) off: u64,
    /// Length in bytes; zero is legal (see [`pages`]).
    pub(super) len: u32,
}

/// The gate's two counters, kept for the engine that asked (requester
/// and responder embed one each; [`QpStats`](super::QpStats) sums them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct GateStats {
    /// Gate passes that raised at least one network page fault.
    pub(super) faults_raised: u64,
    /// Pages pinned on first touch (`OnDemandPin` backend only).
    pub(super) pages_pinned: u64,
}

/// The pages `span` touches. The bounds check comes first — a span
/// outside the region is the caller's to refuse (the responder NAKs it
/// before asking; `Requester::post` refuses a local one, so the assert
/// here states an invariant) — and the zero-length rule after it: an empty span touches the
/// page it points into, and no page when it points at the region's end.
fn pages(mr: &MemRegion, span: Span) -> Range<usize> {
    if span.len == 0 && span.off == mr.len() {
        return 0..0;
    }
    let touched = mr.pages_spanned(span.off, span.len);
    *touched.start()..touched.end() + 1
}

/// The pages of a gated span its caller must still see usable: none on
/// pinned memory or once the pinning backend has mapped them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Gated {
    key: MrKey,
    pages: Range<usize>,
}

impl Gated {
    /// The pages not yet usable by anyone — still faulting, those the
    /// gate just raised included — in page order.
    pub(super) fn pending<'a>(
        &self,
        mr: &'a MemRegion,
    ) -> impl Iterator<Item = (MrKey, usize)> + 'a {
        let key = self.key;
        self.pages
            .clone()
            .filter(|&p| mr.page_state(p) != PageState::Mapped)
            .map(move |p| (key, p))
    }

    /// The first page unusable by *this QP*: faulting, or mapped but
    /// its status not yet propagated here (the tracker's stale set).
    pub(super) fn blocking(
        &self,
        mr: &MemRegion,
        tracker: &FaultTracker,
    ) -> Option<(MrKey, usize)> {
        self.pages
            .clone()
            .find(|&p| mr.page_state(p) != PageState::Mapped || tracker.is_stale(self.key, p))
            .map(|p| (self.key, p))
    }
}

/// The one span walk: every unmapped page of `span` starts faulting
/// (`Unmapped → Faulting`, counted on the region, queued for the driver
/// in page order) and the pass counts as one raised fault if any did.
/// Faulting and mapped pages are left alone. This is also the whole of
/// the responder's drop path, which primes faults under every backend.
pub(super) fn raise(
    mr: &mut MemRegion,
    span: Span,
    stats: &mut GateStats,
    fx: &mut Effects,
) -> Gated {
    let pages = pages(mr, span);
    let before = fx.faults.len();
    for p in pages.clone() {
        if mr.page_state(p) == PageState::Unmapped {
            mr.set_page_state(p, PageState::Faulting);
            mr.fault_count += 1;
            fx.faults.push((span.key, p));
        }
    }
    if fx.faults.len() > before {
        stats.faults_raised += 1;
    }
    Gated {
        key: span.key,
        pages,
    }
}

/// The page gate — "may this QP touch this span now?" — asked by the
/// responder's admission, the requester's transmit pump and its
/// response landing alike. Pinned memory is always usable. On an ODP
/// region the pinning backend maps every page of the span on the spot
/// (NP-RDMA style: no fault event, no wait, the fault window never
/// opens); every other backend [`raise`]s what is unmapped. What the
/// caller does with the pages still [`Gated::pending`] is its own
/// business: enter pendency, block transmission, or register waits and
/// consult staleness.
pub(super) fn admit(
    kind: RecoveryKind,
    mr: &mut MemRegion,
    span: Span,
    stats: &mut GateStats,
    fx: &mut Effects,
) -> Gated {
    let clear = Gated {
        key: span.key,
        pages: 0..0,
    };
    if mr.mode() != MrMode::Odp {
        return clear;
    }
    if !kind.pins_on_first_touch() {
        return raise(mr, span, stats, fx);
    }
    for p in pages(mr, span) {
        if mr.page_state(p) != PageState::Mapped {
            mr.set_page_state(p, PageState::Mapped);
            stats.pages_pinned += 1;
        }
    }
    clear
}

/// The gate's non-faulting form: true if `span` lies inside the region
/// and every page it touches is mapped. Changes nothing.
pub(super) fn usable(mr: &MemRegion, span: Span) -> bool {
    mr.contains(span.off, span.len)
        && pages(mr, span).all(|p| mr.page_state(p) == PageState::Mapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_round_trips_staleness() {
        let mut t = FaultTracker::new();
        assert!(!t.is_stale(MrKey(1), 0));
        t.mark_stale(MrKey(1), 0);
        t.mark_stale(MrKey(1), 3);
        assert!(t.is_stale(MrKey(1), 0));
        t.page_ready(MrKey(1), 0);
        assert!(!t.is_stale(MrKey(1), 0));
        assert!(t.is_stale(MrKey(1), 3));
        assert!(!t.is_empty());
        t.page_ready(MrKey(1), 3);
        assert!(t.is_empty());
    }

    /// `PageSet` against a `BTreeSet<(MrKey, usize)>`, the type it
    /// replaced, on seeded mixes of every operation: one to three regions,
    /// pages on and beside word boundaries and past 10 000, removals of
    /// absent pages, and a refill after each full drain.
    #[test]
    fn page_set_matches_an_ordered_set() {
        use std::collections::BTreeSet;

        use ibsim_event::SplitMix64;

        const PAGES: [usize; 8] = [0, 1, 63, 64, 65, 127, 10_000, 12_345];
        let mut rng = SplitMix64::new(0xFA6E_0053);
        for run in 0..60u64 {
            let regions = 1 + run % 3;
            let mut set = PageSet::default();
            let mut model = BTreeSet::new();
            let mut drains = 0;
            for step in 0..300 {
                let key = MrKey(1 + rng.next_below(regions) as u32);
                let page = if rng.next_bool() {
                    PAGES[rng.next_below(PAGES.len() as u64) as usize]
                } else {
                    rng.next_below(130) as usize
                };
                let at = format!("run {run} step {step} ({key:?}, {page})");
                match rng.next_below(10) {
                    0..=3 => assert_eq!(set.insert(key, page), model.insert((key, page)), "{at}"),
                    4..=7 => assert_eq!(set.remove(key, page), model.remove(&(key, page)), "{at}"),
                    8 => {
                        // Drain page by page, as resumes do, then refill.
                        for (k, p) in std::mem::take(&mut model) {
                            assert!(set.remove(k, p), "{at}");
                        }
                        assert!(set.is_empty(), "{at}");
                        drains += 1;
                    }
                    _ => {
                        set.clear();
                        model.clear();
                    }
                }
                assert_eq!(set.is_empty(), model.is_empty(), "{at}");
                for k in 1..=regions as u32 {
                    for p in PAGES.into_iter().chain(0..130) {
                        let key = MrKey(k);
                        assert_eq!(set.contains(key, p), model.contains(&(key, p)), "{at}");
                    }
                }
            }
            assert!(drains > 0, "run {run} never drained");
        }
        // Absent everywhere: an unknown region, a page past the words.
        let mut set = PageSet::default();
        assert!(!set.remove(MrKey(9), 0));
        set.insert(MrKey(1), 3);
        assert!(!set.remove(MrKey(1), 10_000));
        assert!(!set.contains(MrKey(1), 10_000));
        assert!(!set.is_empty());
    }

    #[test]
    fn recovery_window_covers_rnr_and_fresh_stalls() {
        let mut r = Recovery::default();
        assert!(!r.active());
        assert!(!r.in_window(SimTime::ZERO));
        r.stalls.push(OdpStall {
            psn: Psn::new(5),
            ghost_until: SimTime::from_us(10),
            blocked_on: None,
        });
        assert!(r.active());
        assert!(r.in_window(SimTime::from_us(9)));
        // Past the first blind retransmit the stall is no longer a ghost
        // window, but still counts as recovery load.
        assert!(!r.in_window(SimTime::from_us(10)));
        assert!(r.active());
        r.stalls.clear();
        r.rnr_wait = Some(Psn::new(5));
        assert!(r.in_window(SimTime::from_ms(99)));
    }
}
