//! Loss recovery as closed data: [`RecoveryKind`] is the backend.
//!
//! The paper's pitfalls are consequences of *one point* in the design
//! space — go-back-N recovery colliding with the ODP fault window — and
//! the literature being reproduced names exactly two alternatives, so
//! the set of backends is closed and every decision is an exhaustive
//! `match` on the kind (a fourth backend breaks the build at each one):
//!
//! * `gbn` — the measured hardware: cumulative acking, everything from
//!   the hole retransmitted, blind 0.5 ms ODP stall ticks, and the
//!   ConnectX-4 ghost-forgetting quirk on damming profiles.
//! * `irn` — IRN-style selective repeat (Mittal et al., *Revisiting
//!   Network Support for RDMA*): per-message acking backed by a
//!   wraparound-safe [`SackBitmap`], retransmission only of messages
//!   with evidence of non-delivery, out-of-order acceptance at the
//!   responder, and ODP stalls resumed by the fault-resolution event.
//! * `pin` — NP-RDMA-style on-demand pinning: go-back-N loss recovery on
//!   sane firmware, but faulting pages pin on first touch (see
//!   `fault::pin_pages`), so the fault window never opens and neither
//!   pitfall can occur.
//!
//! Two things live here. The capability predicates on [`RecoveryKind`]
//! are what the requester, the responder and the trace linter ask
//! instead of comparing kinds. [`Backend`] is the little state a
//! requester owns on top of its kind — selective repeat's delivery
//! bitmap — with the one selection rule every recovery pass applies:
//! [`Backend::resends`].

use core::fmt;
use std::str::FromStr;

use crate::types::Psn;
use crate::wr::SendWqe;

/// Which loss-recovery backend a QP runs. Carried in
/// [`QpConfig`](super::QpConfig); defaults to [`RecoveryKind::GoBackN`],
/// the hardware the paper measured.
///
/// `Display` and `FromStr` round-trip exactly (`gbn`, `irn`, `pin`);
/// the scenario spec and benches rely on that.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::RecoveryKind;
///
/// assert_eq!(RecoveryKind::default(), RecoveryKind::GoBackN);
/// for k in RecoveryKind::ALL {
///     assert_eq!(k.to_string().parse::<RecoveryKind>(), Ok(k));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RecoveryKind {
    /// Go-back-N, as ConnectX-class hardware implements it.
    #[default]
    GoBackN,
    /// IRN-style selective repeat with SACK-bitmap loss tracking.
    SelectiveRepeat,
    /// NP-RDMA-style on-demand pinning: go-back-N loss recovery, but
    /// pages pin on first touch so the fault window never opens.
    OnDemandPin,
}

impl RecoveryKind {
    /// Every backend, in ablation order.
    pub const ALL: [RecoveryKind; 3] = [
        RecoveryKind::GoBackN,
        RecoveryKind::SelectiveRepeat,
        RecoveryKind::OnDemandPin,
    ];

    /// The spec/CLI token (`gbn`, `irn`, `pin`).
    pub fn token(self) -> &'static str {
        match self {
            RecoveryKind::GoBackN => "gbn",
            RecoveryKind::SelectiveRepeat => "irn",
            RecoveryKind::OnDemandPin => "pin",
        }
    }

    /// True if the ConnectX-4 damming quirks apply: ghost windows, the
    /// ghost lookback on RNR NAKs, response discard during RNR waits
    /// and ghosts forgotten when the wait expires. They are artifacts of
    /// the hardware go-back-N engine, not of go-back-N recovery.
    pub fn ghost_quirks(self) -> bool {
        match self {
            RecoveryKind::GoBackN => true,
            RecoveryKind::SelectiveRepeat | RecoveryKind::OnDemandPin => false,
        }
    }

    /// True if ACKs and responses acknowledge cumulatively. When false,
    /// an ACK for `psn` acknowledges only the message whose final PSN is
    /// `psn`.
    pub fn cumulative_ack(self) -> bool {
        match self {
            RecoveryKind::GoBackN | RecoveryKind::OnDemandPin => true,
            RecoveryKind::SelectiveRepeat => false,
        }
    }

    /// How a client-side ODP stall resumes. True: a blind 0.5 ms tick
    /// resends the stalled request "regardless of the resolution of the
    /// page fault" (§IV-A) and re-arms itself, deaf to the resolution.
    /// False: no tick is armed and the fault-resolution event resumes
    /// the stall, once. (Pinning never stalls, so its answer is moot.)
    pub fn blind_stall_tick(self) -> bool {
        match self {
            RecoveryKind::GoBackN | RecoveryKind::OnDemandPin => true,
            RecoveryKind::SelectiveRepeat => false,
        }
    }

    /// True if the responder executes a future READ or WRITE on arrival
    /// and lets the ePSN jump over it once the hole fills, instead of
    /// dropping everything behind a hole.
    pub fn accepts_out_of_order(self) -> bool {
        match self {
            RecoveryKind::SelectiveRepeat => true,
            RecoveryKind::GoBackN | RecoveryKind::OnDemandPin => false,
        }
    }

    /// True if the ODP gates pin a not-yet-mapped page synchronously on
    /// first touch instead of raising a network page fault.
    pub fn pins_on_first_touch(self) -> bool {
        match self {
            RecoveryKind::OnDemandPin => true,
            RecoveryKind::GoBackN | RecoveryKind::SelectiveRepeat => false,
        }
    }
}

impl fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for RecoveryKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gbn" => Ok(RecoveryKind::GoBackN),
            "irn" => Ok(RecoveryKind::SelectiveRepeat),
            "pin" => Ok(RecoveryKind::OnDemandPin),
            other => Err(format!(
                "unknown recovery kind `{other}` (expected gbn, irn or pin)"
            )),
        }
    }
}

// ----------------------------------------------------------------------
// SACK bitmap
// ----------------------------------------------------------------------

/// A selective-acknowledgment bitmap over the 24-bit PSN space.
///
/// Tracks which PSNs at or ahead of a moving `base` have been delivered.
/// All arithmetic is modulo 2^24 with the standard half-range horizon,
/// so windows walking across `0xFF_FFFF → 0` behave exactly like windows
/// in the middle of the space. Storage is the dense run of 64-PSN words
/// from the base's word to the furthest mark, so a lookup is one index;
/// [`SackBitmap::advance_to`] drops the retired words from the front, so
/// a wrapped-around PSN can never alias a stale mark from the previous
/// epoch.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::{Psn, SackBitmap};
///
/// let mut sack = SackBitmap::new(Psn::new(0xFF_FFFE));
/// sack.mark(Psn::new(0xFF_FFFF));
/// sack.mark(Psn::new(1)); // wrapped
/// assert!(!sack.is_marked(Psn::new(0xFF_FFFE)));
/// assert!(sack.is_marked(Psn::new(0xFF_FFFF)));
/// assert!(sack.is_marked(Psn::new(1)));
/// assert!(!sack.all_marked(Psn::new(0xFF_FFFE), Psn::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct SackBitmap {
    base: Psn,
    /// Delivered bits: `words[i]` is the word `i` past the base's word
    /// (`psn >> 6`, modulo the 2^18 words of the PSN space). The last
    /// word is never zero.
    words: Vec<u64>,
}

impl SackBitmap {
    /// Marks further than half the PSN space ahead of the base are
    /// rejected: they are indistinguishable from marks *behind* it.
    pub const WINDOW: u32 = Psn::MODULUS >> 1;

    /// An empty bitmap with everything before `base` considered retired
    /// (and therefore delivered).
    pub fn new(base: Psn) -> Self {
        SackBitmap {
            base,
            words: Vec::new(),
        }
    }

    /// Index into `words` of the word holding `psn`, counted from the
    /// base's word. Words never straddle the 2^24 wrap (the modulus is
    /// word-aligned), so this is word-index distance modulo 2^18.
    fn slot(&self, psn: Psn) -> usize {
        ((psn.value() >> 6).wrapping_sub(self.base.value() >> 6) & (Psn::MODULUS / 64 - 1)) as usize
    }

    /// The current window base.
    pub fn base(&self) -> Psn {
        self.base
    }

    /// Records `psn` as delivered. Returns `true` if the mark is new;
    /// PSNs behind the base (already retired) or beyond the half-range
    /// window are ignored.
    pub fn mark(&mut self, psn: Psn) -> bool {
        if psn.distance_from(self.base) >= Self::WINDOW {
            return false;
        }
        let (i, bit) = (self.slot(psn), 1u64 << (psn.value() & 63));
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        let newly = self.words[i] & bit == 0;
        self.words[i] |= bit;
        newly
    }

    /// True if `psn` was delivered: explicitly marked, or retired behind
    /// the base.
    pub fn is_marked(&self, psn: Psn) -> bool {
        if psn.precedes(self.base) {
            return true;
        }
        self.words
            .get(self.slot(psn))
            .is_some_and(|w| w & (1u64 << (psn.value() & 63)) != 0)
    }

    /// True if every PSN of the inclusive span `[first, last]` is
    /// delivered. Spans wider than the half-range window report a hole.
    pub fn all_marked(&self, first: Psn, last: Psn) -> bool {
        if last.distance_from(first) >= Self::WINDOW {
            return false;
        }
        let mut p = first;
        loop {
            if !self.is_marked(p) {
                return false;
            }
            if p == last {
                return true;
            }
            p = p.next();
        }
    }

    /// Advances the base to `new_base` (a retire point), pruning every
    /// mark that falls behind it. Moving backwards is a no-op.
    pub fn advance_to(&mut self, new_base: Psn) {
        if new_base.precedes(self.base) || new_base == self.base {
            return;
        }
        let retired = self.slot(new_base).min(self.words.len());
        self.base = new_base;
        self.words.drain(..retired);
        // Partial boundary word: clear the retired low bits so an epoch
        // later (2^24 PSNs from now) they cannot alias fresh marks.
        if let Some(word) = self.words.first_mut() {
            *word &= u64::MAX << (new_base.value() & 63);
        }
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Number of words from the base's word to the last word holding a
    /// mark (diagnostics: stays proportional to the outstanding window,
    /// not to total traffic).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }
}

// ----------------------------------------------------------------------
// The requester's backend state
// ----------------------------------------------------------------------

/// What a requester keeps for its recovery backend: the kind, and under
/// selective repeat the PSNs delivered so far. The cumulative backends
/// mark nothing, and an empty bitmap holds no allocation.
#[derive(Debug)]
pub(super) struct Backend {
    kind: RecoveryKind,
    delivered: SackBitmap,
}

impl Backend {
    pub(super) fn new(kind: RecoveryKind) -> Self {
        Backend {
            kind,
            delivered: SackBitmap::new(Psn::new(0)),
        }
    }

    /// The delivery bitmap, for the one backend that tracks delivery
    /// per PSN.
    fn sack(&mut self) -> Option<&mut SackBitmap> {
        match self.kind {
            RecoveryKind::SelectiveRepeat => Some(&mut self.delivered),
            RecoveryKind::GoBackN | RecoveryKind::OnDemandPin => None,
        }
    }

    /// One PSN was delivered (a response segment consumed, or an ACK
    /// received).
    pub(super) fn note_delivered(&mut self, psn: Psn) {
        if let Some(sack) = self.sack() {
            sack.mark(psn);
        }
    }

    /// The whole message span `[psn_first, psn_last]` was acknowledged.
    pub(super) fn note_message_delivered(&mut self, psn_first: Psn, psn_last: Psn) {
        let Some(sack) = self.sack() else {
            return;
        };
        let mut p = psn_first;
        loop {
            sack.mark(p);
            if p == psn_last {
                break;
            }
            p = p.next();
        }
    }

    /// Everything before `up_to` retired: the bitmap is pruned, so it
    /// stays bounded by the outstanding window.
    pub(super) fn note_retired(&mut self, up_to: Psn) {
        if let Some(sack) = self.sack() {
            sack.advance_to(up_to);
        }
    }

    /// The one selection rule of loss recovery: does a pass that
    /// recovers from PSN `from` — an ACK timeout, an RNR-wait expiry or
    /// a sequence-error NAK — put `w` back on the wire? Never a message
    /// that was not transmitted, has finished, or ends before `from`.
    /// Of the rest, go-back-N resends all but the ghosts it is asked to
    /// forget (the ConnectX-4 flaw, §IV-A: an RNR expiry on a damming
    /// profile skips the successors first transmitted during the wait);
    /// pinning resends all, on any profile; selective repeat skips
    /// whatever was acknowledged or is covered by the delivery bitmap,
    /// and resends the undelivered rest all the way to the tail — the
    /// responder dropped, or absorbed without acking, whatever followed
    /// the hole, and bounding the pass at the NAKed PSN would leave
    /// later SENDs and atomics waiting out a full `T_o` each.
    pub(super) fn resends(&self, w: &SendWqe, from: Psn, forget_ghosts: bool) -> bool {
        if w.sent_segments == 0 || w.is_done() || w.psn_last.precedes(from) {
            return false;
        }
        match self.kind {
            RecoveryKind::GoBackN => !(forget_ghosts && w.ghosted),
            RecoveryKind::OnDemandPin => true,
            RecoveryKind::SelectiveRepeat => {
                !w.acked && !self.delivered.all_marked(w.psn_first, w.psn_last)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::VecDeque;

    use ibsim_event::SplitMix64;

    /// A queued READ over `[first, last]` in the given delivery state.
    fn wqe(first: u32, last: u32, sent: bool, done: bool, acked: bool, ghosted: bool) -> SendWqe {
        SendWqe {
            acked,
            ghosted,
            ..SendWqe::read_for_test(Psn::new(first), last - first + 1, sent, done)
        }
    }

    type Sq = VecDeque<SendWqe>;

    /// First PSNs of the messages a recovery pass from `from` resends.
    fn pass(b: &Backend, sq: &Sq, from: Psn, forget_ghosts: bool) -> Vec<Psn> {
        sq.iter()
            .filter(|w| b.resends(w, from, forget_ghosts))
            .map(|w| w.psn_first)
            .collect()
    }

    #[test]
    fn kind_display_parse_round_trip() {
        for k in RecoveryKind::ALL {
            assert_eq!(k.to_string().parse::<RecoveryKind>(), Ok(k));
        }
        assert_eq!(RecoveryKind::default(), RecoveryKind::GoBackN);
        assert!("gobackn".parse::<RecoveryKind>().is_err());
        assert!("".parse::<RecoveryKind>().is_err());
    }

    #[test]
    fn sack_marks_and_holes_mid_space() {
        let mut s = SackBitmap::new(Psn::new(100));
        assert!(s.mark(Psn::new(100)));
        assert!(s.mark(Psn::new(102)));
        assert!(!s.mark(Psn::new(102)), "double mark is not new");
        assert!(s.is_marked(Psn::new(100)));
        assert!(!s.is_marked(Psn::new(101)));
        assert!(!s.all_marked(Psn::new(100), Psn::new(102)));
        s.mark(Psn::new(101));
        assert!(s.all_marked(Psn::new(100), Psn::new(102)));
        // Behind the base counts as delivered (retired).
        assert!(s.is_marked(Psn::new(50)));
        // Beyond the half-range window is rejected.
        assert!(!s.mark(Psn::new(100).add(SackBitmap::WINDOW)));
    }

    #[test]
    fn sack_window_walk_across_24_bit_wrap() {
        // A 32-PSN window whose head sits just below 0xFF_FFFF and whose
        // tail wraps to small values, mirroring the Psn window-walk pin.
        let base = Psn::new(0xFF_FFF8);
        let mut s = SackBitmap::new(base);
        for n in 0..32 {
            assert!(s.mark(base.add(n)), "mark {n} across the wrap");
        }
        for n in 0..32 {
            assert!(s.is_marked(base.add(n)), "marked {n} across the wrap");
        }
        assert!(s.all_marked(base, base.add(31)));
        // Hole negative: clear evidence survives the wrap. A fresh map
        // with one missing PSN right at the boundary reports the hole.
        let mut holed = SackBitmap::new(base);
        for n in 0..32 {
            if n != 8 {
                holed.mark(base.add(n));
            }
        }
        assert_eq!(base.add(8), Psn::new(0), "the hole is exactly at wrap");
        assert!(!holed.all_marked(base, base.add(31)));
        assert!(holed.all_marked(base, base.add(7)));
        assert!(holed.all_marked(base.add(9), base.add(31)));
    }

    #[test]
    fn sack_advance_prunes_and_prevents_epoch_reuse() {
        let base = Psn::new(0xFF_FFC0);
        let mut s = SackBitmap::new(base);
        for n in 0..128 {
            s.mark(base.add(n));
        }
        assert!(s.word_count() >= 2);
        // Retire across the wrap: everything before PSN 16 goes away.
        s.advance_to(Psn::new(16));
        assert_eq!(s.base(), Psn::new(16));
        assert!(s.is_marked(Psn::new(5)), "behind base counts as retired");
        assert!(s.is_marked(Psn::new(16)));
        assert!(s.is_marked(base.add(127)));
        // Reuse negative: a full epoch later the same numeric PSNs come
        // around again. Walk the base forward in sub-half-range steps
        // (serial arithmetic caps a single advance at the horizon);
        // after passing them the old marks must read as holes, not as
        // stale marks from the previous epoch.
        s.advance_to(Psn::new(64));
        s.advance_to(Psn::new(0x40_0000));
        s.advance_to(Psn::new(0x80_0000));
        s.advance_to(Psn::new(0xC0_0000));
        s.advance_to(Psn::new(0xFF_FF00));
        assert!(
            !s.is_marked(Psn::new(0xFF_FFC8)),
            "pruned epoch must not alias"
        );
        assert_eq!(s.word_count(), 0, "all words pruned");
        // Backwards advance is a no-op.
        s.advance_to(Psn::new(0xFF_0000));
        assert_eq!(s.base(), Psn::new(0xFF_FF00));
    }

    #[test]
    fn sack_partial_boundary_word_is_cleared() {
        let mut s = SackBitmap::new(Psn::new(0));
        for n in 0..10 {
            s.mark(Psn::new(n));
        }
        s.advance_to(Psn::new(5));
        // 0..5 retired (reads delivered via the base), 5..10 still
        // explicit marks, and the word holds only the surviving bits.
        assert!(s.is_marked(Psn::new(3)));
        assert!(s.is_marked(Psn::new(7)));
        assert_eq!(s.word_count(), 1);
        s.advance_to(Psn::new(10));
        assert_eq!(s.word_count(), 0);
    }

    /// `SackBitmap` as it stood with its words in a `BTreeMap` keyed by
    /// absolute word index (`psn >> 6`), kept as the dense run's
    /// reference.
    mod sack_reference {
        use std::collections::BTreeMap;

        use crate::types::Psn;

        pub struct Sack {
            pub base: Psn,
            pub words: BTreeMap<u32, u64>,
        }

        impl Sack {
            pub fn new(base: Psn) -> Self {
                Sack {
                    base,
                    words: BTreeMap::new(),
                }
            }

            pub fn mark(&mut self, psn: Psn) -> bool {
                if psn.distance_from(self.base) >= Psn::MODULUS >> 1 {
                    return false;
                }
                let bit = 1u64 << (psn.value() & 63);
                let word = self.words.entry(psn.value() >> 6).or_insert(0);
                let newly = *word & bit == 0;
                *word |= bit;
                newly
            }

            pub fn is_marked(&self, psn: Psn) -> bool {
                if psn.precedes(self.base) {
                    return true;
                }
                self.words
                    .get(&(psn.value() >> 6))
                    .is_some_and(|w| w & (1u64 << (psn.value() & 63)) != 0)
            }

            pub fn advance_to(&mut self, new_base: Psn) {
                if new_base.precedes(self.base) || new_base == self.base {
                    return;
                }
                self.base = new_base;
                self.words
                    .retain(|&widx, _| !Psn::new(widx * 64 + 63).precedes(new_base));
                if let Some(word) = self.words.get_mut(&(new_base.value() >> 6)) {
                    *word &= u64::MAX << (new_base.value() & 63);
                    if *word == 0 {
                        self.words.remove(&(new_base.value() >> 6));
                    }
                }
            }

            /// Words from the base's word to the furthest word holding a
            /// mark, modulo the 2^18 words of the PSN space.
            pub fn word_span(&self) -> usize {
                let home = self.base.value() >> 6;
                self.words
                    .iter()
                    .filter(|&(_, &w)| w != 0)
                    .map(|(&i, _)| (i.wrapping_sub(home) & (Psn::MODULUS / 64 - 1)) as usize + 1)
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// The dense run against the word map it replaced, on seeded walks:
    /// marks near and on word boundaries, behind the base and far ahead,
    /// advances inside one word, across words, across the 2^24 wrap and
    /// by whole quarter-epochs, so marks of one epoch meet the numerals
    /// of the next.
    #[test]
    fn sack_dense_run_matches_the_word_map() {
        let mut rng = SplitMix64::new(0x5AC4_0053);
        for walk in 0..64u64 {
            let start = match walk % 4 {
                0 => Psn::new(0),
                1 => Psn::new(0xFF_FFFF - rng.next_below(200) as u32),
                2 => Psn::new(0xFF_FFC0),
                _ => Psn::new(rng.next_below(1 << 24) as u32),
            };
            let mut dense = SackBitmap::new(start);
            let mut model = sack_reference::Sack::new(start);
            let mut probes = vec![start];
            for step in 0..300 {
                let base = dense.base();
                match rng.next_below(10) {
                    0..=5 => {
                        let psn = match rng.next_below(6) {
                            0 => base.add(rng.next_below(4096) as u32),
                            // The last PSN of a word, the first of the
                            // next, and the base's own word.
                            1 => Psn::new((base.value() | 63) + rng.next_below(2) as u32),
                            2 => Psn::new(base.value() & !63).add(rng.next_below(64) as u32),
                            // Behind the base: retired, refused.
                            3 => base.add(Psn::MODULUS - 1 - rng.next_below(300) as u32),
                            _ => base.add(rng.next_below(160) as u32),
                        };
                        assert_eq!(
                            dense.mark(psn),
                            model.mark(psn),
                            "walk {walk} step {step} mark {psn}"
                        );
                        probes.push(psn);
                    }
                    6..=8 => {
                        let reach = if rng.next_bool() { 64 } else { 400 };
                        let to = base.add(rng.next_below(reach) as u32);
                        dense.advance_to(to);
                        model.advance_to(to);
                    }
                    _ => {
                        // A quarter of the PSN space: four carry the base a
                        // full epoch round, past every numeral it marked.
                        let to = base.add(Psn::MODULUS / 4 - rng.next_below(64) as u32);
                        dense.advance_to(to);
                        model.advance_to(to);
                    }
                }
                assert_eq!(dense.base(), model.base, "walk {walk} step {step}");
                assert_eq!(
                    dense.word_count(),
                    model.word_span(),
                    "walk {walk} step {step}"
                );
                let b = dense.base();
                for psn in probes.iter().copied().chain((0..200).map(|n| b.add(n))) {
                    assert_eq!(
                        dense.is_marked(psn),
                        model.is_marked(psn),
                        "walk {walk} step {step} probe {psn}"
                    );
                }
            }
        }
    }

    /// The one place the two part: a mark within 63 PSNs of the
    /// half-range horizon. The word map pruned any word whose *last* PSN
    /// lay past the horizon once the base moved, losing a mark still
    /// ahead of the base; the dense run drops only words behind it.
    #[test]
    fn sack_keeps_a_mark_whose_word_crosses_the_horizon() {
        let psn = Psn::new(0x80_0000);
        let mut dense = SackBitmap::new(Psn::new(1));
        let mut model = sack_reference::Sack::new(Psn::new(1));
        assert!(dense.mark(psn) && model.mark(psn));
        dense.advance_to(Psn::new(2));
        model.advance_to(Psn::new(2));
        assert!(dense.is_marked(psn));
        assert!(!model.is_marked(psn));
    }

    #[test]
    fn capabilities_by_kind() {
        use RecoveryKind::{GoBackN, OnDemandPin, SelectiveRepeat};
        let table = RecoveryKind::ALL.map(|k| {
            [
                k.ghost_quirks(),
                k.cumulative_ack(),
                k.blind_stall_tick(),
                k.accepts_out_of_order(),
                k.pins_on_first_touch(),
            ]
        });
        assert_eq!(RecoveryKind::ALL, [GoBackN, SelectiveRepeat, OnDemandPin]);
        assert_eq!(
            table,
            [
                [true, true, true, false, false],
                [false, false, false, true, false],
                [false, true, true, false, true],
            ]
        );
    }

    #[test]
    fn go_back_n_retransmits_everything_from_hole() {
        let sq = Sq::from([
            wqe(0, 0, true, true, true, false),    // done: skipped
            wqe(1, 2, true, false, false, false),  // pending
            wqe(3, 3, true, false, true, false),   // acked but not done (READ)
            wqe(4, 5, false, false, false, false), // never sent: skipped
        ]);
        let b = Backend::new(RecoveryKind::GoBackN);
        assert_eq!(
            pass(&b, &sq, Psn::new(1), false),
            [Psn::new(1), Psn::new(3)]
        );
        // From a later hole, earlier spans are skipped.
        assert_eq!(pass(&b, &sq, Psn::new(3), false), [Psn::new(3)]);
    }

    #[test]
    fn only_go_back_n_forgets_ghosts_and_only_when_asked() {
        let sq = Sq::from([
            wqe(0, 0, true, false, false, false),
            wqe(1, 1, true, false, false, true), // ghosted successor
        ]);
        let both = [Psn::new(0), Psn::new(1)];
        let gbn = Backend::new(RecoveryKind::GoBackN);
        assert_eq!(pass(&gbn, &sq, Psn::new(0), true), [Psn::new(0)]);
        assert_eq!(pass(&gbn, &sq, Psn::new(0), false), both);
        // The pin model is fixed firmware: even on a damming profile.
        let pin = Backend::new(RecoveryKind::OnDemandPin);
        assert_eq!(pass(&pin, &sq, Psn::new(0), true), both);
        let irn = Backend::new(RecoveryKind::SelectiveRepeat);
        assert_eq!(pass(&irn, &sq, Psn::new(0), true), both);
    }

    #[test]
    fn selective_repeat_skips_delivered_and_acked_messages() {
        let sq = Sq::from([
            wqe(0, 1, true, false, false, false),
            wqe(2, 3, true, false, false, false),
            wqe(4, 4, true, false, true, false), // acked, data outstanding
            wqe(5, 5, true, false, false, false),
        ]);
        let mut b = Backend::new(RecoveryKind::SelectiveRepeat);
        // The second message was fully delivered (responses consumed).
        b.note_delivered(Psn::new(2));
        b.note_delivered(Psn::new(3));
        // The bitmap-covered and the acked message are skipped, and the
        // undelivered tail past them is still resent: the responder
        // dropped or silently absorbed everything behind the hole.
        assert_eq!(
            pass(&b, &sq, Psn::new(0), false),
            [Psn::new(0), Psn::new(5)]
        );
        // The cumulative backends track nothing per PSN.
        let mut gbn = Backend::new(RecoveryKind::GoBackN);
        gbn.note_delivered(Psn::new(2));
        gbn.note_message_delivered(Psn::new(2), Psn::new(3));
        gbn.note_retired(Psn::new(2));
        assert_eq!(gbn.delivered.word_count(), 0);
        assert_eq!(gbn.delivered.base(), Psn::new(0));
    }

    /// The three backends as they were behind the `RecoveryPolicy` trait
    /// the closed form replaced (then object-safe and boxed; generic
    /// here), kept as its reference.
    mod reference {
        use super::super::SackBitmap;
        use crate::qp::requester::sq_index;
        use crate::types::Psn;
        use crate::wr::SendWqe;
        use std::collections::VecDeque;

        #[derive(Debug, Clone, Copy)]
        pub struct WrView {
            pub psn_first: Psn,
            pub psn_last: Psn,
            pub sent: bool,
            pub done: bool,
            pub acked: bool,
            pub ghosted: bool,
        }

        impl WrView {
            pub fn pending(&self) -> bool {
                self.sent && !self.done
            }
        }

        pub struct RetransmitCtx<'a>(pub &'a VecDeque<SendWqe>);

        fn view(w: &SendWqe) -> WrView {
            WrView {
                psn_first: w.psn_first,
                psn_last: w.psn_last,
                sent: w.sent_segments > 0,
                done: w.is_done(),
                acked: w.acked,
                ghosted: w.ghosted,
            }
        }

        impl RetransmitCtx<'_> {
            pub fn wrs(&self) -> impl Iterator<Item = WrView> + '_ {
                self.0.iter().map(view)
            }

            pub fn wr(&self, psn_first: Psn) -> Option<WrView> {
                let w = &self.0[sq_index(self.0, psn_first)?];
                (w.psn_first == psn_first).then(|| view(w))
            }
        }

        pub type RecoveryPlan = Vec<Psn>;

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct StallVerdict {
            pub retransmit: bool,
            pub rearm: bool,
        }

        pub trait RecoveryPolicy {
            fn ghost_quirks(&self) -> bool;
            fn arms_blind_stall(&self) -> bool;
            fn cumulative_ack(&self) -> bool;
            fn note_delivered(&mut self, psn: Psn);
            fn note_message_delivered(&mut self, psn_first: Psn, psn_last: Psn);
            fn note_retired(&mut self, up_to: Psn);
            fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan;
            fn on_rnr_expire(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                psn: Psn,
                damming: bool,
            ) -> RecoveryPlan;
            fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, at: Psn) -> RecoveryPlan;
            fn on_stall_tick(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn) -> StallVerdict;
            fn on_fault_resolved(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                stalled: impl Iterator<Item = Psn>,
            ) -> RecoveryPlan;
        }

        pub struct GoBackN;

        impl GoBackN {
            fn from_psn(ctx: &RetransmitCtx<'_>, from: Psn, skip_ghosts: bool) -> RecoveryPlan {
                ctx.wrs()
                    .filter(|w| w.pending() && !w.psn_last.precedes(from))
                    .filter(|w| !(skip_ghosts && w.ghosted))
                    .map(|w| w.psn_first)
                    .collect()
            }
        }

        impl RecoveryPolicy for GoBackN {
            fn ghost_quirks(&self) -> bool {
                true
            }
            fn arms_blind_stall(&self) -> bool {
                true
            }
            fn cumulative_ack(&self) -> bool {
                true
            }
            fn note_delivered(&mut self, _psn: Psn) {}
            fn note_message_delivered(&mut self, _psn_first: Psn, _psn_last: Psn) {}
            fn note_retired(&mut self, _up_to: Psn) {}
            fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
                Self::from_psn(ctx, from, false)
            }
            fn on_rnr_expire(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                psn: Psn,
                damming: bool,
            ) -> RecoveryPlan {
                Self::from_psn(ctx, psn, damming)
            }
            fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, _at: Psn) -> RecoveryPlan {
                Self::from_psn(ctx, epsn, false)
            }
            fn on_stall_tick(&mut self, _ctx: &RetransmitCtx<'_>, _psn: Psn) -> StallVerdict {
                StallVerdict {
                    retransmit: true,
                    rearm: true,
                }
            }
            fn on_fault_resolved(
                &mut self,
                _ctx: &RetransmitCtx<'_>,
                _stalled: impl Iterator<Item = Psn>,
            ) -> RecoveryPlan {
                RecoveryPlan::new()
            }
        }

        pub struct SelectiveRepeat {
            delivered: SackBitmap,
        }

        impl SelectiveRepeat {
            pub fn new() -> Self {
                SelectiveRepeat {
                    delivered: SackBitmap::new(Psn::new(0)),
                }
            }

            fn undelivered<'a>(
                &'a self,
                ctx: &'a RetransmitCtx<'_>,
            ) -> impl Iterator<Item = WrView> + 'a {
                ctx.wrs().filter(|w| {
                    w.pending() && !w.acked && !self.delivered.all_marked(w.psn_first, w.psn_last)
                })
            }

            fn undelivered_from(&self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
                self.undelivered(ctx)
                    .filter(|w| !w.psn_last.precedes(from))
                    .map(|w| w.psn_first)
                    .collect()
            }
        }

        impl RecoveryPolicy for SelectiveRepeat {
            fn ghost_quirks(&self) -> bool {
                false
            }
            fn arms_blind_stall(&self) -> bool {
                false
            }
            fn cumulative_ack(&self) -> bool {
                false
            }
            fn note_delivered(&mut self, psn: Psn) {
                self.delivered.mark(psn);
            }
            fn note_message_delivered(&mut self, psn_first: Psn, psn_last: Psn) {
                let mut p = psn_first;
                loop {
                    self.delivered.mark(p);
                    if p == psn_last {
                        break;
                    }
                    p = p.next();
                }
            }
            fn note_retired(&mut self, up_to: Psn) {
                self.delivered.advance_to(up_to);
            }
            fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
                self.undelivered_from(ctx, from)
            }
            fn on_rnr_expire(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                psn: Psn,
                _damming: bool,
            ) -> RecoveryPlan {
                self.undelivered_from(ctx, psn)
            }
            fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, _at: Psn) -> RecoveryPlan {
                self.undelivered_from(ctx, epsn)
            }
            fn on_stall_tick(&mut self, _ctx: &RetransmitCtx<'_>, _psn: Psn) -> StallVerdict {
                StallVerdict {
                    retransmit: false,
                    rearm: false,
                }
            }
            fn on_fault_resolved(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                stalled: impl Iterator<Item = Psn>,
            ) -> RecoveryPlan {
                stalled
                    .filter(|&p| ctx.wr(p).is_some_and(|w| w.pending()))
                    .collect()
            }
        }

        pub struct OnDemandPin;

        impl RecoveryPolicy for OnDemandPin {
            fn ghost_quirks(&self) -> bool {
                false
            }
            fn arms_blind_stall(&self) -> bool {
                true
            }
            fn cumulative_ack(&self) -> bool {
                true
            }
            fn note_delivered(&mut self, _psn: Psn) {}
            fn note_message_delivered(&mut self, _psn_first: Psn, _psn_last: Psn) {}
            fn note_retired(&mut self, _up_to: Psn) {}
            fn on_timeout(&mut self, ctx: &RetransmitCtx<'_>, from: Psn) -> RecoveryPlan {
                GoBackN.on_timeout(ctx, from)
            }
            fn on_rnr_expire(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                psn: Psn,
                _damming: bool,
            ) -> RecoveryPlan {
                GoBackN.on_rnr_expire(ctx, psn, false)
            }
            fn on_seq_nak(&mut self, ctx: &RetransmitCtx<'_>, epsn: Psn, at: Psn) -> RecoveryPlan {
                GoBackN.on_seq_nak(ctx, epsn, at)
            }
            fn on_stall_tick(&mut self, ctx: &RetransmitCtx<'_>, psn: Psn) -> StallVerdict {
                GoBackN.on_stall_tick(ctx, psn)
            }
            fn on_fault_resolved(
                &mut self,
                ctx: &RetransmitCtx<'_>,
                stalled: impl Iterator<Item = Psn>,
            ) -> RecoveryPlan {
                GoBackN.on_fault_resolved(ctx, stalled)
            }
        }
    }

    /// One queue, one backend: a random delivery history fed to the
    /// closed form and its reference alike, then every hook from random
    /// PSNs in and around the window. Returns how many messages the
    /// plain passes resent.
    fn replay_against<P: reference::RecoveryPolicy>(
        case: u64,
        kind: RecoveryKind,
        mut reference: P,
        sq: &Sq,
        rng: &mut SplitMix64,
    ) -> usize {
        use reference::{RetransmitCtx, StallVerdict};
        let base = sq.front().map_or(Psn::new(0), |w| w.psn_first);
        let width = sq.back().map_or(0, |w| w.psn_last.distance_from(base) + 1);
        // Eight PSNs either side of the window, so holes behind the head
        // and past the tail are drawn too.
        let around = |rng: &mut SplitMix64| {
            base.add(Psn::MODULUS - 8)
                .add(rng.next_below(16 + u64::from(width)) as u32)
        };
        let mut closed = Backend::new(kind);
        assert_eq!(kind.ghost_quirks(), reference.ghost_quirks());
        assert_eq!(kind.cumulative_ack(), reference.cumulative_ack());
        // Arming the tick, obeying it and being deaf to the resolution
        // are one bit.
        let blind = kind.blind_stall_tick();
        assert_eq!(blind, reference.arms_blind_stall());
        for _ in 0..rng.next_below(12) {
            match rng.next_below(3) {
                0 => {
                    let psn = around(rng);
                    closed.note_delivered(psn);
                    reference.note_delivered(psn);
                }
                1 if !sq.is_empty() => {
                    let w = &sq[rng.next_below(sq.len() as u64) as usize];
                    closed.note_message_delivered(w.psn_first, w.psn_last);
                    reference.note_message_delivered(w.psn_first, w.psn_last);
                }
                _ => {
                    let up_to = base.add(rng.next_below(u64::from(width) / 2 + 1) as u32);
                    closed.note_retired(up_to);
                    reference.note_retired(up_to);
                }
            }
        }
        let ctx = RetransmitCtx(sq);
        let mut resent = 0;
        for _ in 0..8 {
            let (from, at) = (around(rng), around(rng));
            let why = format!("case {case}, {kind} from {from}");
            let plain = pass(&closed, sq, from, false);
            resent += plain.len();
            assert_eq!(plain, reference.on_timeout(&ctx, from), "{why}");
            assert_eq!(plain, reference.on_seq_nak(&ctx, from, at), "{why}");
            for damming in [false, true] {
                assert_eq!(
                    pass(&closed, sq, from, damming),
                    reference.on_rnr_expire(&ctx, from, damming),
                    "{why} damming {damming}"
                );
            }
            let verdict = StallVerdict {
                retransmit: blind,
                rearm: blind,
            };
            assert_eq!(reference.on_stall_tick(&ctx, from), verdict);
        }
        let resumed = reference.on_fault_resolved(&ctx, sq.iter().map(|w| w.psn_first));
        let unfinished = sq.iter().filter(|w| w.sent_segments > 0 && !w.is_done());
        assert_eq!(resumed.len(), if blind { 0 } else { unfinished.count() });
        resent
    }

    /// The closed filter against the trait impls it replaced, on seeded
    /// random send queues: multi-packet spans, every mix of never-sent /
    /// done / acked / ghosted, and windows straddling the 24-bit wrap.
    #[test]
    fn closed_filter_names_the_reference_plan_on_random_queues() {
        let mut resent = 0;
        for case in 0..768u64 {
            let mut rng = SplitMix64::new(0x5EED_1900 + case);
            let len = rng.next_below(24);
            let mut next = match case % 3 {
                0 => Psn::new(Psn::MODULUS - 1 - rng.next_below(3 * len + 1) as u32),
                _ => Psn::new(rng.next_u64() as u32),
            };
            let mut sq = Sq::new();
            for _ in 0..len {
                let span = 1 + rng.next_below(5) as u32;
                let [unsent, done, acked, ghosted] = [4, 3, 3, 3].map(|n| rng.next_below(n) == 0);
                sq.push_back(SendWqe {
                    acked,
                    ghosted,
                    ..SendWqe::read_for_test(next, span, !unsent, done)
                });
                next = next.add(span);
            }
            for kind in RecoveryKind::ALL {
                let rng = &mut rng;
                resent += match kind {
                    RecoveryKind::GoBackN => {
                        replay_against(case, kind, reference::GoBackN, &sq, rng)
                    }
                    RecoveryKind::SelectiveRepeat => {
                        replay_against(case, kind, reference::SelectiveRepeat::new(), &sq, rng)
                    }
                    RecoveryKind::OnDemandPin => {
                        replay_against(case, kind, reference::OnDemandPin, &sq, rng)
                    }
                };
            }
        }
        assert!(resent > 10_000, "the replay must exercise non-empty passes");
    }
}
