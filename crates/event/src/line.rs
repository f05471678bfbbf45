//! One line of text on the stack: the renderer behind a run's identity.
//!
//! A run's identity is text — both capture timelines and both completion
//! logs, hashed — and so is every finding that quotes a time or a packet.
//! [`Line`] renders that text without `core::fmt`: digits, names and
//! padding go straight into a fixed buffer, and the line reaches its
//! sink in one write. Every type that appears in that text implements
//! [`Render`], and its `Display` pads the same text ([`Line::pad`]), so
//! each type has one text.
//!
//! The buffer is 256 bytes; the longest record a test renders is under
//! 200.

use core::cmp::Ordering;
use core::fmt;

use crate::SimTime;

/// A value with a text form that [`Line`] renders.
///
/// # Examples
///
/// ```
/// use ibsim_event::{Line, Render, SimTime};
///
/// let mut line = Line::new();
/// SimTime::from_ns(4_096).render(&mut line);
/// line.push(b" ").put("READ req").put(&7u32);
/// assert_eq!(line.as_str(), "4.096us READ req7");
/// ```
pub trait Render {
    /// Appends this value's text to `out`.
    fn render(&self, out: &mut Line);
}

impl<T: Render + ?Sized> Render for &T {
    fn render(&self, out: &mut Line) {
        (**self).render(out);
    }
}

impl Render for str {
    fn render(&self, out: &mut Line) {
        out.push(self.as_bytes());
    }
}

impl Render for String {
    fn render(&self, out: &mut Line) {
        out.push(self.as_bytes());
    }
}

impl Render for u32 {
    fn render(&self, out: &mut Line) {
        out.uint(u64::from(*self));
    }
}

/// `"00"`, `"01"`, … `"99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// A fixed-size line buffer on the stack.
///
/// Its capacity fits the longest line the simulator renders: a capture
/// record of a retransmitted, ghosted, congestion-marked `CMP_SWAP` with
/// `u64::MAX` operands, a time past 2^53 ns and the lost-in-fabric mark
/// is under 200 bytes.
///
/// # Panics
///
/// Appending past [`Line::CAPACITY`] bytes panics: a line that long is a
/// payload no renderer here produces.
///
/// # Examples
///
/// ```
/// use ibsim_event::{Line, SimTime};
///
/// let mut line = Line::new();
/// line.time(SimTime::from_us(1)).pad_left(0, 8);
/// let at = line.len();
/// line.push(b" 0x").hex(0xbeef).push(b" ").uint(64).pad_left(at, 12);
/// assert_eq!(line.as_str(), "     1us   0xbeef 64");
/// ```
pub struct Line {
    buf: [u8; Line::CAPACITY],
    len: usize,
}

impl Line {
    /// Bytes a line holds.
    pub const CAPACITY: usize = 256;

    /// An empty line.
    pub const fn new() -> Self {
        Line {
            buf: [0; Line::CAPACITY],
            len: 0,
        }
    }

    /// Formats `value` as its [`Render`] text, honouring the formatter's
    /// width, fill and alignment: the body of a `Display` impl.
    pub fn pad(value: &(impl Render + ?Sized), f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = Line::new();
        value.render(&mut line);
        f.pad(line.as_str())
    }

    /// Bytes rendered so far: a mark for [`Line::pad_left`].
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been rendered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the line for reuse.
    #[inline]
    pub fn clear(&mut self) -> &mut Self {
        self.len = 0;
        self
    }

    /// Appends raw text. The bytes must be UTF-8; every renderer here
    /// appends ASCII or whole `str`s.
    #[inline]
    pub fn push(&mut self, bytes: &[u8]) -> &mut Self {
        let end = self.len + bytes.len();
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
        self
    }

    /// Appends `value`'s [`Render`] text.
    #[inline]
    pub fn put(&mut self, value: &(impl Render + ?Sized)) -> &mut Self {
        value.render(self);
        self
    }

    /// Appends `n` in decimal, as `{}` prints it.
    #[inline]
    pub fn uint(&mut self, n: u64) -> &mut Self {
        let digits = n.checked_ilog10().unwrap_or(0) + 1;
        self.decimal(n, digits as usize)
    }

    /// Appends `n` in lower-case hexadecimal without a prefix, as `{:x}`
    /// prints it.
    #[inline]
    pub fn hex(&mut self, mut n: u64) -> &mut Self {
        let digits = (u64::BITS - n.leading_zeros()).div_ceil(4).max(1);
        let end = self.len + digits as usize;
        for slot in self.buf[self.len..end].iter_mut().rev() {
            *slot = b"0123456789abcdef"[(n & 0xf) as usize];
            n >>= 4;
        }
        self.len = end;
        self
    }

    /// Writes the low `count` decimal digits of `n`, zeros included,
    /// most significant first, two at a time.
    #[inline]
    fn decimal(&mut self, mut n: u64, count: usize) -> &mut Self {
        let end = self.len + count;
        let mut at = end;
        while at >= self.len + 2 {
            let pair = 2 * (n % 100) as usize;
            self.buf[at - 2..at].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            n /= 100;
            at -= 2;
        }
        if at > self.len {
            self.buf[at - 1] = b'0' + (n % 10) as u8;
        }
        self.len = end;
        self
    }

    /// Right-aligns the text rendered since mark `from` (a past
    /// [`Line::len`]) in a field of `width` bytes, as `{:>width}` does:
    /// spaces go in at `from`; text already as wide stays as it is.
    #[inline]
    pub fn pad_left(&mut self, from: usize, width: usize) -> &mut Self {
        let fill = width.saturating_sub(self.len - from);
        if fill > 0 {
            self.buf.copy_within(from..self.len, from + fill);
            self.buf[from..from + fill].fill(b' ');
            self.len += fill;
        }
        self
    }

    /// Appends `t` in the most natural unit — `ns`, `us`, `ms` or `s` —
    /// with up to three decimals, trailing zeros trimmed: `4.096us`,
    /// `1.5s`. This is [`SimTime`]'s `Display` text.
    ///
    /// The text is defined as `{:.3}` of the `f64` quotient `ns / scale`,
    /// trimmed; below 2^53 ns it is computed in integers. Off a tie — the
    /// remainder below one thousandth of the unit is not exactly half of
    /// one — the exact quotient lies at least `1 / scale` from every
    /// rounding boundary, and the correctly rounded `f64` quotient within
    /// half an ulp of it: at most 2^-44 for `ms` (quotient below 2^10)
    /// and 2^-30 for `s` (quotient below 2^24), both under `1 / scale`.
    /// So both round to the same thousandth, which `{:.3}` prints
    /// exactly. On a tie the exact quotient is the boundary itself, and
    /// the side of it the `f64` falls on decides (see `tie_rounds_up`).
    /// Counts of 2^53 ns and up, whose conversion to `f64` itself
    /// rounds, keep the float.
    pub fn time(&mut self, t: SimTime) -> &mut Self {
        let ns = t.as_ns();
        // Whole thousandths of the unit, the remainder below one, and the
        // size of one; each branch divides by a constant.
        let (below, rem, tick, unit): (u64, u64, u64, &[u8]) = if ns < 1_000 {
            return self.uint(ns).push(b"ns");
        } else if ns < 1_000_000 {
            (ns, 0, 1, b"us")
        } else if ns < 1_000_000_000 {
            (ns / 1_000, ns % 1_000, 1_000, b"ms")
        } else if ns < 1 << 53 {
            (ns / 1_000_000, ns % 1_000_000, 1_000_000, b"s")
        } else {
            return self.float_seconds(ns).push(b"s");
        };
        let up = match (2 * rem).cmp(&tick) {
            Ordering::Less => false,
            Ordering::Greater => true,
            Ordering::Equal => tie_rounds_up(ns, tick * 1_000, below),
        };
        let thousandths = below + u64::from(up);
        self.uint(thousandths / 1_000);
        // The three decimals, trailing zeros and a bare point trimmed.
        let frac = thousandths % 1_000;
        if frac != 0 {
            let (kept, digits) = match (frac % 100, frac % 10) {
                (0, _) => (frac / 100, 1),
                (_, 0) => (frac / 10, 2),
                _ => (frac, 3),
            };
            self.push(b".").decimal(kept, digits);
        }
        self.push(unit)
    }

    /// `{:.3}` of the `f64` quotient in seconds, trimmed, for counts
    /// `f64` cannot hold.
    #[expect(
        clippy::float_arithmetic,
        reason = "the defining float formula, for counts of 2^53 ns and up"
    )]
    fn float_seconds(&mut self, ns: u64) -> &mut Self {
        use fmt::Write as _;
        let _ = write!(self, "{:.3}", ns as f64 / 1e9);
        // `{:.3}` printed a decimal point, so trimming stops inside it.
        while self.buf[self.len - 1] == b'0' {
            self.len -= 1;
        }
        if self.buf[self.len - 1] == b'.' {
            self.len -= 1;
        }
        self
    }

    /// The text rendered so far.
    #[inline]
    pub fn as_str(&self) -> &str {
        let bytes = &self.buf[..self.len];
        match core::str::from_utf8(bytes) {
            Ok(text) => text,
            // Only if a caller pushed bytes that are not UTF-8.
            Err(e) => core::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default(),
        }
    }
}

impl Default for Line {
    fn default() -> Self {
        Line::new()
    }
}

impl fmt::Write for Line {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push(s.as_bytes());
        Ok(())
    }
}

/// Whether `{:.3}` of the `f64` quotient `ns / scale` rounds up to
/// thousandth `below + 1` when the exact quotient is the tie between
/// thousandths `below` and `below + 1`, for `scale <= ns < 2^53`.
///
/// The `f64` quotient is the exact one rounded to 53 significant bits:
/// with `k` chosen so that `ns * 2^k / scale` has 53 integer bits, it is
/// that rounded to an integer, times `2^-k`. A remainder below half of
/// `scale` rounds it down off the tie, one above half rounds it up, and
/// `{:.3}` follows it to that side. A remainder of exactly half would
/// need `2^(k+1)` to divide `scale`, but `k` is at least 29 (the
/// quotient is below 2^24) and `scale` holds 2^9 at most. A zero
/// remainder leaves it on the tie, which `{:.3}` rounds to the even
/// thousandth.
fn tie_rounds_up(ns: u64, scale: u64, below: u64) -> bool {
    let mut k = 52 + ns.leading_zeros() - scale.leading_zeros();
    let scale = u128::from(scale);
    if (u128::from(ns) << k) / scale < 1 << 52 {
        k += 1;
    }
    match (u128::from(ns) << k) % scale {
        0 => below % 2 == 1,
        r => 2 * r > scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(value: &(impl Render + ?Sized)) -> String {
        Line::new().put(value).as_str().to_owned()
    }

    #[test]
    fn integers_match_std() {
        let mut rng = crate::SplitMix64::new(0x11e);
        for n in [0, 1, 9, 10, 15, 16, 255, 256, u64::MAX]
            .into_iter()
            .chain((0..10_000).map(|_| rng.next_u64() >> rng.next_below(64)))
        {
            let mut line = Line::new();
            line.uint(n).push(b" ").hex(n);
            assert_eq!(line.as_str(), format!("{n} {n:x}"));
        }
    }

    #[test]
    fn pad_left_matches_right_alignment() {
        for word in ["", "a", "abcde", "abcdefgh"] {
            for width in 0..10 {
                let mut line = Line::new();
                line.push(b"<");
                let at = line.len();
                line.put(word).pad_left(at, width).push(b">");
                assert_eq!(line.as_str(), format!("<{word:>width$}>"));
            }
        }
    }

    #[test]
    fn blanket_impls_render_their_target() {
        assert_eq!(text("READ req"), "READ req");
        assert_eq!(text(&String::from("x")), "x");
        assert_eq!(text(&&7u32), "7");
        assert_eq!(text(&SimTime::from_ns(1_500)), "1.5us");
    }

    #[test]
    fn a_full_line_holds_its_capacity() {
        let mut line = Line::new();
        for _ in 0..Line::CAPACITY / 8 {
            line.push(b"01234567");
        }
        assert_eq!(line.len(), Line::CAPACITY);
        assert!(line.clear().is_empty());
    }

    #[test]
    #[should_panic]
    fn pushing_past_capacity_panics() {
        let mut line = Line::new();
        line.push(&[b'x'; Line::CAPACITY + 1]);
    }

    /// Exact binary ties (a quotient of `j / 16`) round to the even
    /// thousandth; near ties follow the side the `f64` lands on.
    #[test]
    fn ties_round_as_the_float_does() {
        assert_eq!(SimTime::from_ns(1_062_500).to_string(), "1.062ms");
        assert_eq!(SimTime::from_ns(1_187_500).to_string(), "1.188ms");
        assert_eq!(SimTime::from_ns(1_062_500_000).to_string(), "1.062s");
        // 1.0005 lies just below its f64 and 1.0015 just above.
        assert_eq!(SimTime::from_ns(1_000_500).to_string(), "1ms");
        assert_eq!(SimTime::from_ns(1_001_500).to_string(), "1.002ms");
    }
}
