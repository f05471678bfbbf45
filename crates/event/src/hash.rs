//! The repository's stable trace-identity hash.
//!
//! Every byte-identity gate in this workspace — the damming/flood golden
//! trace pins, the scenario corpus 1-vs-N worker comparison, the typed
//! work-request determinism pins — compresses a run artifact (capture
//! timeline, completion log, memory image) into one 64-bit FNV-1a
//! digest. It lives in the lowest crate so that every gate, in every
//! crate, hashes with the one definition, and checks its pinned value
//! with [`assert_golden`] against the repository's one pin file,
//! `GOLDENS`.

use core::fmt;

/// A streaming FNV-1a hasher: feeding it a preimage in any chunking
/// gives [`fnv1a`] of the concatenation. It implements [`fmt::Write`], so
/// a renderer can write text straight into the digest instead of into a
/// `String` that is hashed afterwards.
///
/// # Examples
///
/// ```
/// use std::fmt::Write as _;
/// use ibsim_event::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// write!(h, "{}-{}", "foo", 42).unwrap();
/// h.write_bytes(b"bar");
/// assert_eq!(h.finish(), fnv1a(b"foo-42bar"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher over the empty input (the standard 64-bit offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest; returns `self` so calls chain.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over raw bytes: dependency-free, deterministic, and stable
/// across platforms (the two magic constants are the standard 64-bit
/// offset basis and prime).
///
/// # Examples
///
/// ```
/// use ibsim_event::fnv1a;
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().write_bytes(bytes).finish()
}

/// Convenience for hashing rendered text artifacts (timelines, reports).
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// The repository's pin file, one `name value…` line per pinned value.
const GOLDENS: &str = include_str!("../../../GOLDENS");

/// One value of a `GOLDENS` line: hex after `0x`, else decimal, with
/// `_` between digits as in a Rust literal.
fn golden_value(token: &str) -> Option<u64> {
    let digits = token.replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// Asserts that `got` — a digest and, where one is pinned, its length —
/// is the entry `name` of the repository's pin file `GOLDENS`.
///
/// # Examples
///
/// ```should_panic
/// use ibsim_event::{assert_golden, fnv1a_str};
///
/// // Three dots are not the damming probe's client timeline.
/// let timeline = "...";
/// assert_golden("damming.timeline", [fnv1a_str(timeline), timeline.len() as u64]);
/// ```
///
/// # Panics
///
/// If `got` differs from the entry, with the line that would re-pin it,
/// or if `GOLDENS` has no entry `name`; either message names the entry.
#[track_caller]
pub fn assert_golden<const N: usize>(name: &str, got: [u64; N]) {
    let pinned = GOLDENS
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("GOLDENS has no entry {name:?}"));
    let want: Vec<Option<u64>> = pinned.split(' ').map(golden_value).collect();
    if want != got.map(Some) {
        // A digest in hex, a length in decimal, as `GOLDENS` writes them.
        let hex = got.iter().take(1).map(|v| format!(" {v:#x}"));
        let line: String = hex
            .chain(got.iter().skip(1).map(|v| format!(" {v}")))
            .collect();
        panic!("{name} drifted: got `{name}{line}`, GOLDENS has `{name} {pinned}`");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use core::fmt::Write as _;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }

    #[test]
    fn output_is_pinned_on_a_fixed_byte_string() {
        // Reference digests computed by the canonical FNV-1a definition;
        // any change to the constants or the fold order breaks these and
        // therefore every golden gate downstream.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(
            fnv1a(b"ibsim trace-identity"),
            fnv1a(b"ibsim trace-identity")
        );
        assert_eq!(fnv1a_str("foobar"), fnv1a(b"foobar"));
    }

    #[test]
    fn single_byte_order_matters() {
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    /// Any split of one input into chunks, through either entry point,
    /// gives the one-shot digest.
    #[test]
    fn streaming_is_independent_of_chunking() {
        let mut rng = SplitMix64::new(0x5eed);
        for round in 0..256 {
            let len = rng.next_below(2_048) as usize;
            let text: String = (0..len)
                .map(|_| char::from(b' ' + rng.next_below(95) as u8))
                .collect();
            let want = fnv1a_str(&text);
            let mut h = Fnv1a::new();
            let mut rest = text.as_str();
            while !rest.is_empty() {
                let cut = 1 + rng.next_below(rest.len() as u64) as usize;
                let (chunk, tail) = rest.split_at(cut);
                if rng.next_bool() {
                    h.write_bytes(chunk.as_bytes());
                } else {
                    h.write_str(chunk).unwrap();
                }
                rest = tail;
            }
            assert_eq!(h.finish(), want, "round {round}, {len} bytes");
        }
    }

    /// Every `GOLDENS` entry is a name, then a hex digest with an optional
    /// decimal length, or a decimal `cksum` and byte count.
    #[test]
    fn goldens_lines_are_well_formed() {
        let only = |t: &str, set: &[u8]| t.bytes().all(|b| set.contains(&b));
        let hex = |t: &str| t.starts_with("0x") && golden_value(t).is_some();
        let dec = |t: &str| only(t, b"0123456789_") && golden_value(t).is_some();
        let name = |t: &str| !t.is_empty() && only(t, b"abcdefghijklmnopqrstuvwxyz0123456789-.");
        let entries = GOLDENS
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        for line in entries {
            let ok = match line.split(' ').collect::<Vec<_>>()[..] {
                [n, h] => name(n) && hex(h),
                [n, h, len] => name(n) && (hex(h) || dec(h)) && dec(len),
                _ => false,
            };
            assert!(ok, "malformed GOLDENS line {line:?}");
        }
    }

    #[test]
    #[should_panic(expected = "GOLDENS has no entry \"no.such.pin\"")]
    fn an_unknown_golden_panics_naming_it() {
        assert_golden("no.such.pin", [0]);
    }

    #[test]
    #[should_panic(expected = "damming.timeline drifted: got `damming.timeline 0xff 7`")]
    fn a_drift_panics_with_the_line_that_re_pins_it() {
        assert_golden("damming.timeline", [0xff, 7]);
    }
}
