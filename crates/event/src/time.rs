//! Simulated time.
//!
//! All of `ibsim` runs on a single virtual clock measured in integer
//! nanoseconds. Integer time keeps the simulation exactly reproducible:
//! there is no floating-point accumulation error, and equal timestamps
//! compare equal on every platform.

#![expect(
    clippy::float_arithmetic,
    reason = "the `SimTime` float constructors and accessors, which every other crate converts through"
)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{Line, Render};

/// A point on the simulated clock, in nanoseconds since simulation start.
///
/// `SimTime` doubles as a duration type: the difference of two instants is
/// again a `SimTime`. This mirrors how hardware timestamp counters are used
/// and keeps arithmetic ergonomic inside protocol state machines.
///
/// # Examples
///
/// ```
/// use ibsim_event::SimTime;
///
/// let t = SimTime::from_us(4) + SimTime::from_ns(96);
/// assert_eq!(t.as_ns(), 4_096);
/// assert_eq!(format!("{t}"), "4.096us");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start) / the zero duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from a floating-point number of milliseconds.
    #[inline]
    pub fn from_ms_f64(ms: f64) -> Self {
        SimTime((ms * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Multiplies a duration by a per-mille factor in pure integer
    /// arithmetic, rounding half up to the nearest nanosecond:
    /// `mul_permille(1870)` scales by 1.87. It is the one way to scale a
    /// duration: exact, platform-independent, and unable to drift.
    #[inline]
    pub fn mul_permille(self, permille: u64) -> SimTime {
        SimTime((self.0.saturating_mul(permille).saturating_add(500)) / 1000)
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl Render for SimTime {
    fn render(&self, out: &mut Line) {
        out.time(*self);
    }
}

impl fmt::Display for SimTime {
    /// [`Line::time`]'s text. Width, fill and alignment apply to the
    /// whole text (`{t:>12}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Line::pad(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimTime::from_ms_f64(1.28), SimTime::from_us(1_280));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(a * 3, SimTime::from_us(30));
        assert_eq!(a / 2, SimTime::from_us(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.mul_permille(1500), SimTime::from_us(15));
    }

    #[test]
    fn mul_permille_matches_mul_f64_on_sim_factors() {
        // The factors actually used in sim paths: timeout stretches
        // (1.87 / 1.79), the RNR stretch (3.5), and timer-load scaling.
        for (pm, f) in [
            (1870u64, 1.87f64),
            (1790, 1.79),
            (3500, 3.5),
            (1000, 1.0),
            (1002, 1.002),
        ] {
            for ns in [
                0u64,
                1,
                999,
                4_096,
                16_384,
                1_280_000,
                4_096 << 18,
                655_360_000,
            ] {
                let t = SimTime::from_ns(ns);
                // The float formula, as the oracle.
                let float = SimTime::from_ns((ns as f64 * f).round().max(0.0) as u64);
                assert_eq!(t.mul_permille(pm), float, "ns={ns} pm={pm} f={f}");
            }
        }
        // Half-up rounding: 1ns * 1.5 rounds to 2ns.
        assert_eq!(SimTime::from_ns(1).mul_permille(1500), SimTime::from_ns(2));
        // Saturates instead of overflowing.
        assert_eq!(
            SimTime::MAX.mul_permille(3500),
            SimTime::from_ns(u64::MAX / 1000)
        );
    }

    #[test]
    fn min_max_sum() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total, SimTime::from_us(18));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ns(999).to_string(), "999ns");
        assert_eq!(SimTime::from_us(4).to_string(), "4us");
        assert_eq!(SimTime::from_ns(4_096).to_string(), "4.096us");
        assert_eq!(SimTime::from_ms(500).to_string(), "500ms");
        assert_eq!(SimTime::from_ms(1_500).to_string(), "1.5s");
    }

    /// The float formula `Display` is defined by: `{:.3}` of the quotient
    /// in the unit, trailing zeros and a bare point trimmed.
    fn oracle(ns: u64) -> String {
        let trim = |v: f64| {
            let s = format!("{v:.3}");
            s.trim_end_matches('0').trim_end_matches('.').to_owned()
        };
        if ns < 1_000 {
            format!("{ns}ns")
        } else if ns < 1_000_000 {
            format!("{}us", trim(ns as f64 / 1e3))
        } else if ns < 1_000_000_000 {
            format!("{}ms", trim(ns as f64 / 1e6))
        } else {
            format!("{}s", trim(ns as f64 / 1e9))
        }
    }

    fn assert_display_matches(values: impl IntoIterator<Item = u64>) {
        use std::fmt::Write as _;
        let mut got = String::new();
        for ns in values {
            got.clear();
            write!(got, "{}", SimTime(ns)).unwrap();
            assert_eq!(got, oracle(ns), "ns={ns}");
        }
    }

    #[test]
    fn display_matches_the_float_formula_below_3ms() {
        assert_display_matches(0..3_000_000);
    }

    /// Every tie residue of the `ms` and `s` ranges, and both of its
    /// neighbours, under integer parts across each range.
    #[test]
    fn display_matches_the_float_formula_at_every_tie() {
        for q in [1, 2, 7, 63, 500, 999] {
            let ties = (0..1_000).map(|k| q * 1_000_000 + k * 1_000 + 500);
            assert_display_matches(ties.flat_map(|t| [t - 1, t, t + 1]));
        }
        // The last integer part is the largest below 2^53 ns.
        for q in [1, 2, 9, 1_000, 4_194_304, 9_007_198] {
            let ties = (0..1_000).map(|k| q * 1_000_000_000 + k * 1_000_000 + 500_000);
            assert_display_matches(ties.flat_map(|t| [t - 1, t, t + 1]));
        }
    }

    /// Seeded ties over the whole `ms` and `s` ranges below 2^53 ns.
    #[test]
    fn display_matches_the_float_formula_at_random_ties() {
        let mut rng = crate::SplitMix64::new(0x71e5);
        let ties: Vec<u64> = (0..200_000)
            .map(|_| {
                // `m` whole thousandths of the unit, then half of one.
                let (tick, limit) = if rng.next_below(2) == 0 {
                    (1_000, 1_000_000)
                } else {
                    (1_000_000, (1 << 53) / 1_000_000)
                };
                let m = 1_000 + rng.next_below(limit - 1_000);
                m * tick + tick / 2
            })
            .collect();
        assert_display_matches(ties);
    }

    /// Just below a second the rounded thousandth carries into the
    /// integer part: the formula prints `1000ms`, not `1s`.
    #[test]
    fn display_keeps_the_1000ms_carry() {
        assert_display_matches(999_999_000..1_000_000_001);
        assert_eq!(SimTime::from_ns(999_999_499).to_string(), "999.999ms");
        assert_eq!(SimTime::from_ns(999_999_999).to_string(), "1000ms");
        assert_eq!(SimTime::from_ns(1_999_999_999).to_string(), "2s");
    }

    #[test]
    fn display_matches_the_float_formula_from_2_pow_53() {
        let p = 1u64 << 53;
        assert_display_matches(p - 2_000..p + 2_000);
        assert_display_matches(u64::MAX - 2_000..=u64::MAX);
        assert_eq!(SimTime::MAX.to_string(), "18446744073.71s");
    }

    /// Values spread over every magnitude: a random word shifted right
    /// by a random amount.
    #[test]
    fn display_matches_the_float_formula_on_random_values() {
        let mut rng = crate::SplitMix64::new(0x51_7e);
        let values: Vec<u64> = (0..1_000_000)
            .map(|_| rng.next_u64() >> rng.next_below(64))
            .collect();
        assert_display_matches(values);
    }

    #[test]
    fn display_honours_width_fill_and_alignment() {
        let t = SimTime::from_ns(4_096);
        assert_eq!(format!("{t:>12}"), "     4.096us");
        assert_eq!(format!("{t:<12}"), "4.096us     ");
        assert_eq!(format!("{t:*^11}"), "**4.096us**");
        assert_eq!(format!("{t:>3}"), "4.096us");
        for ns in [0, 999, 1_280_000, 999_999_999, 1 << 53, u64::MAX] {
            let text = oracle(ns);
            assert_eq!(format!("{:>12}", SimTime(ns)), format!("{text:>12}"));
            assert_eq!(format!("{:<12}", SimTime(ns)), format!("{text:<12}"));
        }
    }

    #[test]
    fn float_accessors() {
        let t = SimTime::from_ms(2);
        assert!((t.as_ms_f64() - 2.0).abs() < 1e-12);
        assert!((t.as_us_f64() - 2000.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ns(1)), None);
        assert_eq!(
            SimTime::from_ns(1).checked_add(SimTime::from_ns(2)),
            Some(SimTime::from_ns(3))
        );
    }
}
