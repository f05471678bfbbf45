//! Simulated time.
//!
//! All of `ibsim` runs on a single virtual clock measured in integer
//! nanoseconds. Integer time keeps the simulation exactly reproducible:
//! there is no floating-point accumulation error, and equal timestamps
//! compare equal on every platform.

#![expect(
    clippy::float_arithmetic,
    reason = "the `SimTime` float constructors and accessors: every other crate converts through them"
)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

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

    /// Multiplies a duration by a dimensionless floating-point factor,
    /// rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimTime {
        SimTime((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    /// Multiplies a duration by a per-mille factor in pure integer
    /// arithmetic, rounding half up to the nearest nanosecond:
    /// `mul_permille(1870)` scales by 1.87. This is the sanctioned
    /// sim-path alternative to [`SimTime::mul_f64`] (the sim-time crates
    /// deny `clippy::float_arithmetic`): it is exact, platform-independent,
    /// and cannot drift.
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

impl fmt::Display for SimTime {
    /// Formats with the most natural unit: `ns`, `us`, `ms` or `s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{}us", trim(ns as f64 / 1e3))
        } else if ns < 1_000_000_000 {
            write!(f, "{}ms", trim(ns as f64 / 1e6))
        } else {
            write!(f, "{}s", trim(ns as f64 / 1e9))
        }
    }
}

/// Formats a float with up to three decimals, trimming trailing zeros.
fn trim(v: f64) -> String {
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_owned()
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
        assert_eq!(a.mul_f64(1.5), SimTime::from_us(15));
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
                assert_eq!(t.mul_permille(pm), t.mul_f64(f), "ns={ns} pm={pm} f={f}");
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
