//! The yardstick: how fast the host is running right now.
//!
//! The benchmark's home is a shared 2-core virtual machine whose speed
//! changes under it. Neighbours slow every pass by 10-50 % for seconds to
//! minutes at a time; thread CPU time slows with wall time, so it is the
//! core that is contended, not the process that is descheduled. Timed
//! raw, identical 15-second runs made minutes apart differed by 12-28 %
//! (interquartile spread of ten runs over their median), whatever
//! estimator was taken over the passes — median, quartile, minimum. No
//! bound the contract allows can gate on that.
//!
//! So the host's speed is measured beside the work. The yardstick is a
//! fixed kernel of a few milliseconds that uses nothing but `std` — a
//! binary heap of boxed events, an ordered map, a block copy: the
//! simulator's diet, but none of its code, so no change to the simulator
//! can move it. A [`Meter`] times work in segments of at most
//! [`LAP`], runs the yardstick at both ends of each segment, and counts
//! the segment's seconds at `REFERENCE_S / yardstick`: what they would
//! have been on a host where the yardstick takes [`REFERENCE_S`]. On the
//! same recorded series this cut the spread of 15-second windows from
//! 11.9 % to 1.4 % on `shuffle` and from 3.0 % to 1.1 % on `wide`, and
//! the best exponent of the correction fitted between 0.75 and 1 — the
//! slowdown is proportional, near enough.
//!
//! Every time the benchmark reports as an end-to-end metric is such a
//! normalised time; the raw wall times are printed beside them. A real
//! change to the simulator moves the work and not the yardstick, so it
//! shows in full.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds the yardstick takes on the reference host: the defining host
/// (Intel Xeon @ 2.1 GHz under KVM) at its quiet level, first quartile of
/// 2834 readings. Only a scale: it turns a ratio into seconds.
pub const REFERENCE_S: f64 = 0.0025;

/// Longest stretch of work timed against one pair of yardsticks. Host
/// speed moves on a scale of tenths of a second (readings before and
/// after a one-second pass differ by 11 % in the median), so a second of
/// work needs readings inside it.
pub const LAP: Duration = Duration::from_millis(50);

thread_local! {
    /// The latest reading and when it ended, so that work which starts
    /// where other work stopped shares the reading between them.
    static LATEST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// Runs the kernel once; returns the seconds it took.
pub fn yardstick() -> f64 {
    let allocated = crate::alloc::snapshot();
    let start = Instant::now();
    let mut heap: BinaryHeap<Reverse<(u64, Box<[u64; 8]>)>> = BinaryHeap::new();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut buf = vec![0u8; 8192];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut sink = 0u64;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Engine diet: one boxed event in, the earliest out.
        heap.push(Reverse((x >> 20, Box::new([x; 8]))));
        if heap.len() > 512 {
            if let Some(Reverse((t, b))) = heap.pop() {
                sink ^= t ^ b[3];
            }
        }
        // Registry diet: an ordered map of a few thousand keys.
        *map.entry(x % 4096).or_insert(0) += 1;
        if i % 7 == 0 {
            map.remove(&((x >> 8) % 4096));
        }
        // Payload diet: a copy of up to a page.
        if i % 16 == 0 {
            let n = (x % 4096) as usize;
            buf.copy_within(0..n, 4096);
            sink ^= u64::from(buf[4096 + n / 2]);
        }
    }
    black_box(sink);
    let seconds = start.elapsed().as_secs_f64();
    drop((heap, map, buf));
    // The kernel's own allocations are not the workload's.
    crate::alloc::restore(allocated);
    LATEST.with(|l| l.set(Some((Instant::now(), seconds))));
    seconds
}

/// The latest reading if it ended within the last millisecond, else a
/// new one.
pub fn current() -> f64 {
    match LATEST.with(Cell::get) {
        Some((at, seconds)) if at.elapsed() < Duration::from_millis(1) => seconds,
        _ => yardstick(),
    }
}

/// Factor that turns wall seconds into normalised seconds for work done
/// between two readings.
pub fn factor(opening: f64, closing: f64) -> f64 {
    REFERENCE_S / ((opening + closing) / 2.0)
}

/// Runs `f` between two readings; returns its result and the normalised
/// seconds it took. For one-off measurements of up to a few tenths of a
/// second.
pub fn normalised<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let opening = current();
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    (out, wall * factor(opening, yardstick()))
}

/// The parts of a pass a [`Meter`] keeps apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the first event executes.
    Setup = 0,
    /// Inside the simulator's run entry point.
    Run = 1,
}

/// What a [`Meter`] measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// Normalised seconds booked to [`Phase::Setup`].
    pub setup_s: f64,
    /// Normalised seconds booked to [`Phase::Run`].
    pub run_s: f64,
    /// Normalised seconds from start to finish, yardsticks excluded.
    pub pass_s: f64,
    /// Wall seconds from start to finish, yardsticks excluded.
    pub raw_pass_s: f64,
    /// Wall seconds booked to [`Phase::Run`].
    pub raw_run_s: f64,
}

/// Times one pass in yardstick-bracketed segments.
#[derive(Debug)]
pub struct Meter {
    /// The reading that opened the current segment.
    opening: f64,
    segment_start: Instant,
    /// Wall seconds booked to each phase in the current segment.
    booked: [f64; 2],
    times: Times,
}

impl Meter {
    /// Opens the first segment (sharing the reading that closed whatever
    /// came immediately before).
    pub fn start() -> Meter {
        let opening = current();
        Meter {
            opening,
            segment_start: Instant::now(),
            booked: [0.0; 2],
            times: Times::default(),
        }
    }

    /// Books `seconds` of wall time in the current segment to `phase`.
    pub fn book(&mut self, phase: Phase, seconds: f64) {
        self.booked[phase as usize] += seconds;
    }

    /// Wall seconds booked to [`Phase::Run`] so far.
    pub fn run_wall(&self) -> f64 {
        self.times.raw_run_s + self.booked[Phase::Run as usize]
    }

    /// Closes the current segment with a reading and opens the next.
    pub fn lap(&mut self) {
        let wall = self.segment_start.elapsed().as_secs_f64();
        let closing = yardstick();
        let f = factor(self.opening, closing);
        self.times.setup_s += self.booked[Phase::Setup as usize] * f;
        self.times.run_s += self.booked[Phase::Run as usize] * f;
        self.times.pass_s += wall * f;
        self.times.raw_pass_s += wall;
        self.times.raw_run_s += self.booked[Phase::Run as usize];
        self.booked = [0.0; 2];
        self.opening = closing;
        self.segment_start = Instant::now();
    }

    /// [`Meter::lap`] when the current segment is [`LAP`] old. Returns
    /// whether it lapped (the caller's own clocks then skip the reading).
    pub fn lap_if_due(&mut self) -> bool {
        let due = self.segment_start.elapsed() >= LAP;
        if due {
            self.lap();
        }
        due
    }

    /// Closes the last segment.
    pub fn finish(mut self) -> Times {
        self.lap();
        self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_books_phases_and_normalises_every_segment() {
        let mut m = Meter::start();
        m.book(Phase::Setup, 0.25);
        m.lap();
        m.book(Phase::Run, 1.0);
        assert!(!m.lap_if_due(), "a fresh segment is not due");
        let t = m.finish();
        // Nothing was really waited for: the wall clock saw microseconds,
        // the booked seconds were scaled by some positive factor.
        assert!(t.setup_s > 0.0 && t.run_s > 0.0 && t.raw_run_s == 1.0);
        assert!(t.raw_pass_s < 0.1 && t.pass_s > 0.0);
    }

    #[test]
    fn a_reading_is_shared_only_while_fresh() {
        let a = yardstick();
        assert_eq!(current(), a, "taken within the millisecond: shared");
        std::thread::sleep(Duration::from_millis(2));
        let b = current();
        assert_eq!(current(), b);
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn factor_is_the_reference_over_the_mean_reading() {
        assert_eq!(factor(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(factor(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
        assert_eq!(factor(REFERENCE_S, 3.0 * REFERENCE_S), 0.5);
    }
}
