//! A tiny deterministic PRNG for simulation inputs.
//!
//! The simulator must be a pure function of its seeds: no wall-clock
//! entropy and no external crates whose output could change between
//! versions. [`SplitMix64`] (Steele, Lea & Flood, OOPSLA 2014) is the
//! standard 64-bit mixer used to seed larger generators; its output
//! quality is more than sufficient for jitter, stagger, and loss draws,
//! and its implementation is small enough to audit at a glance.
//!
//! The fabric's loss models keep their own xorshift generator
//! (`ibsim_fabric::Xorshift64Star`) for seed-stability of existing
//! experiments; new code should prefer this one.

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use ibsim_event::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64(), "same seed, same stream");
/// assert!(a.next_below(10) < 10);
/// let x = a.range(5, 8);
/// assert!((5..8).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Unlike xorshift variants, every
    /// seed (including zero) yields a full-quality stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_below(hi - lo)
    }

    /// A fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SplitMix64::new(0);
        let vals: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        // SplitMix64 has no all-zero fixed point.
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn bounds_are_respected() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn rough_uniformity() {
        // Not a statistical test suite — just a sanity screen that all
        // residue classes are hit.
        let mut r = SplitMix64::new(3);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for c in counts {
            assert!(c > 700, "suspiciously skewed: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
