//! Deterministic loss injection.
//!
//! The paper provokes packet loss deliberately (wrong destination LID,
//! §IV-B) and observes incidental loss caused by ODP itself. For testing
//! the transport's reliability machinery we additionally want repeatable
//! random loss, provided here by a self-contained xorshift PRNG so the
//! fabric stays dependency-free and every run is reproducible from a seed.

#![expect(
    clippy::float_arithmetic,
    reason = "the loss models' uniform draws; a fixed-point draw would change the RNG stream and re-pin every golden hash"
)]

use ibsim_event::SimTime;

use crate::topology::Lid;

/// A tiny, fast, deterministic PRNG (xorshift64*).
///
/// Not cryptographic; used only for repeatable loss patterns.
///
/// # Examples
///
/// ```
/// use ibsim_fabric::Xorshift64Star;
/// let mut a = Xorshift64Star::new(42);
/// let mut b = Xorshift64Star::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from a seed (zero is remapped to a fixed odd
    /// constant because the all-zero state is a fixed point).
    pub fn new(seed: u64) -> Self {
        Xorshift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }
}

/// Frame-loss policy applied by the fabric after routing.
#[derive(Debug, Default)]
pub enum LossModel {
    /// No injected loss (default).
    #[default]
    None,
    /// Drop every frame. Models a severed cable / black-holed route.
    DropAll,
    /// Drop each frame independently with probability `prob`, using a
    /// deterministic seeded PRNG.
    Uniform {
        /// Per-frame drop probability in `[0, 1]`.
        prob: f64,
        /// PRNG supplying the per-frame coin flips.
        rng: Xorshift64Star,
    },
    /// Drop the frames whose (0-based) submission index is in the sorted
    /// list. Gives tests exact control over which packet dies.
    Nth {
        /// Indices of frames to drop, in the order frames are submitted.
        indices: Vec<u64>,
        /// Frames seen so far.
        seen: u64,
    },
    /// Gilbert–Elliott burst loss: a two-state Markov chain toggling
    /// between a good state (no loss) and a bad state (loss with
    /// probability `drop_in_burst`). Bursty loss is what a congested or
    /// flapping link produces, and what exercises go-back-N recovery far
    /// harder than independent per-frame coin flips.
    Burst {
        /// Per-frame probability of entering a burst from the good state.
        enter: f64,
        /// Per-frame probability of leaving a burst from the bad state.
        exit: f64,
        /// Drop probability while inside a burst (1.0 = every frame).
        drop_in_burst: f64,
        /// Currently inside a burst.
        in_burst: bool,
        /// PRNG supplying state transitions and drop coins.
        rng: Xorshift64Star,
    },
    /// Drop frames directed at a specific destination LID.
    ToDestination(Lid),
}

impl LossModel {
    /// Uniform loss with probability `prob` seeded by `seed`.
    pub fn uniform(prob: f64, seed: u64) -> Self {
        LossModel::Uniform {
            prob,
            rng: Xorshift64Star::new(seed),
        }
    }

    /// Drop exactly the frames with the given submission indices.
    pub fn nth(mut indices: Vec<u64>) -> Self {
        indices.sort_unstable();
        LossModel::Nth { indices, seen: 0 }
    }

    /// Gilbert–Elliott burst loss dropping every frame inside a burst.
    /// Expected burst length is `1 / exit` frames; expected gap between
    /// bursts is `1 / enter` frames.
    pub fn burst(enter: f64, exit: f64, seed: u64) -> Self {
        LossModel::burst_with(enter, exit, 1.0, seed)
    }

    /// Gilbert–Elliott burst loss with a partial in-burst drop rate.
    pub fn burst_with(enter: f64, exit: f64, drop_in_burst: f64, seed: u64) -> Self {
        LossModel::Burst {
            enter,
            exit,
            drop_in_burst,
            in_burst: false,
            rng: Xorshift64Star::new(seed),
        }
    }

    /// True when the model's verdict depends on the *global order* in
    /// which frames reach it — a per-frame PRNG draw or a submission
    /// counter. Order-dependent models are incompatible with sharded
    /// execution, where each shard replica only sees its own hosts'
    /// frames: the streams would diverge from the sequential reference.
    /// Stateless models (`None`, `DropAll`, `ToDestination`) judge each
    /// frame in isolation and shard safely.
    pub fn is_order_dependent(&self) -> bool {
        match self {
            LossModel::None | LossModel::DropAll | LossModel::ToDestination(_) => false,
            LossModel::Uniform { .. } | LossModel::Nth { .. } | LossModel::Burst { .. } => true,
        }
    }

    /// Decides whether the frame submitted at `now` from `src` to `dst`
    /// should be dropped. Stateful models advance their state.
    pub fn drop(&mut self, _now: SimTime, _src: Lid, dst: Lid) -> bool {
        match self {
            LossModel::None => false,
            LossModel::DropAll => true,
            LossModel::Uniform { prob, rng } => rng.next_f64() < *prob,
            LossModel::Nth { indices, seen } => {
                let idx = *seen;
                *seen += 1;
                indices.binary_search(&idx).is_ok()
            }
            LossModel::Burst {
                enter,
                exit,
                drop_in_burst,
                in_burst,
                rng,
            } => {
                // Fixed draw order (transition first, then the drop coin)
                // keeps the sequence a pure function of the seed.
                let flip = rng.next_f64();
                if *in_burst {
                    if flip < *exit {
                        *in_burst = false;
                    }
                } else if flip < *enter {
                    *in_burst = true;
                }
                *in_burst && rng.next_f64() < *drop_in_burst
            }
            LossModel::ToDestination(target) => dst == *target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_spread() {
        let mut r = Xorshift64Star::new(7);
        let vals: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Xorshift64Star::new(7);
        let vals2: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(vals, vals2);
        assert_ne!(vals[0], vals[1]);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Xorshift64Star::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn zero_seed_remaps_to_the_golden_ratio_constant() {
        // `Xorshift64Star::new(0)` must behave exactly like the generator
        // seeded with the remap constant: the all-zero state is a fixed
        // point of xorshift, so seed 0 silently aliases that constant.
        let mut zero = Xorshift64Star::new(0);
        let mut remapped = Xorshift64Star::new(0x9E37_79B9_7F4A_7C15);
        for _ in 0..64 {
            assert_eq!(zero.next_u64(), remapped.next_u64());
        }
        // And it is NOT the identity sequence of any small nonzero seed.
        let mut one = Xorshift64Star::new(1);
        let mut zero2 = Xorshift64Star::new(0);
        assert_ne!(zero2.next_u64(), one.next_u64());
    }

    /// Drop decisions for `n` frames of a model, as a bit-string.
    fn drop_pattern(mut m: LossModel, n: usize) -> Vec<bool> {
        let t = SimTime::ZERO;
        (0..n).map(|_| m.drop(t, Lid(1), Lid(2))).collect()
    }

    #[test]
    fn uniform_rate_loss_is_deterministic_from_seed() {
        let a = drop_pattern(LossModel::uniform(0.3, 42), 4096);
        let b = drop_pattern(LossModel::uniform(0.3, 42), 4096);
        assert_eq!(a, b, "same seed must reproduce the same drop pattern");
        let c = drop_pattern(LossModel::uniform(0.3, 43), 4096);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn burst_loss_is_deterministic_from_seed() {
        let a = drop_pattern(LossModel::burst(0.02, 0.25, 7), 8192);
        let b = drop_pattern(LossModel::burst(0.02, 0.25, 7), 8192);
        assert_eq!(a, b, "same seed must reproduce the same burst pattern");
        let c = drop_pattern(LossModel::burst(0.02, 0.25, 8), 8192);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn burst_loss_clusters_drops() {
        // With enter=0.01 and exit=0.2 the chain spends ~1/21 of its time
        // in bursts of mean length 5; drops must arrive in runs, not as
        // independent singletons.
        let pat = drop_pattern(LossModel::burst(0.01, 0.2, 99), 50_000);
        let drops = pat.iter().filter(|&&d| d).count();
        assert!(drops > 500, "bursts must produce substantial loss: {drops}");
        // Count maximal runs of consecutive drops; mean run length must
        // exceed what independent flips at the same rate would give (~1).
        let mut runs = 0usize;
        let mut prev = false;
        for &d in &pat {
            if d && !prev {
                runs += 1;
            }
            prev = d;
        }
        let mean_run = drops as f64 / runs as f64;
        assert!(
            mean_run > 2.0,
            "drops must cluster into bursts: mean run {mean_run:.2}"
        );
    }

    #[test]
    fn burst_with_zero_enter_never_drops() {
        let pat = drop_pattern(LossModel::burst(0.0, 0.5, 3), 10_000);
        assert!(pat.iter().all(|&d| !d));
    }

    #[test]
    fn burst_zero_seed_is_usable() {
        // The seed-0 remap reaches the burst model through its PRNG: the
        // pattern must be well-formed and identical to the remap constant.
        let a = drop_pattern(LossModel::burst(0.05, 0.2, 0), 4096);
        let b = drop_pattern(LossModel::burst(0.05, 0.2, 0x9E37_79B9_7F4A_7C15), 4096);
        assert_eq!(a, b);
        assert!(a.iter().any(|&d| d), "seed 0 must still produce drops");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xorshift64Star::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Xorshift64Star::new(5);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn nth_drops_exact_indices() {
        let mut m = LossModel::nth(vec![0, 2]);
        let t = SimTime::ZERO;
        assert!(m.drop(t, Lid(1), Lid(2)));
        assert!(!m.drop(t, Lid(1), Lid(2)));
        assert!(m.drop(t, Lid(1), Lid(2)));
        assert!(!m.drop(t, Lid(1), Lid(2)));
    }

    #[test]
    fn uniform_hits_expected_rate() {
        let mut m = LossModel::uniform(0.25, 99);
        let t = SimTime::ZERO;
        let drops = (0..10_000).filter(|_| m.drop(t, Lid(1), Lid(2))).count();
        // 4 sigma around 2500.
        assert!((2200..2800).contains(&drops), "drops={drops}");
    }

    #[test]
    fn to_destination_filters_by_lid() {
        let mut m = LossModel::ToDestination(Lid(9));
        let t = SimTime::ZERO;
        assert!(m.drop(t, Lid(1), Lid(9)));
        assert!(!m.drop(t, Lid(1), Lid(8)));
    }
}
