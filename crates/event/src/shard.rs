//! Epoch synchronization for the PDES layer.
//!
//! A sharded run gives every shard its own [`Engine`](crate::Engine) and
//! lets the shards advance in lock-step *epochs*: each shard executes its
//! local events up to the epoch boundary, deposits its deferred work,
//! and then meets the other shards at an [`EpochBarrier`]. A designated
//! leader (shard 0 by convention) merges the deposits in a deterministic
//! order and publishes the next epoch boundary before the shards are
//! released again.
//!
//! [`EpochBarrier`] lives here because it is engine-level, not
//! protocol-level: a generation-counted rendezvous with *poisoning*.
//! When one shard panics, its [`PoisonGuard`] marks the barrier so every
//! other shard unwinds immediately instead of deadlocking on a
//! rendezvous that can never complete. [`epoch_end`] keeps the epoch
//! math in one audited place.

use std::sync::{Condvar, Mutex, MutexGuard};

use crate::time::SimTime;

/// Panic payload used when a barrier wait is abandoned because another
/// shard poisoned the rendezvous. Runner threads treat panics carrying
/// this exact message as *secondary* failures and re-raise the original
/// panic instead.
pub const POISON_PAYLOAD: &str = "epoch barrier poisoned";

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// A reusable rendezvous point for `parties` shard threads, with
/// poisoning so a panicking shard cannot strand the others.
///
/// Unlike [`std::sync::Barrier`], a wait on a poisoned barrier panics
/// (with [`POISON_PAYLOAD`]) rather than blocking forever, and
/// [`EpochBarrier::poison`] wakes every current waiter. The barrier is
/// generation-counted and safe to reuse across any number of epochs.
pub struct EpochBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl EpochBarrier {
    /// Creates a barrier for `parties` participating shard threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero: a rendezvous nobody attends can
    /// never trip.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "epoch barrier needs at least one party");
        EpochBarrier {
            parties,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of participating shard threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Locks the state, absorbing mutex poisoning: the barrier has its
    /// own explicit `poisoned` flag with well-defined semantics, and the
    /// guarded state stays consistent under every early unlock path.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Blocks until all `parties` shards have arrived, then releases
    /// them together.
    ///
    /// # Panics
    ///
    /// Panics with [`POISON_PAYLOAD`] if the barrier is (or becomes)
    /// poisoned — the rendezvous can no longer complete because another
    /// shard died.
    pub fn wait(&self) {
        let mut st = self.lock();
        if st.poisoned {
            panic!("{POISON_PAYLOAD}");
        }
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if st.poisoned {
            panic!("{POISON_PAYLOAD}");
        }
    }

    /// Marks the barrier unusable and wakes every waiter, which then
    /// panics out of [`EpochBarrier::wait`]. Idempotent.
    pub fn poison(&self) {
        let mut st = self.lock();
        st.poisoned = true;
        self.cv.notify_all();
    }

    /// Whether the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }
}

/// Poisons an [`EpochBarrier`] on drop unless defused.
///
/// Each shard thread holds one guard for the duration of its run loop
/// and calls [`PoisonGuard::defuse`] on clean completion. Any panic that
/// unwinds the thread drops the live guard, poisoning the barrier so
/// the sibling shards unwind too instead of waiting forever.
pub struct PoisonGuard<'a> {
    barrier: &'a EpochBarrier,
    defused: bool,
}

impl<'a> PoisonGuard<'a> {
    /// Arms a guard over `barrier`.
    pub fn new(barrier: &'a EpochBarrier) -> Self {
        PoisonGuard {
            barrier,
            defused: false,
        }
    }

    /// Disarms the guard: the shard finished cleanly.
    pub fn defuse(mut self) {
        self.defused = true;
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if !self.defused {
            self.barrier.poison();
        }
    }
}

/// The next epoch boundary: the earliest pending work anywhere in the
/// simulation plus `width`, the least delay before an effect created in
/// one epoch must reach another shard.
///
/// Soundness: any such effect generated by an event at time
/// `t ≥ min_next` lands at `t + delay ≥ min_next + width`, i.e. at or
/// after the boundary — so executing every shard's local events
/// strictly *before* the boundary can never miss one. A `width` of
/// `None` means no shard ever waits on another and the epoch extends to
/// the end of time.
#[inline]
pub fn epoch_end(min_next: SimTime, width: Option<SimTime>) -> SimTime {
    match width {
        Some(w) => min_next + w,
        None => SimTime::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_releases_all_parties_each_generation() {
        let barrier = Arc::new(EpochBarrier::new(4));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = Arc::clone(&barrier);
                let h = Arc::clone(&hits);
                s.spawn(move || {
                    for _ in 0..10 {
                        b.wait();
                        h.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 40);
        assert_eq!(barrier.parties(), 4);
        assert!(!barrier.is_poisoned());
    }

    #[test]
    fn poison_wakes_waiters_with_payload() {
        let barrier = Arc::new(EpochBarrier::new(2));
        let b = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || b.wait());
        // The waiter blocks (only 1 of 2 parties); poisoning must wake
        // it with the sentinel panic payload.
        barrier.poison();
        let err = waiter
            .join()
            .expect_err("poisoned wait must panic, not return");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .expect("invariant: panic payload is a string");
        assert_eq!(msg, POISON_PAYLOAD);
        assert!(barrier.is_poisoned());
    }

    #[test]
    fn wait_after_poison_panics_immediately() {
        let barrier = EpochBarrier::new(2);
        barrier.poison();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| barrier.wait()));
        assert!(res.is_err());
    }

    #[test]
    fn poison_guard_poisons_unless_defused() {
        let barrier = EpochBarrier::new(2);
        {
            let guard = PoisonGuard::new(&barrier);
            guard.defuse();
        }
        assert!(!barrier.is_poisoned(), "defused guard must not poison");
        {
            let _guard = PoisonGuard::new(&barrier);
        }
        assert!(barrier.is_poisoned(), "dropped live guard must poison");
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_party_barrier_rejected() {
        let _ = EpochBarrier::new(0);
    }

    #[test]
    fn epoch_end_math() {
        assert_eq!(
            epoch_end(SimTime::from_us(10), Some(SimTime::from_ns(1100))),
            SimTime::from_us(10) + SimTime::from_ns(1100)
        );
        assert_eq!(epoch_end(SimTime::from_us(10), None), SimTime::MAX);
    }
}
