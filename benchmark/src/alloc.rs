//! A counting wrapper around the system allocator.
//!
//! Allocation counts are the deterministic cost metric of the per-layer
//! trace: the simulator allocates one boxed closure per event plus
//! whatever a handler turn needs, and that number repeats bit for bit
//! where wall time cannot. The counters live on the benchmark side — the
//! simulator is untouched — and are per thread (plain thread-local
//! cells, no atomics), so the single load-generating thread reads
//! exactly its own allocations. The wrapper is installed in every mode,
//! traced or not, so both runs execute the same allocator path; its cost
//! is two thread-local increments per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator type; `main.rs` installs it as `#[global_allocator]`.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; that allocation is simply not counted.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested by the current thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Reads the current thread's counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Sets the current thread's counters back to `to`: what was allocated
/// since then was the benchmark's own (a yardstick reading in the middle
/// of a run) and must not show in the workload's counts.
pub fn restore(to: Snapshot) {
    COUNT.with(|c| c.set(to.count));
    BYTES.with(|b| b.set(to.bytes));
}

impl Snapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
