//! Manual memory-registration strategies — what ODP competes against.
//!
//! The paper's introduction frames ODP against hand-crafted physical
//! memory management, and §VIII-A surveys the standard techniques:
//! registering on every transfer, and the *pin-down cache* of Tezuka et
//! al. \[16\] that reuses pinned buffers with LRU replacement. This module
//! implements both so the trade-off can be measured against ODP in the
//! same simulator (`ibsim-bench --bin ablation`).
//!
//! Cost model: memory registration is dominated by pinning user pages and
//! programming the NIC translation table; following the measurements in
//! Mietke et al. \[13\] and Frey & Alonso \[11\], we charge a fixed syscall
//! cost plus a per-page cost, and ~40% of that for deregistration.

use std::collections::BTreeMap;

use ibsim_event::SimTime;
use ibsim_verbs::{Cluster, HostId, MrBuilder, MrKey, Sim, PAGE_SIZE};

/// Registration cost: fixed part.
const REG_BASE: SimTime = SimTime::from_us(30);
/// Registration cost: per page.
const REG_PER_PAGE: SimTime = SimTime::from_ns(900);
/// Deregistration fixed part.
const DEREG_BASE: SimTime = SimTime::from_us(12);
/// Deregistration per page.
const DEREG_PER_PAGE: SimTime = SimTime::from_ns(380);

/// Time to register a buffer of `len` bytes (pin + NIC table update).
pub fn registration_cost(len: u64) -> SimTime {
    REG_BASE + REG_PER_PAGE * len.div_ceil(PAGE_SIZE)
}

/// Time to deregister (unpin) a buffer of `len` bytes.
pub fn deregistration_cost(len: u64) -> SimTime {
    DEREG_BASE + DEREG_PER_PAGE * len.div_ceil(PAGE_SIZE)
}

/// Counters for a registration-cache run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegCacheStats {
    /// Lookups satisfied by an already-pinned buffer.
    pub hits: u64,
    /// Lookups that had to register.
    pub misses: u64,
    /// Buffers evicted (deregistered) to make room.
    pub evictions: u64,
    /// Total time spent registering.
    pub reg_time: SimTime,
    /// Total time spent deregistering.
    pub dereg_time: SimTime,
    /// Bytes currently pinned.
    pub pinned_bytes: u64,
    /// High-water mark of pinned bytes.
    pub peak_pinned_bytes: u64,
}

/// A pin-down cache for one host: keeps buffers registered after use and
/// evicts in least-recently-used order when the pinned-memory budget is
/// exceeded (Tezuka et al. \[16\]).
///
/// # Examples
///
/// ```
/// use ibsim_event::Engine;
/// use ibsim_odp::regcache::PinDownCache;
/// use ibsim_verbs::{Cluster, DeviceProfile};
///
/// let mut eng = Engine::new();
/// let mut cl = Cluster::new(1);
/// let h = cl.add_host("h", DeviceProfile::connectx6());
/// let mut cache = PinDownCache::new(h, 64 * 1024);
/// let buf = cl.alloc_buffer(h, 4096);
/// // First acquire registers (costs time)...
/// let t0 = eng.now();
/// let (key1, ready1) = cache.acquire(&mut eng, &mut cl, buf, 4096);
/// assert!(ready1 > t0);
/// // ...the second is free.
/// let (key2, ready2) = cache.acquire(&mut eng, &mut cl, buf, 4096);
/// assert_eq!(key1, key2);
/// assert_eq!(ready2, ready1.max(eng.now()));
/// ```
#[derive(Debug)]
pub struct PinDownCache {
    host: HostId,
    capacity: u64,
    /// base → (key, len, last-use tick, ready time).
    entries: BTreeMap<u64, Entry>,
    tick: u64,
    /// The cache serializes (de)registration work on the host CPU.
    busy_until: SimTime,
    stats: RegCacheStats,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: MrKey,
    len: u64,
    last_use: u64,
    ready_at: SimTime,
}

impl PinDownCache {
    /// Creates a cache allowed to keep `capacity` bytes pinned.
    pub fn new(host: HostId, capacity: u64) -> Self {
        PinDownCache {
            host,
            capacity,
            entries: BTreeMap::new(),
            tick: 0,
            busy_until: SimTime::ZERO,
            stats: RegCacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RegCacheStats {
        self.stats
    }

    /// Number of cached registrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Acquires a registration for `[base, base+len)`: returns the key and
    /// the time at which the registration is usable (now for a hit; after
    /// the pinning work for a miss). Evicts LRU entries if the pinned
    /// budget would overflow.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the cache capacity.
    pub fn acquire(
        &mut self,
        eng: &mut Sim,
        cl: &mut Cluster,
        base: u64,
        len: u64,
    ) -> (MrKey, SimTime) {
        assert!(len <= self.capacity, "buffer larger than pin budget");
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&base) {
            debug_assert!(e.len >= len, "cached entry covers the request");
            e.last_use = tick;
            self.stats.hits += 1;
            return (e.key, e.ready_at.max(eng.now()));
        }
        self.stats.misses += 1;
        let mut start = eng.now().max(self.busy_until);
        // Evict until the new buffer fits.
        while self.stats.pinned_bytes + len > self.capacity {
            let (&victim_base, &victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .expect("invariant: over budget implies entries exist");
            self.entries.remove(&victim_base);
            let cost = deregistration_cost(victim.len);
            self.stats.dereg_time += cost;
            self.stats.evictions += 1;
            self.stats.pinned_bytes -= victim.len;
            start += cost;
        }
        let reg = registration_cost(len);
        self.stats.reg_time += reg;
        let ready_at = start + reg;
        self.busy_until = ready_at;
        let key = cl.mr(self.host, MrBuilder::pinned(len).at(base)).key;
        self.entries.insert(
            base,
            Entry {
                key,
                len,
                last_use: tick,
                ready_at,
            },
        );
        self.stats.pinned_bytes += len;
        self.stats.peak_pinned_bytes = self.stats.peak_pinned_bytes.max(self.stats.pinned_bytes);
        (key, ready_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_event::Engine;
    use ibsim_verbs::DeviceProfile;

    fn setup() -> (Sim, Cluster, HostId) {
        let mut cl = Cluster::new(3);
        let h = cl.add_host("h", DeviceProfile::connectx6());
        (Engine::new(), cl, h)
    }

    #[test]
    fn cost_model_scales_with_pages() {
        assert_eq!(
            registration_cost(PAGE_SIZE),
            SimTime::from_us(30) + SimTime::from_ns(900)
        );
        let one = registration_cost(PAGE_SIZE);
        let many = registration_cost(64 * PAGE_SIZE);
        assert!(many > one);
        assert!(deregistration_cost(PAGE_SIZE) < registration_cost(PAGE_SIZE));
    }

    #[test]
    fn first_acquire_pays_then_hits_are_free() {
        let (mut eng, mut cl, h) = setup();
        let buf = cl.alloc_buffer(h, 4096);
        let mut cache = PinDownCache::new(h, 1 << 20);
        let (k1, ready) = cache.acquire(&mut eng, &mut cl, buf, 4096);
        assert!(ready > SimTime::ZERO);
        let (k2, ready2) = cache.acquire(&mut eng, &mut cl, buf, 4096);
        assert_eq!(k1, k2);
        assert_eq!(ready2, ready, "hit is free");
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.pinned_bytes, 4096);
    }

    #[test]
    fn lru_eviction_when_over_budget() {
        let (mut eng, mut cl, h) = setup();
        let bufs: Vec<u64> = (0..3).map(|_| cl.alloc_buffer(h, 4096)).collect();
        // Budget: two pages.
        let mut cache = PinDownCache::new(h, 2 * 4096);
        cache.acquire(&mut eng, &mut cl, bufs[0], 4096);
        cache.acquire(&mut eng, &mut cl, bufs[1], 4096);
        // Touch buf0 so buf1 becomes LRU.
        cache.acquire(&mut eng, &mut cl, bufs[0], 4096);
        // buf2 evicts buf1.
        cache.acquire(&mut eng, &mut cl, bufs[2], 4096);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        // buf0 still cached (hit), buf1 gone (miss → evicts LRU buf0 now? no:
        // budget fits after buf1 re-registers evicting the older of 0/2).
        let before = cache.stats().hits;
        cache.acquire(&mut eng, &mut cl, bufs[0], 4096);
        assert_eq!(cache.stats().hits, before + 1);
        let miss_before = cache.stats().misses;
        cache.acquire(&mut eng, &mut cl, bufs[1], 4096);
        assert_eq!(cache.stats().misses, miss_before + 1);
    }

    #[test]
    fn peak_pinned_tracks_high_water() {
        let (mut eng, mut cl, h) = setup();
        let a = cl.alloc_buffer(h, 8192);
        let b = cl.alloc_buffer(h, 8192);
        let mut cache = PinDownCache::new(h, 16 * 4096);
        cache.acquire(&mut eng, &mut cl, a, 8192);
        cache.acquire(&mut eng, &mut cl, b, 8192);
        assert_eq!(cache.stats().peak_pinned_bytes, 16384);
    }

    #[test]
    #[should_panic(expected = "larger than pin budget")]
    fn oversized_buffer_panics() {
        let (mut eng, mut cl, h) = setup();
        let a = cl.alloc_buffer(h, 8192);
        let mut cache = PinDownCache::new(h, 4096);
        cache.acquire(&mut eng, &mut cl, a, 8192);
    }
}
