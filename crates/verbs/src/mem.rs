//! Host memory, memory regions, and packet payloads.
//!
//! Each host owns a sparse byte-addressable [`Memory`]. Registering a
//! [`MemRegion`] makes a range of it visible to the RNIC, either *pinned*
//! (the classic path: every page mapped in the NIC translation table at
//! registration time) or *ODP* (pages start unmapped; access triggers
//! network page faults, §III).
//!
//! A packet carries its bytes as a [`Payload`]: a read-only snapshot of
//! the host pages it was gathered from ([`Memory::gather`]), sharing them
//! instead of copying. Pages are reference-counted and every write goes
//! through `Arc::make_mut`, so writing a page that an in-flight or
//! captured packet still holds clones the page first (copy-on-write): a
//! snapshot shows exactly the bytes present at gather time, and a
//! delivered byte is copied once, into the receiver's pages
//! ([`Memory::write_payload`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::types::{MrKey, PAGE_SIZE};

/// One host page.
type Page = [u8; PAGE_SIZE as usize];

/// Sparse page-granular memory for one host.
///
/// Pages materialize zero-filled on first access, which doubles as a
/// first-touch model: [`Memory::resident_pages`] counts the pages the OS
/// has so far.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::Memory;
///
/// let mut mem = Memory::new();
/// mem.write(0x1000, b"hello");
/// assert_eq!(mem.read(0x1000, 5), b"hello");
/// assert_eq!(mem.resident_pages(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    /// Shared with the payloads gathered from them; `Arc`, not `Rc`,
    /// because cross-shard packets cross threads.
    pages: BTreeMap<u64, Arc<Page>>,
    next_alloc: u64,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            pages: BTreeMap::new(),
            // Start allocations away from address zero so that a zero
            // address is always a bug, never a valid buffer.
            next_alloc: 0x1000,
        }
    }

    /// Reserves `len` bytes of fresh page-aligned address space and
    /// returns its base address. No pages are materialized yet.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let base = self.next_alloc;
        let span = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.next_alloc = base + span + PAGE_SIZE; // guard page
        base
    }

    /// The page at `base`, materialized zero-filled on first touch: one
    /// tree lookup whether or not the page existed.
    fn page(&mut self, base: u64) -> &mut Arc<Page> {
        self.pages
            .entry(base)
            .or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]))
    }

    /// Materializes the pages `[addr, addr+len)` touches without reading
    /// them.
    pub fn materialize(&mut self, addr: u64, len: usize) {
        for (base, ..) in pieces(addr, len) {
            self.page(base);
        }
    }

    /// Reads `len` bytes at `addr`, materializing pages as needed.
    pub fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Fills `out` from `addr`, materializing pages as needed.
    pub fn read_into(&mut self, addr: u64, out: &mut [u8]) {
        for (base, in_page, in_out) in pieces(addr, out.len()) {
            out[in_out].copy_from_slice(&self.page(base)[in_page]);
        }
    }

    /// Writes `data` at `addr`, materializing pages as needed; a page a
    /// [`Payload`] still shares is cloned first.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (base, in_page, in_data) in pieces(addr, data.len()) {
            Arc::make_mut(self.page(base))[in_page].copy_from_slice(&data[in_data]);
        }
    }

    /// A snapshot of the `len` bytes at `addr`, sharing their pages
    /// (materialized as needed) instead of copying them.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `PAGE_SIZE`, the largest MTU.
    pub fn gather(&mut self, addr: u64, len: usize) -> Payload {
        assert!(
            len <= PAGE_SIZE as usize,
            "a {len}-byte payload exceeds a page"
        );
        let mut pages = pieces(addr, len).map(|(base, ..)| Arc::clone(self.page(base)));
        Payload {
            pages: [pages.next(), pages.next()],
            off: (addr % PAGE_SIZE) as u16,
            len: len as u16,
        }
    }

    /// Writes `payload`'s bytes at `addr`: the one copy a delivered byte
    /// makes.
    pub fn write_payload(&mut self, addr: u64, payload: &Payload) {
        let (head, tail) = payload.parts();
        self.write(addr, head);
        self.write(addr + head.len() as u64, tail);
    }

    /// Number of materialized pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// `[addr, addr+len)` cut at page boundaries: per piece, its page's base
/// address, its range within that page and its range within the span.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr + done as u64;
            let off = (at % PAGE_SIZE) as usize;
            let n = (len - done).min(PAGE_SIZE as usize - off);
            done += n;
            (at - off as u64, off..off + n, done - n..done)
        })
    })
}

/// The bytes a packet carries: a read-only snapshot of at most
/// `PAGE_SIZE` bytes of host memory, held as up to two shared pages, an
/// offset and a length — 24 bytes, the size of the `Vec<u8>` it
/// replaced. Clones share the pages; equality and `Debug` are those of
/// the bytes, exactly as a `Vec<u8>`'s.
#[derive(Clone, Default)]
pub struct Payload {
    pages: [Option<Arc<Page>>; 2],
    off: u16,
    len: u16,
}

impl Payload {
    /// Number of bytes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True if the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes on the first page and those on the second (empty unless
    /// the payload crosses a page boundary).
    pub fn parts(&self) -> (&[u8], &[u8]) {
        let (off, len) = (usize::from(self.off), self.len());
        let head = len.min(PAGE_SIZE as usize - off);
        let bytes = |i: usize, r: Range<usize>| self.pages[i].as_deref().map_or(&[][..], |p| &p[r]);
        (bytes(0, off..off + head), bytes(1, 0..len - head))
    }

    /// The bytes, in order.
    pub fn iter(&self) -> impl Iterator<Item = &u8> {
        let (head, tail) = self.parts();
        head.iter().chain(tail)
    }

    /// The bytes, copied out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.iter().copied().collect()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<&[u8]> for Payload {
    /// A payload holding a copy of `bytes` (at most `PAGE_SIZE`): how
    /// tests and tools build packets by hand.
    fn from(bytes: &[u8]) -> Self {
        let mut mem = Memory::new();
        mem.write(0, bytes);
        mem.gather(0, bytes.len())
    }
}

/// How a memory region is registered with the RNIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MrMode {
    /// Classic registration: pages pinned and NIC-mapped up front.
    Pinned,
    /// On-Demand Paging: pages mapped lazily via network page faults.
    Odp,
}

impl fmt::Display for MrMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrMode::Pinned => write!(f, "pinned"),
            MrMode::Odp => write!(f, "odp"),
        }
    }
}

/// NIC-side mapping state of one page of an ODP region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Not in the NIC translation table; access faults.
    Unmapped,
    /// A network page fault is being resolved by the driver.
    Faulting,
    /// Present in the NIC translation table.
    Mapped,
}

/// A registered memory region as the RNIC sees it.
#[derive(Debug)]
pub struct MemRegion {
    key: MrKey,
    base: u64,
    len: u64,
    mode: MrMode,
    pages: Vec<PageState>,
    /// Total network page faults raised on this region (diagnostics; the
    /// paper reads the equivalent counters from `/sys`).
    pub fault_count: u64,
    /// Total invalidations applied to this region.
    pub invalidation_count: u64,
}

impl MemRegion {
    /// Creates a region covering `[base, base+len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(key: MrKey, base: u64, len: u64, mode: MrMode) -> Self {
        assert!(len > 0, "cannot register an empty memory region");
        let first_page = base / PAGE_SIZE;
        let last_page = (base + len - 1) / PAGE_SIZE;
        let n = (last_page - first_page + 1) as usize;
        let initial = match mode {
            MrMode::Pinned => PageState::Mapped,
            MrMode::Odp => PageState::Unmapped,
        };
        MemRegion {
            key,
            base,
            len,
            mode,
            pages: vec![initial; n],
            fault_count: 0,
            invalidation_count: 0,
        }
    }

    /// The region's key (lkey/rkey).
    pub fn key(&self) -> MrKey {
        self.key
    }

    /// Base virtual address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the region registers no bytes (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registration mode.
    pub fn mode(&self) -> MrMode {
        self.mode
    }

    /// Number of pages the region spans.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// True if `[offset, offset+len)` lies within the region.
    pub fn contains(&self, offset: u64, len: u32) -> bool {
        offset
            .checked_add(len as u64)
            .is_some_and(|end| end <= self.len)
    }

    /// Page index within the region for a byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn page_of(&self, offset: u64) -> usize {
        assert!(
            offset < self.len,
            "offset {offset} beyond region {}",
            self.len
        );
        (((self.base + offset) / PAGE_SIZE) - self.base / PAGE_SIZE) as usize
    }

    /// Indices of the pages touched by `[offset, offset+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the region.
    pub fn pages_spanned(&self, offset: u64, len: u32) -> std::ops::RangeInclusive<usize> {
        assert!(self.contains(offset, len), "range out of bounds");
        let last = if len == 0 {
            offset
        } else {
            offset + len as u64 - 1
        };
        self.page_of(offset)..=self.page_of(last)
    }

    /// Mapping state of page `idx`.
    pub fn page_state(&self, idx: usize) -> PageState {
        self.pages[idx]
    }

    /// Sets the mapping state of page `idx`.
    pub fn set_page_state(&mut self, idx: usize, state: PageState) {
        self.pages[idx] = state;
    }

    /// Maps every page (pre-touch / prefetch, like `ibv_advise_mr`).
    pub fn map_all(&mut self) {
        for p in &mut self.pages {
            *p = PageState::Mapped;
        }
    }

    /// Invalidates one page (kernel reclaimed it). Only meaningful for ODP
    /// regions; pinned pages cannot be reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if called on a pinned region.
    pub fn invalidate_page(&mut self, idx: usize) {
        assert_eq!(
            self.mode,
            MrMode::Odp,
            "cannot invalidate a pinned region's page"
        );
        self.pages[idx] = PageState::Unmapped;
        self.invalidation_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_read_write_roundtrip() {
        let mut m = Memory::new();
        let a = m.alloc(10_000);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.write(a, &data);
        assert_eq!(m.read(a, 10_000), data);
    }

    #[test]
    fn memory_crosses_page_boundaries() {
        let mut m = Memory::new();
        let a = m.alloc(2 * PAGE_SIZE);
        let addr = a + PAGE_SIZE - 3;
        m.write(addr, b"abcdef");
        assert_eq!(m.read(addr, 6), b"abcdef");
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut m = Memory::new();
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a % PAGE_SIZE, 0);
        assert_eq!(b % PAGE_SIZE, 0);
        assert!(b >= a + PAGE_SIZE);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut m = Memory::new();
        let a = m.alloc(100);
        assert_eq!(m.read(a, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn pinned_region_starts_mapped() {
        let r = MemRegion::new(MrKey(1), 0x1000, 8192, MrMode::Pinned);
        assert_eq!(r.page_count(), 2);
        assert_eq!(r.page_state(0), PageState::Mapped);
        assert_eq!(r.page_state(1), PageState::Mapped);
    }

    #[test]
    fn odp_region_starts_unmapped() {
        let r = MemRegion::new(MrKey(1), 0x1000, 8192, MrMode::Odp);
        assert_eq!(r.page_state(0), PageState::Unmapped);
        assert_eq!(r.page_state(1), PageState::Unmapped);
    }

    #[test]
    fn page_math_with_unaligned_base() {
        // Region starting mid-page: page 0 covers the first partial page.
        let r = MemRegion::new(MrKey(1), 0x1800, 4096, MrMode::Odp);
        assert_eq!(r.page_count(), 2);
        assert_eq!(r.page_of(0), 0);
        assert_eq!(r.page_of(0x7FF), 0);
        assert_eq!(r.page_of(0x800), 1);
        assert_eq!(r.pages_spanned(0, 4096), 0..=1);
    }

    #[test]
    fn pages_spanned_single_byte() {
        let r = MemRegion::new(MrKey(1), 0, 4096 * 3, MrMode::Odp);
        assert_eq!(r.pages_spanned(4096, 1), 1..=1);
        assert_eq!(r.pages_spanned(4095, 2), 0..=1);
    }

    #[test]
    fn contains_checks_bounds() {
        let r = MemRegion::new(MrKey(1), 0, 4096, MrMode::Pinned);
        assert!(r.contains(0, 4096));
        assert!(!r.contains(1, 4096));
        assert!(!r.contains(4096, 1));
        assert!(r.contains(4095, 1));
    }

    #[test]
    fn map_all_and_invalidate() {
        let mut r = MemRegion::new(MrKey(1), 0, 8192, MrMode::Odp);
        r.map_all();
        assert_eq!(r.page_state(1), PageState::Mapped);
        r.invalidate_page(1);
        assert_eq!(r.page_state(0), PageState::Mapped);
        assert_eq!(r.page_state(1), PageState::Unmapped);
        assert_eq!(r.invalidation_count, 1);
    }

    #[test]
    #[should_panic(expected = "cannot invalidate a pinned region")]
    fn invalidating_pinned_panics() {
        let mut r = MemRegion::new(MrKey(1), 0, 4096, MrMode::Pinned);
        r.invalidate_page(0);
    }

    #[test]
    #[should_panic(expected = "cannot register an empty memory region")]
    fn empty_region_panics() {
        MemRegion::new(MrKey(1), 0, 0, MrMode::Pinned);
    }
}
