//! Host memory, memory regions, and packet payloads.
//!
//! Each host owns a byte-addressable [`Memory`]: a dense page table
//! indexed by page number, below a fixed address ceiling
//! ([`Memory::ADDR_LIMIT`]). Registering a
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
//! snapshot shows exactly the bytes present at gather time.
//!
//! Delivery ([`Memory::write_payload`]) copies a payload's bytes into the
//! receiver's pages, except for the page the paper (§III) treats as the
//! unit of RDMA memory: a payload that is exactly one whole page, landing
//! on a page boundary, is *adopted*. The receiver's slot takes a share of
//! the sender's page, and copy-on-write separates the two hosts at the
//! first later write on either side. Adoption only ever fills a slot that
//! holds no private bytes: one never touched, or one whose page something
//! else also holds (a snapshot, a packet, another host), which the next
//! write would have cloned anyway. A page that only this memory holds is
//! copied into, as before: displacing it would drop a page that later
//! writes reuse in place and make each of them clone a fresh one.
//!
//! A range whose every page starts alike, a scenario's initial region,
//! is filled the same way ([`Memory::fill`]): each whole page adopts one
//! shared page. [`Memory::view`] hands a range of any length back as
//! payloads, one per page, so a region is read out without a byte
//! copied.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::types::{MrKey, PAGE_SIZE};

/// One host page.
type Page = [u8; PAGE_SIZE as usize];

/// Page-granular memory for one host: a dense page table, slot `n`
/// holding the page at `n × PAGE_SIZE`, so finding a page is one index.
///
/// Pages materialize zero-filled on first access (or arrive whole,
/// adopted from a delivered payload), which doubles as a first-touch
/// model: [`Memory::resident_pages`] counts the pages the OS has so far.
/// The table grows to the highest page touched, 8 bytes a slot.
/// [`Memory::alloc`] is a bump allocator from `0x1000`, so the
/// address space a host's buffers occupy — and the table — stays dense
/// by construction. Every address lies below [`Memory::ADDR_LIMIT`], so
/// no value, however hostile, sizes the table past 128 MiB.
///
/// # Panics
///
/// Every read, write, gather or materialization of a range reaching past
/// [`Memory::ADDR_LIMIT`] panics, naming the range, as
/// [`Memory::alloc`] does.
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
#[derive(Debug)]
pub struct Memory {
    /// Indexed by page number; `None` until first touch. Shared with the
    /// payloads gathered from them and the memories that adopted them;
    /// `Arc`, not `Rc`, because the sharded executor moves whole worlds
    /// onto threads.
    pages: Vec<Option<Arc<Page>>>,
    /// The `Some` slots of `pages`.
    resident: usize,
    next_alloc: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// The address ceiling: every allocation, registration and access
    /// lies in `[0, ADDR_LIMIT)`. 64 GiB, a 128 MiB page table at worst;
    /// the largest world in the repository touches a few MiB.
    pub const ADDR_LIMIT: u64 = 1 << 36;

    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            pages: Vec::new(),
            resident: 0,
            // Start allocations away from address zero so that a zero
            // address is always a bug, never a valid buffer.
            next_alloc: 0x1000,
        }
    }

    /// Reserves `len` bytes of fresh page-aligned address space and
    /// returns its base address. No pages are materialized yet.
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if it would reach past
    /// [`Memory::ADDR_LIMIT`].
    pub fn alloc(&mut self, len: u64) -> u64 {
        let base = self.next_alloc;
        let end = below_ceiling(base, len.max(1));
        self.next_alloc = end.next_multiple_of(PAGE_SIZE) + PAGE_SIZE; // guard page
        base
    }

    /// The slot of the page at `base`, the table grown to reach it, and
    /// the resident count that filling it must raise.
    fn slot(&mut self, base: u64) -> (&mut Option<Arc<Page>>, &mut usize) {
        let n = (base / PAGE_SIZE) as usize;
        if n >= self.pages.len() {
            self.pages.resize(n + 1, None);
        }
        (&mut self.pages[n], &mut self.resident)
    }

    /// The page at `base`, materialized zero-filled on first touch: one
    /// index whether or not the page existed.
    fn page(&mut self, base: u64) -> &mut Arc<Page> {
        let (slot, resident) = self.slot(base);
        if slot.is_none() {
            *resident += 1;
        }
        slot.get_or_insert_with(|| Arc::new([0; PAGE_SIZE as usize]))
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
    /// [`Payload`] or another memory still shares is cloned first, so the
    /// write is seen here alone.
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
    /// Panics if `len` exceeds `PAGE_SIZE`, the largest MTU, or the range
    /// reaches past [`Memory::ADDR_LIMIT`].
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

    /// Writes `payload`'s bytes at `addr`, as [`Memory::write`] would.
    /// A whole page landing on a page boundary is adopted, not copied,
    /// when its slot holds no private page: the slot is untouched (and
    /// now resident) or its page is shared anyway. See the module docs.
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if it reaches past
    /// [`Memory::ADDR_LIMIT`].
    pub fn write_payload(&mut self, addr: u64, payload: &Payload) {
        let aligned = addr.is_multiple_of(PAGE_SIZE);
        if let Some(page) = payload.whole_page().filter(|_| aligned) {
            below_ceiling(addr, PAGE_SIZE);
            let (slot, resident) = self.slot(addr);
            if slot.as_ref().is_none_or(|held| Arc::strong_count(held) > 1) {
                *resident += usize::from(slot.is_none());
                *slot = Some(Arc::clone(page));
                return;
            }
        }
        let (head, tail) = payload.parts();
        self.write(addr, head);
        self.write(addr + head.len() as u64, tail);
    }

    /// Tiles `[addr, addr+len)` with `page`, one whole page: each byte
    /// takes `page`'s byte at its own in-page offset. Every whole page of
    /// the range adopts `page` by [`Memory::write_payload`]'s rule, so an
    /// untouched range ends up holding one page however long it is; a
    /// piece shorter than a page, at either end, is copied.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not one whole page, or, naming the range, if
    /// the range reaches past [`Memory::ADDR_LIMIT`].
    pub fn fill(&mut self, addr: u64, len: usize, page: &Payload) {
        let Some(bytes) = page.whole_page() else {
            panic!("a fill tiles one whole page, not {} bytes", page.len())
        };
        for (base, in_page, _) in pieces(addr, len) {
            if in_page.len() == PAGE_SIZE as usize {
                self.write_payload(base, page);
            } else {
                self.write(base + in_page.start as u64, &bytes[in_page]);
            }
        }
    }

    /// The `len` bytes at `addr` as one [`Payload`] per page the range
    /// touches, in address order: a [`Memory::gather`] snapshot of any
    /// length, sharing every page and copying no byte.
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if it reaches past
    /// [`Memory::ADDR_LIMIT`].
    pub fn view(&mut self, addr: u64, len: usize) -> Vec<Payload> {
        pieces(addr, len)
            .map(|(base, in_page, _)| self.gather(base + in_page.start as u64, in_page.len()))
            .collect()
    }

    /// Number of materialized pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

/// The end of `[addr, addr+len)`, refusing a range that reaches past
/// [`Memory::ADDR_LIMIT`] — the one check behind every allocation,
/// registration and access, overflow included, in every profile.
fn below_ceiling(addr: u64, len: u64) -> u64 {
    match addr.checked_add(len) {
        Some(end) if end <= Memory::ADDR_LIMIT => end,
        _ => panic!(
            "bytes [{addr:#x}, {addr:#x} + {len:#x}) reach past the {:#x} address ceiling",
            Memory::ADDR_LIMIT
        ),
    }
}

/// `[addr, addr+len)` cut at page boundaries: per piece, its page's base
/// address, its range within that page and its range within the span.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>, Range<usize>)> {
    below_ceiling(addr, len as u64);
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

/// The bytes a packet carries, or one page of a [`Memory::view`]: a
/// read-only snapshot of at most `PAGE_SIZE` bytes of host memory, held as up to two shared pages, an
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

    /// The page this payload spans exactly, if it is one whole page.
    fn whole_page(&self) -> Option<&Arc<Page>> {
        let whole = self.off == 0 && u64::from(self.len) == PAGE_SIZE;
        self.pages[0].as_ref().filter(|_| whole)
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
    /// Panics if `len` is zero, or, naming the range, if the region
    /// reaches past [`Memory::ADDR_LIMIT`].
    pub fn new(key: MrKey, base: u64, len: u64, mode: MrMode) -> Self {
        assert!(len > 0, "cannot register an empty memory region");
        let first_page = base / PAGE_SIZE;
        let last_page = (below_ceiling(base, len) - 1) / PAGE_SIZE;
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
    fn default_memory_allocates_away_from_zero() {
        assert_eq!(Memory::default().alloc(100), 0x1000);
        assert_eq!(Memory::default().alloc(100), Memory::new().alloc(100));
    }

    #[test]
    fn alloc_may_end_exactly_at_the_ceiling() {
        let mut m = Memory::new();
        assert_eq!(m.alloc(Memory::ADDR_LIMIT - 0x1000), 0x1000);
        let r = MemRegion::new(MrKey(1), Memory::ADDR_LIMIT - 1, 1, MrMode::Pinned);
        assert_eq!(r.page_count(), 1);
        assert_eq!(m.resident_pages(), 0, "reserving touches nothing");
    }

    #[test]
    #[should_panic(
        expected = "bytes [0x1000001000, 0x1000001000 + 0x1) reach past the 0x1000000000 address ceiling"
    )]
    fn alloc_past_the_ceiling_panics() {
        let mut m = Memory::new();
        m.alloc(Memory::ADDR_LIMIT - 0x1000); // ends at the ceiling
        m.alloc(1);
    }

    /// Unchecked, this wrapped in release builds: the next allocation
    /// landed inside this one.
    #[test]
    #[should_panic(
        expected = "bytes [0x1000, 0x1000 + 0xfffffffffffffff5) reach past the 0x1000000000 address ceiling"
    )]
    fn alloc_overflowing_u64_panics() {
        Memory::new().alloc(u64::MAX - 10);
    }

    #[test]
    #[should_panic(expected = "bytes [0xffffffffe, 0xffffffffe + 0x3) reach past")]
    fn write_past_the_ceiling_panics() {
        Memory::new().write(Memory::ADDR_LIMIT - 2, b"abc");
    }

    /// Adoption skips `pieces`, so it checks the ceiling itself; unchecked,
    /// the page table would grow to the slot first.
    #[test]
    #[should_panic(expected = "bytes [0x1000000000, 0x1000000000 + 0x1000) reach past")]
    fn adopting_a_page_past_the_ceiling_panics() {
        let page = Payload::from(&[7; PAGE_SIZE as usize][..]);
        Memory::new().write_payload(Memory::ADDR_LIMIT, &page);
    }

    #[test]
    #[should_panic(expected = "bytes [0xffffffffffffffff, 0xffffffffffffffff + 0x1) reach past")]
    fn read_at_the_top_of_u64_panics() {
        Memory::new().read(u64::MAX, 1);
    }

    #[test]
    #[should_panic(
        expected = "bytes [0xfffffffffffffff5, 0xfffffffffffffff5 + 0x64) reach past the 0x1000000000 address ceiling"
    )]
    fn region_overflowing_u64_panics() {
        MemRegion::new(MrKey(1), u64::MAX - 10, 100, MrMode::Odp);
    }

    /// A fill adopts the one page into every whole slot, counting each
    /// once, and copies the two partial ends; a write then separates
    /// only its own slot.
    #[test]
    fn fill_shares_one_page_and_copies_the_ends() {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8).collect();
        let page = Payload::from(&bytes[..]);
        let mut m = Memory::new();
        let a = m.alloc(6 * PAGE_SIZE);
        m.fill(a + 100, 4 * PAGE_SIZE as usize, &page);
        assert_eq!(m.resident_pages(), 5);
        let shared = page.whole_page().map(Arc::as_ptr);
        let slot = |m: &Memory, n: u64| {
            m.pages[(a / PAGE_SIZE + n) as usize]
                .as_ref()
                .map(Arc::as_ptr)
        };
        assert!((1..4).all(|n| slot(&m, n) == shared));
        assert!(slot(&m, 0) != shared && slot(&m, 4) != shared);
        m.write(a + PAGE_SIZE + 7, b"x");
        assert!(slot(&m, 1) != shared && slot(&m, 2) == shared);
        let view: Vec<u8> = m
            .view(a + 100, 4 * PAGE_SIZE as usize)
            .iter()
            .flat_map(Payload::to_vec)
            .collect();
        let want: Vec<u8> = (100..100 + 4 * PAGE_SIZE)
            .map(|i| if i == PAGE_SIZE + 7 { b'x' } else { i as u8 })
            .collect();
        assert_eq!(view, want);
        assert_eq!(page.to_vec(), bytes, "the shared page kept its bytes");
    }

    #[test]
    #[should_panic(expected = "a fill tiles one whole page, not 100 bytes")]
    fn filling_from_a_partial_page_panics() {
        Memory::new().fill(0x1000, 10, &Payload::from(&[0; 100][..]));
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
