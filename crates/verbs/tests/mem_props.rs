//! Randomized tests of the memory substrate: memory round-trips, the
//! page table's resident count and region page arithmetic, driven by
//! seeded loops over the in-tree deterministic PRNG (formerly `proptest`
//! properties).

use ibsim_event::SplitMix64;
use ibsim_verbs::{MemRegion, Memory, MrKey, MrMode, PageState, Payload, PAGE_SIZE};

/// Arbitrary interleaved writes read back exactly, independent of page
/// boundaries.
#[test]
fn sparse_memory_roundtrips() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x3E3 * 1000 + case);
        let n_writes = rng.range(1, 40) as usize;
        let writes: Vec<(u64, Vec<u8>)> = (0..n_writes)
            .map(|_| {
                let addr = rng.next_below(100_000);
                let len = rng.range(1, 300) as usize;
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                (addr, data)
            })
            .collect();
        let mut mem = Memory::new();
        let mut model: std::collections::BTreeMap<u64, u8> = std::collections::BTreeMap::new();
        for (addr, data) in &writes {
            mem.write(*addr, data);
            for (i, b) in data.iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (addr, data) in &writes {
            let got = mem.read(*addr, data.len());
            for (i, g) in got.iter().enumerate() {
                assert_eq!(*g, model[&(addr + i as u64)], "case {case}");
            }
        }
    }
}

/// `pages_spanned` covers exactly the pages containing the range, for
/// arbitrary (possibly unaligned) region bases.
#[test]
fn pages_spanned_is_exact() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x9A6E5 * 1000 + case);
        let base_page = rng.next_below(100);
        let base_off = rng.next_below(PAGE_SIZE);
        let len = rng.range(1, PAGE_SIZE * 8);
        let range_len = rng.range(1, 4096) as u32;
        let base = base_page * PAGE_SIZE + base_off;
        let region_len = len.max(range_len as u64 + 1);
        let r = MemRegion::new(MrKey(1), base, region_len, MrMode::Odp);
        let max_off = region_len - range_len as u64;
        let off = if max_off == 0 {
            0
        } else {
            rng.next_below(max_off + 1)
        };
        let span = r.pages_spanned(off, range_len);
        // Check against direct page arithmetic on absolute addresses.
        let abs_first = (base + off) / PAGE_SIZE;
        let abs_last = (base + off + range_len as u64 - 1) / PAGE_SIZE;
        let rel_first = abs_first - base / PAGE_SIZE;
        let rel_last = abs_last - base / PAGE_SIZE;
        assert_eq!(*span.start() as u64, rel_first, "case {case}");
        assert_eq!(*span.end() as u64, rel_last, "case {case}");
        assert!(rel_last < r.page_count() as u64, "case {case}");
    }
}

/// Mapping then invalidating arbitrary pages leaves exactly the
/// invalidated pages unmapped and counts every invalidation.
#[test]
fn page_state_queries_agree() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0x57A7E * 1000 + case);
        let pages = rng.range(1, 40) as usize;
        let n_inval = rng.next_below(12) as usize;
        let invalidate: Vec<usize> = (0..n_inval).map(|_| rng.next_below(40) as usize).collect();
        let mut r = MemRegion::new(MrKey(1), 0, pages as u64 * PAGE_SIZE, MrMode::Odp);
        r.map_all();
        for &p in &invalidate {
            if p < pages {
                r.invalidate_page(p);
            }
        }
        for p in 0..pages {
            let want = if invalidate.contains(&p) {
                PageState::Unmapped
            } else {
                PageState::Mapped
            };
            assert_eq!(r.page_state(p), want, "case {case} page {p}");
        }
        let applied = invalidate.iter().filter(|&&p| p < pages).count();
        assert_eq!(r.invalidation_count, applied as u64, "case {case}");
    }
}

/// Payloads against a flat model of the memory, across page boundaries:
/// `gather` snapshots exactly the bytes `read` returns (and compares and
/// prints as them), later writes to the source leave the snapshot as it
/// was, and `write_payload` lands it exactly as `write` lands a slice.
#[test]
fn payloads_gather_and_land_like_reads_and_writes() {
    let span = 7 * PAGE_SIZE as usize;
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x6A7E * 1000 + case);
        let (mut mem, mut model) = (Memory::new(), vec![0u8; span]);
        for _ in 0..rng.range(1, 30) {
            let addr = rng.next_below(6 * PAGE_SIZE);
            let len = rng.next_below(PAGE_SIZE + 1) as usize;
            let at = addr as usize..addr as usize + len;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let snapshot = mem.gather(addr, len);
            let want = model[at.clone()].to_vec();
            assert_eq!(snapshot.to_vec(), want, "case {case}");
            assert_eq!(mem.read(addr, len), want, "case {case}");
            assert_eq!(snapshot, Payload::from(&want[..]), "case {case}");
            assert_eq!(format!("{snapshot:?}"), format!("{want:?}"));
            let (head, tail) = snapshot.parts();
            let room = (PAGE_SIZE - addr % PAGE_SIZE) as usize;
            let split = (len.min(room), len.saturating_sub(room));
            assert_eq!((head.len(), tail.len()), split, "case {case}");
            mem.write(addr, &bytes);
            model[at].copy_from_slice(&bytes);
            assert_eq!(snapshot.to_vec(), want, "case {case}: copy-on-write");
            let dst = rng.next_below(6 * PAGE_SIZE) as usize;
            mem.write_payload(dst as u64, &snapshot);
            model[dst..dst + len].copy_from_slice(&want);
        }
        assert_eq!(mem.read(0, span), model, "case {case}");
    }
}

/// The page table against a sorted-set model of the pages touched:
/// after every read, write, gather, materialization, fill from one
/// page, view or allocation at a random address below 2^30 (or in the
/// first 16 pages), `resident_pages` is the model's count, so a fill
/// counts each slot it fills once however many share its page.
/// Allocation reserves address space and touches nothing.
#[test]
fn resident_pages_counts_exactly_the_pages_touched() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x9A6E * 1000 + case);
        let (mut mem, mut model) = (Memory::new(), std::collections::BTreeSet::new());
        for op in 0..200 {
            // Half the ops land in the first 16 pages, page 0 included,
            // so pages are touched again as well as first.
            let addr = rng.next_below([1 << 30, 16 * PAGE_SIZE][op % 2]);
            let len = rng.next_below(3 * PAGE_SIZE) as usize;
            let short = len.min(PAGE_SIZE as usize);
            let touched = match rng.next_below(7) {
                0 => {
                    mem.write(addr, &vec![op as u8; len]);
                    len
                }
                1 => mem.read(addr, len).len(),
                2 => mem.gather(addr, short).len(),
                3 => {
                    mem.materialize(addr, len);
                    len
                }
                4 => {
                    mem.fill(
                        addr,
                        len,
                        &Payload::from(&[op as u8; PAGE_SIZE as usize][..]),
                    );
                    len
                }
                5 => mem.view(addr, len).iter().map(Payload::len).sum(),
                _ => {
                    mem.alloc(len as u64);
                    0
                }
            };
            if touched > 0 {
                model.extend(addr / PAGE_SIZE..=(addr + touched as u64 - 1) / PAGE_SIZE);
            }
            assert_eq!(mem.resident_pages(), model.len(), "case {case} op {op}");
        }
    }
}

/// `gather` and `materialize` make resident exactly the pages `read`
/// of the same range does (a contiguous run from the same first page,
/// so equal counts are equal sets).
#[test]
fn gather_and_materialize_touch_what_read_touches() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x7E5 * 1000 + case);
        let addr = rng.next_below(4 * PAGE_SIZE);
        let (short, long) = (
            rng.next_below(PAGE_SIZE + 1) as usize,
            rng.next_below(4 * PAGE_SIZE) as usize,
        );
        let resident = |touch: &dyn Fn(&mut Memory)| {
            let mut mem = Memory::new();
            touch(&mut mem);
            mem.resident_pages()
        };
        let read = |len| move |m: &mut Memory| drop(m.read(addr, len));
        assert_eq!(
            resident(&|m| drop(m.gather(addr, short))),
            resident(&read(short)),
            "case {case}"
        );
        assert_eq!(
            resident(&|m| m.materialize(addr, long)),
            resident(&read(long)),
            "case {case}"
        );
    }
}

/// Two memories, their bytes and resident pages as flat models, and the
/// snapshots held across steps with the bytes each must keep showing.
struct Twin {
    mems: [Memory; 2],
    bytes: [Vec<u8>; 2],
    resident: [std::collections::BTreeSet<u64>; 2],
    held: Vec<(Payload, Vec<u8>)>,
}

impl Twin {
    fn touch(&mut self, m: usize, addr: u64, len: usize) {
        if len > 0 {
            let pages = addr / PAGE_SIZE..=(addr + len as u64 - 1) / PAGE_SIZE;
            self.resident[m].extend(pages);
        }
    }

    fn write(&mut self, m: usize, addr: u64, data: &[u8]) {
        self.mems[m].write(addr, data);
        self.touch(m, addr, data.len());
        self.bytes[m][addr as usize..][..data.len()].copy_from_slice(data);
    }

    fn gather(&mut self, m: usize, addr: u64, len: usize) -> (Payload, Vec<u8>) {
        let payload = self.mems[m].gather(addr, len);
        self.touch(m, addr, len);
        (payload, self.bytes[m][addr as usize..][..len].to_vec())
    }

    /// Tiles `[addr, addr+len)` with one page of random bytes, as a
    /// scenario's init fill does, and holds that page, which must keep
    /// its bytes through every later write.
    fn fill(&mut self, m: usize, addr: u64, len: usize, rng: &mut SplitMix64) {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.next_u64() as u8).collect();
        let page = Payload::from(&bytes[..]);
        self.mems[m].fill(addr, len, &page);
        self.touch(m, addr, len);
        for at in addr as usize..addr as usize + len {
            self.bytes[m][at] = bytes[at % PAGE_SIZE as usize];
        }
        self.held.push((page, bytes));
    }

    /// Takes a view of `[addr, addr+len)`, one payload per page it
    /// touches, and holds it: it must keep these bytes whatever either
    /// memory writes later.
    fn view(&mut self, m: usize, addr: u64, len: usize) {
        let view = self.mems[m].view(addr, len);
        self.touch(m, addr, len);
        let pages = len.div_ceil(PAGE_SIZE as usize) + usize::from(len > 0);
        assert!(view.len() <= pages, "{} pieces for {len} bytes", view.len());
        let mut at = addr as usize;
        for piece in view {
            let want = self.bytes[m][at..][..piece.len()].to_vec();
            at += piece.len();
            self.held.push((piece, want));
        }
        assert_eq!(at, addr as usize + len, "a view covers its range");
    }

    /// Gathers `len` bytes at `src` and lands them at `dst`, as a packet
    /// does; `hold` keeps the payload, as an in-flight copy or a capture.
    fn deliver(&mut self, src: (usize, u64), len: usize, dst: (usize, u64), hold: bool) {
        let (payload, want) = self.gather(src.0, src.1, len);
        self.mems[dst.0].write_payload(dst.1, &payload);
        self.touch(dst.0, dst.1, len);
        self.bytes[dst.0][dst.1 as usize..][..len].copy_from_slice(&want);
        if hold {
            self.held.push((payload, want));
        }
    }

    /// Compares everything against the model, reading only pages the
    /// model holds resident so that checking touches nothing.
    fn check(&mut self, case: u64, step: usize) {
        for m in 0..2 {
            let resident = self.mems[m].resident_pages();
            assert_eq!(
                resident,
                self.resident[m].len(),
                "case {case} step {step} mem {m}"
            );
            for &n in &self.resident[m] {
                let at = (n * PAGE_SIZE) as usize..((n + 1) * PAGE_SIZE) as usize;
                let got = self.mems[m].read(at.start as u64, at.len());
                assert!(
                    got == self.bytes[m][at],
                    "case {case} step {step} mem {m} page {n}"
                );
            }
        }
        for (k, (payload, want)) in self.held.iter().enumerate() {
            let (head, tail) = payload.parts();
            assert!(
                [head, tail].concat() == *want,
                "case {case} step {step} snapshot {k}"
            );
        }
    }
}

/// Whole-page deliveries against a flat model of two memories: aligned
/// whole pages from the other memory, from another slot of the same one,
/// onto their own slot, onto a page a held snapshot shares and onto an
/// untouched page, interleaved with sub-page writes on both sides,
/// deliveries that must be copied (unaligned, short or straddling),
/// fills from one page (each followed by a sub-page write inside the
/// filled range, which must change only its own page) and views, with
/// snapshots, fill pages and views held across it all. After every step
/// both memories, every held payload and `resident_pages` match the
/// model.
#[test]
fn whole_page_adoption_matches_a_flat_model() {
    const PAGES: u64 = 12;
    let page = PAGE_SIZE as usize;
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xAD0 * 1000 + case);
        let mut twin = Twin {
            mems: [Memory::new(), Memory::new()],
            bytes: [
                vec![0; PAGES as usize * page],
                vec![0; PAGES as usize * page],
            ],
            resident: Default::default(),
            held: Vec::new(),
        };
        for step in 0..150 {
            let dst = rng.next_below(2) as usize;
            let other = 1 - dst;
            // Most traffic stays in the first 8 pages; the rest are left
            // for first touches.
            let pick = |rng: &mut SplitMix64| rng.next_below(8) * PAGE_SIZE;
            let (to, from) = (pick(&mut rng), pick(&mut rng));
            let hold = rng.next_below(4) == 0;
            match rng.next_below(12) {
                0 | 1 => {
                    let addr = rng.next_below((PAGES - 1) * PAGE_SIZE);
                    let len = rng.range(1, PAGE_SIZE / 2) as usize;
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    twin.write(dst, addr, &data);
                }
                2 => {
                    let data: Vec<u8> = (0..page).map(|_| rng.next_u64() as u8).collect();
                    twin.write(dst, to, &data);
                }
                3 => twin.deliver((other, from), page, (dst, to), hold),
                4 => {
                    let from = if from == to {
                        (from + PAGE_SIZE) % (8 * PAGE_SIZE)
                    } else {
                        from
                    };
                    twin.deliver((dst, from), page, (dst, to), hold);
                }
                5 => twin.deliver((dst, to), page, (dst, to), hold),
                6 => {
                    // A snapshot of part of the destination page shares it.
                    let off = rng.next_below(PAGE_SIZE);
                    let len = rng.range(1, PAGE_SIZE - off + 1) as usize;
                    let snapshot = twin.gather(dst, to + off, len);
                    twin.held.push(snapshot);
                    twin.deliver((other, from), page, (dst, to), hold);
                }
                7 => {
                    let fresh = (0..PAGES).find(|n| !twin.resident[dst].contains(n));
                    if let Some(n) = fresh {
                        let src = rng.next_below(2) as usize;
                        twin.deliver((src, from), page, (dst, n * PAGE_SIZE), hold);
                    }
                }
                8 => {
                    // Not an aligned whole page at both ends: copied.
                    let src = rng.next_below(2) as usize;
                    let (skew, short) = (rng.range(1, PAGE_SIZE), rng.range(1, PAGE_SIZE));
                    let (from, len, to) = match rng.next_below(4) {
                        0 => (from + skew, page, to),
                        1 => (from, short as usize, to),
                        2 => (from + skew, short as usize, to + skew / 2),
                        _ => (from, page, to + skew),
                    };
                    twin.deliver((src, from), len, (dst, to), hold);
                }
                9 => {
                    let addr = rng.next_below(8 * PAGE_SIZE);
                    let len = rng.next_below(4 * PAGE_SIZE) as usize;
                    twin.fill(dst, addr, len, &mut rng);
                    if len > 0 {
                        let at = addr + rng.next_below(len as u64);
                        let room = PAGE_SIZE - at % PAGE_SIZE;
                        let n = rng.range(1, room.min(64) + 1) as usize;
                        let data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                        twin.write(dst, at, &data);
                    }
                }
                10 => {
                    let addr = rng.next_below(8 * PAGE_SIZE);
                    let len = rng.next_below(4 * PAGE_SIZE) as usize;
                    twin.view(rng.next_below(2) as usize, addr, len);
                }
                _ => {
                    if !twin.held.is_empty() {
                        let k = rng.next_below(twin.held.len() as u64) as usize;
                        twin.held.swap_remove(k);
                    }
                }
            }
            twin.check(case, step);
        }
    }
}
