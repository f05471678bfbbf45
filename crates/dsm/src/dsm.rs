//! The DSM implementation: a home-node, page-granular software
//! distributed shared memory in the style of ArgoDSM \[22\].
//!
//! Global memory is block-partitioned across nodes; each partition is
//! registered with the NIC through the UCP layer (ODP or pinned per the
//! configuration, exactly the toggle §VII-A flips). Remote reads GET whole
//! pages into a local cache; writes are written through to the home node;
//! lock release self-invalidates the cache, giving the usual
//! data-race-free semantics of home-based DSMs.
//!
//! `init`/`finalize` reproduce the Fig. 12 benchmark: node-local setup
//! compute, directory metadata exchange (first touches → page faults),
//! and a global-lock acquisition whose READ-then-SEND pattern is the
//! packet-damming trigger the paper captured on KNL.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use ibsim_event::{SimTime, SplitMix64};
use ibsim_ucp::{EpId, MemSlice, Tag, Ucp, UcpConfig};
use ibsim_verbs::{Cluster, HostId, MrDesc, Sim, PAGE_SIZE};

use crate::config::DsmConfig;

/// Tag kinds for DSM control messages.
mod tag_kind {
    pub const ARRIVE: u64 = 1;
    pub const GO: u64 = 2;
    pub const LOCK_NOTE: u64 = 3;
    pub const LOCK_REQ: u64 = 4;
    pub const LOCK_GRANT: u64 = 5;
    pub const LOCK_RELEASE: u64 = 6;
}

fn tag(kind: u64, seq: u64, node: usize) -> Tag {
    Tag((kind << 48) | (seq << 16) | node as u64)
}

/// A completion to hand to `n` operations: its `n`-th call runs `then`.
fn countdown(
    n: usize,
    then: impl FnOnce(&mut Sim, &mut Cluster) + 'static,
) -> impl Fn(&mut Sim, &mut Cluster) + Clone + 'static {
    let state = Rc::new(RefCell::new((n, Some(then))));
    move |eng, cl| {
        let then = {
            let mut s = state.borrow_mut();
            s.0 -= 1;
            if s.0 == 0 {
                s.1.take()
            } else {
                None
            }
        };
        if let Some(then) = then {
            then(eng, cl);
        }
    }
}

/// Cumulative DSM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Reads served from the local partition.
    pub local_reads: u64,
    /// Reads served from the page cache.
    pub cache_hits: u64,
    /// Reads that fetched a page from a remote home.
    pub remote_reads: u64,
    /// Writes applied to the local partition.
    pub local_writes: u64,
    /// Writes written through to a remote home.
    pub remote_writes: u64,
    /// Global lock acquisitions.
    pub lock_acquisitions: u64,
    /// Cache pages discarded by release-time self-invalidation.
    pub self_invalidations: u64,
}

#[derive(Debug)]
struct Node {
    host: HostId,
    /// This node's slice of global memory.
    partition: MrDesc,
    /// Page cache for remote pages (one slot per global page).
    cache: MrDesc,
    /// Pinned scratch for control payloads.
    scratch: MrDesc,
    /// Endpoint to each peer (`None` on the diagonal).
    eps: Vec<Option<EpId>>,
}

struct Inner {
    cfg: DsmConfig,
    nodes: Vec<Node>,
    rng: SplitMix64,
    seq: u64,
    /// Pages currently valid in each node's cache.
    cache_valid: BTreeSet<(usize, u64)>,
    /// App-level global lock state (served by node 0).
    lock_held: bool,
    lock_queue: VecDeque<usize>,
    stats: DsmStats,
}

impl Inner {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn scratch_slice(&self, node: usize, offset: u64, len: u32) -> MemSlice {
        let s = &self.nodes[node].scratch;
        MemSlice {
            host: s.host,
            mr: s.key,
            offset,
            len,
        }
    }

    fn ep(&self, from: usize, to: usize) -> EpId {
        self.nodes[from].eps[to].expect("invariant: no self endpoints (from != to)")
    }
}

/// A distributed shared memory instance spanning `cfg.nodes` hosts.
///
/// Cheap to clone (shared handle), like [`Ucp`].
#[derive(Clone)]
pub struct Dsm {
    inner: Rc<RefCell<Inner>>,
    /// The underlying UCP layer (exposed for inspection in tests).
    pub ucp: Ucp,
}

impl std::fmt::Debug for Dsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Dsm")
            .field("nodes", &inner.nodes.len())
            .field("memory", &inner.cfg.memory)
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Dsm {
    /// Builds the DSM: workers, endpoints, partitions and caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes < 2` (a single node needs no DSM) or the
    /// per-node partition is smaller than the control area the directory
    /// exchange needs.
    pub fn build(eng: &mut Sim, cl: &mut Cluster, cfg: DsmConfig) -> Dsm {
        assert!(cfg.nodes >= 2, "a DSM needs at least two nodes");
        assert!(
            cfg.partition_size() >= (2 + cfg.nodes as u64) * PAGE_SIZE,
            "partition too small for the control area"
        );
        let ucp = Ucp::new(UcpConfig { odp: cfg.odp });
        let mut nodes = Vec::new();
        for i in 0..cfg.nodes {
            let host = ucp.add_worker(cl, &format!("dsm{i}"), cfg.device.clone());
            let partition = ucp.mem_map(cl, host, cfg.partition_size());
            let cache = ucp.mem_map(cl, host, cfg.memory);
            let scratch = cl.alloc_mr(host, PAGE_SIZE, ibsim_verbs::MrMode::Pinned);
            nodes.push(Node {
                host,
                partition,
                cache,
                scratch,
                eps: vec![None; cfg.nodes],
            });
        }
        for i in 0..cfg.nodes {
            for j in (i + 1)..cfg.nodes {
                let ep = ucp.connect(eng, cl, nodes[i].host, nodes[j].host);
                nodes[i].eps[j] = Some(ep);
                nodes[j].eps[i] = Some(ep);
            }
        }
        let rng = SplitMix64::new(cfg.seed);
        Dsm {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                nodes,
                rng,
                seq: 0,
                cache_valid: BTreeSet::new(),
                lock_held: false,
                lock_queue: VecDeque::new(),
                stats: DsmStats::default(),
            })),
            ucp,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// The host backing a node.
    pub fn host(&self, node: usize) -> HostId {
        self.inner.borrow().nodes[node].host
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DsmStats {
        self.inner.borrow().stats
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Global barrier: `cb` runs once every node has passed it.
    pub fn barrier(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        cb: impl FnOnce(&mut Sim, &mut Cluster) + 'static,
    ) {
        let (n, seq) = {
            let mut inner = self.inner.borrow_mut();
            (inner.nodes.len(), inner.next_seq())
        };
        let done = countdown(n, cb);
        // Coordinator collects ARRIVE from everyone else, then GOes them.
        let all_arrived = {
            let (dsm, done) = (self.clone(), done.clone());
            countdown(n - 1, move |eng, cl| {
                for j in 1..n {
                    let (ep, src) = {
                        let inner = dsm.inner.borrow();
                        (inner.ep(0, j), inner.scratch_slice(0, 0, 8))
                    };
                    let host0 = dsm.host(0);
                    dsm.ucp
                        .tag_send(eng, cl, ep, host0, tag(tag_kind::GO, seq, j), src);
                }
                done(eng, cl);
            })
        };
        for i in 1..n {
            let (ep, arrive_src, go_dst, coord_dst) = {
                let inner = self.inner.borrow();
                (
                    inner.ep(i, 0),
                    inner.scratch_slice(i, 0, 8),
                    inner.scratch_slice(i, 8, 8),
                    inner.scratch_slice(0, (i as u64) * 16, 8),
                )
            };
            // Node i: ARRIVE → coordinator; GO ← coordinator completes i.
            let host_i = self.host(i);
            self.ucp.tag_send(
                eng,
                cl,
                ep,
                host_i,
                tag(tag_kind::ARRIVE, seq, i),
                arrive_src,
            );
            let greq = self
                .ucp
                .tag_recv(eng, cl, host_i, tag(tag_kind::GO, seq, i), go_dst);
            let done_i = done.clone();
            self.ucp
                .when_done(eng, cl, greq, move |eng, cl, _| done_i(eng, cl));

            // Coordinator: recv ARRIVE(i); when all arrived, broadcast GO.
            let host0 = self.host(0);
            let areq = self
                .ucp
                .tag_recv(eng, cl, host0, tag(tag_kind::ARRIVE, seq, i), coord_dst);
            let arrived = all_arrived.clone();
            self.ucp
                .when_done(eng, cl, areq, move |eng, cl, _| arrived(eng, cl));
        }
    }

    // ------------------------------------------------------------------
    // init / finalize (the Fig. 12 benchmark)
    // ------------------------------------------------------------------

    /// The `argo::init()` equivalent: per-node local setup compute,
    /// directory metadata exchange (first touches on every partition),
    /// then a global-lock acquisition per non-home node — the READ+SEND
    /// pair §VII-A identified as the damming trigger. `cb` receives the
    /// time initialization finished.
    pub fn init(
        &self,
        eng: &mut Sim,
        _cl: &mut Cluster,
        cb: impl FnOnce(&mut Sim, &mut Cluster, SimTime) + 'static,
    ) {
        let n = self.node_count();
        let dsm = self.clone();
        // Phase 3 (after the per-node work): a closing barrier.
        let node_done = countdown(n, move |eng, cl| {
            dsm.barrier(eng, cl, move |eng, cl| {
                let now = eng.now();
                cb(eng, cl, now);
            });
        });

        for i in 0..n {
            let (start, gap) = {
                let mut inner = self.inner.borrow_mut();
                let base = inner.cfg.compute_base.as_ns();
                let jit = inner.cfg.compute_jitter.as_ns().max(1);
                let gapmax = inner.cfg.lock_gap_max.as_ns().max(1);
                (
                    SimTime::from_ns(base + inner.rng.next_below(jit)),
                    SimTime::from_ns(inner.rng.next_below(gapmax)),
                )
            };
            let dsm = self.clone();
            let node_done = node_done.clone();
            eng.schedule_at(start, move |cl: &mut Cluster, eng| {
                dsm.init_node(eng, cl, i, gap, node_done);
            });
        }
    }

    /// One node's share of initialization.
    fn init_node(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        i: usize,
        lock_gap: SimTime,
        done: impl FnOnce(&mut Sim, &mut Cluster) + 'static,
    ) {
        let n = self.node_count();
        // Directory metadata: 64 bytes into a node-specific page of every
        // peer's partition — the "abundant first touches and page faults"
        // of §VII-A.
        let mut put_reqs = Vec::new();
        for j in 0..n {
            if j == i {
                continue;
            }
            let (ep, src, dst_key) = {
                let inner = self.inner.borrow();
                (
                    inner.ep(i, j),
                    inner.scratch_slice(i, 64, 64),
                    inner.nodes[j].partition.key,
                )
            };
            let host_i = self.host(i);
            let dst_off = PAGE_SIZE * (2 + i as u64);
            put_reqs.push(self.ucp.put(eng, cl, ep, host_i, src, dst_key, dst_off, 64));
        }
        let dsm = self.clone();
        let puts_done = countdown(put_reqs.len(), move |eng, cl| {
            dsm.init_lock_phase(eng, cl, i, lock_gap, done);
        });
        for r in put_reqs {
            let put_done = puts_done.clone();
            self.ucp
                .when_done(eng, cl, r, move |eng, cl, _| put_done(eng, cl));
        }
    }

    /// The global-lock acquisition during init. Non-home nodes READ the
    /// lock word on node 0 and — after a scheduler-noise gap — SEND the
    /// ownership notification *without waiting for the READ* (the
    /// pipelined MPI pattern the paper captured). When the gap falls
    /// inside the fault-recovery window of the READ's page fault, the
    /// SEND is dammed and only the ~2 s transport timeout recovers it.
    fn init_lock_phase(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        i: usize,
        gap: SimTime,
        done: impl FnOnce(&mut Sim, &mut Cluster) + 'static,
    ) {
        if i == 0 {
            // The home of the lock word touches it locally.
            done(eng, cl);
            return;
        }
        let (ep, cache_slice, lock_key, note_src, seq) = {
            let mut inner = self.inner.borrow_mut();
            let seq = inner.next_seq();
            let c = &inner.nodes[i].cache;
            (
                inner.ep(i, 0),
                MemSlice {
                    host: c.host,
                    mr: c.key,
                    offset: 0,
                    len: 8,
                },
                inner.nodes[0].partition.key,
                inner.scratch_slice(i, 128, 8),
                seq,
            )
        };
        let host_i = self.host(i);
        let host0 = self.host(0);
        // Node 0 expects the ownership note.
        let note_dst = {
            let inner = self.inner.borrow();
            inner.scratch_slice(0, 256 + (i as u64) * 8, 8)
        };
        let note_recv =
            self.ucp
                .tag_recv(eng, cl, host0, tag(tag_kind::LOCK_NOTE, seq, i), note_dst);

        // READ the lock word (faults on node 0's cold page 0)...
        let read_req = self
            .ucp
            .get(eng, cl, ep, host_i, cache_slice, lock_key, 0, 8);
        // ...and SEND the note after the scheduler-noise gap, pipelined.
        let ucp = self.ucp.clone();
        eng.schedule_in(gap, move |c: &mut Cluster, eng| {
            ucp.tag_send(
                eng,
                c,
                ep,
                host_i,
                tag(tag_kind::LOCK_NOTE, seq, i),
                note_src,
            );
        });

        // The node is done when both its READ and node 0's note arrival
        // completed (the send completion is implied by the recv).
        let both_done = countdown(2, done);
        for r in [read_req, note_recv] {
            let one_done = both_done.clone();
            self.ucp
                .when_done(eng, cl, r, move |eng, cl, _| one_done(eng, cl));
        }
    }

    /// The `argo::finalize()` equivalent: a closing barrier.
    pub fn finalize(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        cb: impl FnOnce(&mut Sim, &mut Cluster, SimTime) + 'static,
    ) {
        self.barrier(eng, cl, move |eng, cl| {
            let now = eng.now();
            cb(eng, cl, now);
        });
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Reads `len` bytes at global address `addr` from `node`, fetching
    /// the containing page into the cache if needed. `cb` receives the
    /// bytes.
    pub fn read(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        node: usize,
        addr: u64,
        len: u32,
        cb: impl FnOnce(&mut Sim, &mut Cluster, Vec<u8>) + 'static,
    ) {
        let (home, off) = {
            let inner = self.inner.borrow();
            (inner.cfg.home_of(addr), inner.cfg.offset_in_home(addr))
        };
        if home == node {
            let mut inner = self.inner.borrow_mut();
            inner.stats.local_reads += 1;
            let base = inner.nodes[node].partition.base;
            drop(inner);
            let data = cl.mem_read(self.host(node), base + off, len as usize);
            cb(eng, cl, data);
            return;
        }
        let page = addr & !(PAGE_SIZE - 1);
        let cached = self.inner.borrow().cache_valid.contains(&(node, page));
        if cached {
            let mut inner = self.inner.borrow_mut();
            inner.stats.cache_hits += 1;
            let base = inner.nodes[node].cache.base;
            drop(inner);
            let data = cl.mem_read(self.host(node), base + addr, len as usize);
            cb(eng, cl, data);
            return;
        }
        // Fetch the whole page from home into the cache (ArgoDSM-style).
        let (ep, cache_key, home_key, page_off_in_home) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.remote_reads += 1;
            (
                inner.ep(node, home),
                inner.nodes[node].cache.key,
                inner.nodes[home].partition.key,
                inner.cfg.offset_in_home(page),
            )
        };
        let host = self.host(node);
        let dst = MemSlice {
            host,
            mr: cache_key,
            offset: page,
            len: PAGE_SIZE as u32,
        };
        let req = self.ucp.get(
            eng,
            cl,
            ep,
            host,
            dst,
            home_key,
            page_off_in_home,
            PAGE_SIZE as u32,
        );
        let dsm = self.clone();
        self.ucp.when_done(eng, cl, req, move |eng, cl, c| {
            assert!(!c.failed, "DSM page fetch failed");
            let base = {
                let mut inner = dsm.inner.borrow_mut();
                inner.cache_valid.insert((node, page));
                inner.nodes[node].cache.base
            };
            let data = cl.mem_read(dsm.host(node), base + addr, len as usize);
            cb(eng, cl, data);
        });
    }

    /// Writes `data` at global address `addr` from `node`, writing through
    /// to the home partition. `cb` runs when the write is globally visible.
    pub fn write(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        node: usize,
        addr: u64,
        data: Vec<u8>,
        cb: impl FnOnce(&mut Sim, &mut Cluster) + 'static,
    ) {
        let (home, off) = {
            let inner = self.inner.borrow();
            (inner.cfg.home_of(addr), inner.cfg.offset_in_home(addr))
        };
        // Keep a valid cached copy coherent with the write-through.
        let page = addr & !(PAGE_SIZE - 1);
        {
            let inner = self.inner.borrow();
            if inner.cache_valid.contains(&(node, page)) {
                let base = inner.nodes[node].cache.base;
                let host = inner.nodes[node].host;
                drop(inner);
                cl.mem_write(host, base + addr, &data);
            }
        }
        if home == node {
            let mut inner = self.inner.borrow_mut();
            inner.stats.local_writes += 1;
            let base = inner.nodes[node].partition.base;
            let host = inner.nodes[node].host;
            drop(inner);
            cl.mem_write(host, base + off, &data);
            cb(eng, cl);
            return;
        }
        let (ep, stage, home_key) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.remote_writes += 1;
            // Stage the bytes in the cache region so the PUT has a
            // registered source.
            let c = &inner.nodes[node].cache;
            (
                inner.ep(node, home),
                MemSlice {
                    host: c.host,
                    mr: c.key,
                    offset: addr,
                    len: data.len() as u32,
                },
                inner.nodes[home].partition.key,
            )
        };
        let host = self.host(node);
        let cache_base = self.inner.borrow().nodes[node].cache.base;
        cl.mem_write(host, cache_base + addr, &data);
        let req = self
            .ucp
            .put(eng, cl, ep, host, stage, home_key, off, data.len() as u32);
        self.ucp.when_done(eng, cl, req, move |eng, cl, c| {
            assert!(!c.failed, "DSM write-through failed");
            cb(eng, cl);
        });
    }

    // ------------------------------------------------------------------
    // Global lock (app-level; served by node 0)
    // ------------------------------------------------------------------

    /// Starts the lock service on node 0. Call once before using
    /// [`Dsm::acquire`].
    pub fn start_lock_service(&self, eng: &mut Sim, cl: &mut Cluster) {
        let n = self.node_count();
        for i in 1..n {
            self.serve_lock_from(eng, cl, i);
        }
    }

    fn serve_lock_from(&self, eng: &mut Sim, cl: &mut Cluster, i: usize) {
        let host0 = self.host(0);
        let dst = {
            let inner = self.inner.borrow();
            inner.scratch_slice(0, 512 + (i as u64) * 16, 8)
        };
        let req = self
            .ucp
            .tag_recv(eng, cl, host0, tag(tag_kind::LOCK_REQ, 0, i), dst);
        let dsm = self.clone();
        self.ucp.when_done(eng, cl, req, move |eng, cl, _| {
            dsm.lock_request_arrived(eng, cl, i);
            dsm.serve_lock_from(eng, cl, i); // keep serving
        });
        // Also serve releases.
        let dst2 = {
            let inner = self.inner.borrow();
            inner.scratch_slice(0, 1024 + (i as u64) * 16, 8)
        };
        let rel = self
            .ucp
            .tag_recv(eng, cl, host0, tag(tag_kind::LOCK_RELEASE, 0, i), dst2);
        let dsm2 = self.clone();
        self.ucp.when_done(eng, cl, rel, move |eng, cl, _| {
            dsm2.lock_released(eng, cl);
        });
    }

    fn lock_request_arrived(&self, eng: &mut Sim, cl: &mut Cluster, i: usize) {
        let grant_now = {
            let mut inner = self.inner.borrow_mut();
            if inner.lock_held {
                inner.lock_queue.push_back(i);
                false
            } else {
                inner.lock_held = true;
                true
            }
        };
        if grant_now {
            self.send_grant(eng, cl, i);
        }
    }

    fn lock_released(&self, eng: &mut Sim, cl: &mut Cluster) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            match inner.lock_queue.pop_front() {
                Some(n) => Some(n),
                None => {
                    inner.lock_held = false;
                    None
                }
            }
        };
        if let Some(n) = next {
            self.send_grant(eng, cl, n);
        }
    }

    fn send_grant(&self, eng: &mut Sim, cl: &mut Cluster, to: usize) {
        let (ep, src) = {
            let inner = self.inner.borrow();
            (inner.ep(0, to), inner.scratch_slice(0, 16, 8))
        };
        let host0 = self.host(0);
        self.ucp
            .tag_send(eng, cl, ep, host0, tag(tag_kind::LOCK_GRANT, 0, to), src);
    }

    /// Acquires the global lock from `node` (must not be node 0, which
    /// owns the lock and would use local state). `cb` runs when granted.
    ///
    /// # Panics
    ///
    /// Panics if called from node 0.
    pub fn acquire(
        &self,
        eng: &mut Sim,
        cl: &mut Cluster,
        node: usize,
        cb: impl FnOnce(&mut Sim, &mut Cluster) + 'static,
    ) {
        assert_ne!(node, 0, "node 0 serves the lock; acquire from others");
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.lock_acquisitions += 1;
        }
        let host = self.host(node);
        let (ep, req_src, grant_dst) = {
            let inner = self.inner.borrow();
            (
                inner.ep(node, 0),
                inner.scratch_slice(node, 192, 8),
                inner.scratch_slice(node, 200, 8),
            )
        };
        let grant = self
            .ucp
            .tag_recv(eng, cl, host, tag(tag_kind::LOCK_GRANT, 0, node), grant_dst);
        self.ucp
            .tag_send(eng, cl, ep, host, tag(tag_kind::LOCK_REQ, 0, node), req_src);
        self.ucp
            .when_done(eng, cl, grant, move |eng, cl, _| cb(eng, cl));
    }

    /// Drops every page cached by `node` (the self-invalidation half of a
    /// release, usable by synchronization schemes other than the global
    /// lock, e.g. barrier-based phases).
    pub fn release_cache(&self, node: usize) {
        let mut inner = self.inner.borrow_mut();
        let before = inner.cache_valid.len();
        inner.cache_valid.retain(|&(n, _)| n != node);
        let dropped = (before - inner.cache_valid.len()) as u64;
        inner.stats.self_invalidations += dropped;
    }

    /// Releases the global lock from `node`, self-invalidating the node's
    /// page cache (the ArgoDSM coherence action).
    pub fn release(&self, eng: &mut Sim, cl: &mut Cluster, node: usize) {
        {
            let mut inner = self.inner.borrow_mut();
            let before = inner.cache_valid.len();
            inner.cache_valid.retain(|&(n, _)| n != node);
            let dropped = (before - inner.cache_valid.len()) as u64;
            inner.stats.self_invalidations += dropped;
        }
        let host = self.host(node);
        let (ep, src) = {
            let inner = self.inner.borrow();
            (inner.ep(node, 0), inner.scratch_slice(node, 208, 8))
        };
        self.ucp
            .tag_send(eng, cl, ep, host, tag(tag_kind::LOCK_RELEASE, 0, node), src);
    }
}
