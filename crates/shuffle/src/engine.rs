//! The shuffle engine: map-output registration and READ-based block
//! fetching, SparkUCX style.
//!
//! Map tasks write their output blocks into a per-worker shuffle region
//! registered through UCP (ODP or pinned). Reduce tasks then fetch one
//! block from every map task with one-sided GETs (RDMA READ — the
//! operation Spark joins issue internally, §VII-B), spread across many
//! endpoints. With ODP enabled and many QPs faulting on the same shuffle
//! pages, this is precisely the packet-flood scenario of Fig. 13.

use std::cell::RefCell;
use std::rc::Rc;

use ibsim_event::{Engine, SimTime, SplitMix64};
use ibsim_ucp::{EpId, MemSlice, Ucp, UcpConfig};
use ibsim_verbs::{Cluster, HostId, MrDesc, Sim};

use crate::config::ShuffleConfig;

/// By when a job must have quiesced; the slowest Fig. 13 cell and
/// `calib13` grid point ends by 8 s.
const HORIZON: SimTime = SimTime::from_secs(60);

/// Outcome of one shuffle job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleReport {
    /// Wall-clock duration of the job.
    pub duration: SimTime,
    /// QPs created (the Fig. 13 "QPs" column).
    pub qps: usize,
    /// Successful block fetches.
    pub fetches: u64,
    /// Fetches that failed with a transport error
    /// (`IBV_WC_RETRY_EXC_ERR`); Fig. 13 omits such samples.
    pub failed_fetches: u64,
    /// Bytes fetched over the network.
    pub network_bytes: u64,
    /// Total packets on the fabric.
    pub packets: u64,
    /// True if every fetched block carried the expected bytes.
    pub data_ok: bool,
}

struct WorkerArea {
    host: HostId,
    /// Map-output region of this worker.
    out: MrDesc,
    /// Fetch staging region of this worker.
    stage: MrDesc,
}

struct JobState {
    remaining_reducers: usize,
    fetches: u64,
    failed: u64,
    network_bytes: u64,
    data_ok: bool,
    finished_at: SimTime,
}

/// Runs one shuffle job to completion and reports.
///
/// # Panics
///
/// Panics if the configuration has fewer than two workers or no tasks,
/// or if the job stalls: events still pending at 60 simulated seconds.
pub fn run_shuffle(cfg: &ShuffleConfig) -> ShuffleReport {
    assert!(cfg.workers >= 2, "shuffle needs at least two workers");
    assert!(cfg.map_tasks > 0 && cfg.reduce_tasks > 0, "need tasks");

    let mut eng = Engine::new();
    let mut cl = Cluster::new(cfg.seed);
    let ucp = Ucp::new(UcpConfig { odp: cfg.odp });

    // Workers and their shuffle regions.
    let out_bytes = cfg.map_tasks as u64 * cfg.reduce_tasks as u64 * cfg.block_bytes as u64;
    let mut areas = Vec::new();
    for w in 0..cfg.workers {
        let host = ucp.add_worker(&mut cl, &format!("worker{w}"), cfg.device.clone());
        let out = ucp.mem_map(&mut cl, host, out_bytes.max(4096));
        let stage = ucp.mem_map(&mut cl, host, out_bytes.max(4096));
        areas.push(WorkerArea { host, out, stage });
    }
    let areas = Rc::new(areas);

    // Endpoint mesh: `endpoints_per_pair` QP pairs per worker pair.
    let mut eps: Vec<Vec<Vec<EpId>>> = vec![vec![Vec::new(); cfg.workers]; cfg.workers];
    for i in 0..cfg.workers {
        for j in (i + 1)..cfg.workers {
            for _ in 0..cfg.endpoints_per_pair {
                let ep = ucp.connect(&mut eng, &mut cl, areas[i].host, areas[j].host);
                eps[i][j].push(ep);
                eps[j][i].push(ep);
            }
        }
    }
    let eps = Rc::new(eps);

    // Map phase: mapper m (on worker m % W) writes one block per reducer.
    // Writing touches the OS pages; with ODP the NIC mapping stays cold
    // until the first remote READ — the flood trigger.
    for m in 0..cfg.map_tasks {
        let w = m % cfg.workers;
        for r in 0..cfg.reduce_tasks {
            let off = block_offset(cfg, m, r);
            let data = block_payload(cfg, m, r);
            cl.mem_write(areas[w].host, areas[w].out.base + off, &data);
        }
    }

    let state = Rc::new(RefCell::new(JobState {
        remaining_reducers: cfg.reduce_tasks,
        fetches: 0,
        failed: 0,
        network_bytes: 0,
        data_ok: true,
        finished_at: SimTime::ZERO,
    }));

    // Reduce phase: reducer r (on worker r % W) fetches one block from
    // every mapper, `fetch_parallelism` at a time.
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5u64);
    for r in 0..cfg.reduce_tasks {
        let start = cfg.setup_compute
            + SimTime::from_ns(rng.next_below(cfg.fetch_stagger.as_ns().max(1) * 4));
        let cfg2 = cfg.clone();
        let ucp2 = ucp.clone();
        let areas2 = areas.clone();
        let eps2 = eps.clone();
        let state2 = state.clone();
        let jitter_seed = cfg.seed ^ (r as u64) << 8;
        eng.schedule_at(start, move |cl: &mut Cluster, eng| {
            let task = Rc::new(ReduceTask {
                cfg: cfg2,
                ucp: ucp2,
                areas: areas2,
                eps: eps2,
                state: state2,
                r,
                next_map: RefCell::new(0),
                inflight: RefCell::new(0),
                done: RefCell::new(false),
                rng: RefCell::new(SplitMix64::new(jitter_seed)),
            });
            ReduceTask::pump(&task, eng, cl);
        });
    }

    eng.run(&mut cl, HORIZON)
        .unwrap_or_else(|s| panic!("the shuffle {s}"));

    let s = state.borrow();
    assert_eq!(s.remaining_reducers, 0, "all reducers finished");
    ShuffleReport {
        duration: s.finished_at,
        qps: cfg.total_qps(),
        fetches: s.fetches,
        failed_fetches: s.failed,
        network_bytes: s.network_bytes,
        packets: cl.stats.total_packets,
        data_ok: s.data_ok,
    }
}

/// Byte offset of mapper `m`'s block for reducer `r` in the map-output
/// region. Blocks for consecutive reducers are adjacent, so one page
/// holds blocks destined to many different reducers — and therefore gets
/// READ by many different QPs, the packet-flood precondition.
fn block_offset(cfg: &ShuffleConfig, m: usize, r: usize) -> u64 {
    ((m / cfg.workers) * cfg.reduce_tasks + r) as u64 * cfg.block_bytes as u64
}

/// Byte offset where reducer `r` stages mapper `m`'s block. Interleaved
/// so blocks arriving for different co-located reducers share pages: the
/// requester-side mirror of the flood layout (Fig. 10).
fn stage_offset(cfg: &ShuffleConfig, m: usize, r: usize) -> u64 {
    (m * cfg.reduce_tasks.div_ceil(cfg.workers) + r / cfg.workers) as u64 * cfg.block_bytes as u64
}

/// Deterministic block contents for integrity checking.
fn block_payload(cfg: &ShuffleConfig, m: usize, r: usize) -> Vec<u8> {
    let tagbyte = ((m * 31 + r * 7) % 251) as u8;
    vec![tagbyte; cfg.block_bytes as usize]
}

struct ReduceTask {
    cfg: ShuffleConfig,
    ucp: Ucp,
    areas: Rc<Vec<WorkerArea>>,
    eps: Rc<Vec<Vec<Vec<EpId>>>>,
    state: Rc<RefCell<JobState>>,
    r: usize,
    next_map: RefCell<usize>,
    inflight: RefCell<u32>,
    done: RefCell<bool>,
    rng: RefCell<SplitMix64>,
}

impl ReduceTask {
    /// Issues fetches until the parallelism window is full; finishes the
    /// task when every block arrived.
    fn pump(task: &Rc<ReduceTask>, eng: &mut Sim, cl: &mut Cluster) {
        loop {
            let m = *task.next_map.borrow();
            if m >= task.cfg.map_tasks {
                if *task.inflight.borrow() == 0 && !*task.done.borrow() {
                    *task.done.borrow_mut() = true;
                    let mut s = task.state.borrow_mut();
                    s.remaining_reducers -= 1;
                    s.finished_at = s.finished_at.max(eng.now());
                }
                return;
            }
            if *task.inflight.borrow() >= task.cfg.fetch_parallelism as u32 {
                return;
            }
            *task.next_map.borrow_mut() += 1;
            task.fetch_block(eng, cl, m);
        }
    }

    fn fetch_block(self: &Rc<Self>, eng: &mut Sim, cl: &mut Cluster, m: usize) {
        let w_red = self.r % self.cfg.workers;
        let w_map = m % self.cfg.workers;
        let off = block_offset(&self.cfg, m, self.r);
        let dst_off = stage_offset(&self.cfg, m, self.r);
        if w_map == w_red {
            // Co-located block: a local memcpy, no network.
            let src = self.areas[w_map].out.base + off;
            let data = cl.mem_read(self.areas[w_map].host, src, self.cfg.block_bytes as usize);
            let dst = self.areas[w_red].stage.base + dst_off;
            cl.mem_write(self.areas[w_red].host, dst, &data);
            self.verify(cl, m, dst_off);
            let me = self.clone();
            // Re-enter the pump after the staggered compute.
            let delay = self.stagger_delay();
            eng.schedule_in(delay, move |cl: &mut Cluster, eng| {
                ReduceTask::pump(&me, eng, cl);
            });
            return;
        }
        *self.inflight.borrow_mut() += 1;
        let ep_set = &self.eps[w_red][w_map];
        let ep = ep_set[(self.r * 131 + m) % ep_set.len()];
        let dst = MemSlice {
            host: self.areas[w_red].host,
            mr: self.areas[w_red].stage.key,
            offset: dst_off,
            len: self.cfg.block_bytes,
        };
        let req = self.ucp.get(
            eng,
            cl,
            ep,
            self.areas[w_red].host,
            dst,
            self.areas[w_map].out.key,
            off,
            self.cfg.block_bytes,
        );
        let me = self.clone();
        self.ucp.when_done(eng, cl, req, move |eng, cl, c| {
            {
                let mut s = me.state.borrow_mut();
                if c.failed {
                    s.failed += 1;
                } else {
                    s.fetches += 1;
                    s.network_bytes += c.bytes as u64;
                }
            }
            if !c.failed {
                me.verify(cl, m, stage_offset(&me.cfg, m, me.r));
            }
            *me.inflight.borrow_mut() -= 1;
            let delay = me.stagger_delay();
            let me2 = me.clone();
            eng.schedule_in(delay, move |cl: &mut Cluster, eng| {
                ReduceTask::pump(&me2, eng, cl);
            });
        });
    }

    fn stagger_delay(&self) -> SimTime {
        let max = self.cfg.fetch_stagger.as_ns().max(1) * 2;
        SimTime::from_ns(self.rng.borrow_mut().next_below(max))
    }

    fn verify(&self, cl: &mut Cluster, m: usize, dst_off: u64) {
        let w_red = self.r % self.cfg.workers;
        let got = cl.mem_read(
            self.areas[w_red].host,
            self.areas[w_red].stage.base + dst_off,
            8.min(self.cfg.block_bytes as usize),
        );
        let want = block_payload(&self.cfg, m, self.r);
        if got != want[..got.len()] {
            self.state.borrow_mut().data_ok = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(odp: bool) -> ShuffleConfig {
        ShuffleConfig {
            workers: 2,
            odp,
            map_tasks: 4,
            reduce_tasks: 4,
            block_bytes: 1024,
            endpoints_per_pair: 4,
            fetch_parallelism: 2,
            fetch_stagger: SimTime::from_us(20),
            setup_compute: SimTime::from_us(100),
            ..Default::default()
        }
    }

    #[test]
    fn pinned_shuffle_moves_all_blocks_correctly() {
        let rep = run_shuffle(&tiny(false));
        // 4×4 blocks; half are remote (mapper parity vs reducer parity).
        assert_eq!(rep.fetches, 8);
        assert_eq!(rep.failed_fetches, 0);
        assert!(rep.data_ok);
        assert_eq!(rep.network_bytes, 8 * 1024);
        assert_eq!(rep.qps, 8, "1 pair x 4 endpoints x 2 ends");
        assert!(rep.duration > SimTime::from_us(100));
    }

    #[test]
    fn odp_shuffle_is_slower_but_correct() {
        let pinned = run_shuffle(&tiny(false));
        let odp = run_shuffle(&tiny(true));
        assert!(odp.data_ok);
        assert_eq!(odp.failed_fetches, 0);
        assert!(
            odp.duration > pinned.duration,
            "ODP adds fault overhead: {} vs {}",
            odp.duration,
            pinned.duration
        );
    }

    #[test]
    fn many_qps_with_odp_storms_versus_pinned() {
        // Flood needs many *distinct QPs* faulting on the same page: tiny
        // 128-byte blocks pack 32 blocks per page, 64 endpoints give each
        // fetch its own QP, and high parallelism makes the faults
        // simultaneous. Against the pinned baseline, ODP multiplies the
        // packet count (retransmission storms) and stretches the job.
        let mut cfg = tiny(true);
        cfg.endpoints_per_pair = 64;
        cfg.map_tasks = 24;
        cfg.reduce_tasks = 24;
        cfg.block_bytes = 128;
        cfg.fetch_parallelism = 24;
        cfg.fetch_stagger = SimTime::from_ns(500);
        let odp = run_shuffle(&cfg);
        let mut pinned_cfg = cfg.clone();
        pinned_cfg.odp = false;
        let pinned = run_shuffle(&pinned_cfg);
        assert!(odp.data_ok && pinned.data_ok);
        assert_eq!(odp.fetches, pinned.fetches);
        assert!(
            odp.packets > pinned.packets * 2,
            "ODP storms: {} vs {} packets",
            odp.packets,
            pinned.packets
        );
        assert!(
            odp.duration * 2 > pinned.duration * 3,
            "ODP stretches the job: {} vs {}",
            odp.duration,
            pinned.duration
        );
    }
}
