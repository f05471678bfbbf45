//! `stream`: the fast path on a routed fabric.
//!
//! Eight hosts on `FatTree{k:4}`, 16 QPs ("lanes") paired **across
//! leaves** — hosts attach to leaves round-robin, so lane `j` runs from
//! host `j % 8` to host `(j % 8) + 1`, never to `+4`, which would share
//! its leaf. Pinned memory, no loss. Each lane posts a seeded mix of
//! 50 % READ / 30 % WRITE / 20 % SEND (with its `post_recv`) over sizes
//! {64, 256, 1024, 4096, 16384} B. A lane's poster is one engine event
//! that re-schedules itself, so the heap stays O(lanes) deep however
//! long the pass is.
//!
//! Why it is here: the same layers as `flood`, used differently — writes
//! and sends beside reads, multi-packet segmentation, timers armed and
//! cancelled but never fired, no fault, no recovery. Engine dispatch,
//! routed `transit` and payload copies dominate; `RecoveryPolicy`, the
//! driver and ODP do nothing, so an optimisation of those must not move
//! this workload.

use std::cell::RefCell;
use std::rc::Rc;

use ibsim_event::{SimTime, SplitMix64};
use ibsim_fabric::{LinkSpec, TopologyKind};
use ibsim_verbs::{
    Cluster, ClusterBuilder, DeviceProfile, HostId, MrDesc, MrMode, QpConfig, Qpn, ReadWr, RecvWr,
    SendWr, Sim, WcOpcode, WrId, WriteWr,
};

use super::{
    derive_seed, engine_pass, engine_setup_once, engine_trace, EngineOut, EngineTrace,
    EngineWorkload, Knobs, PassOut, TraceOut, Verdict, Workload,
};
use crate::replay::FabricShape;
use crate::trace::{clocked, timed, CallClock, Tracer};

const HOSTS: usize = 8;
const LANES: usize = 16;
const SIZES: [u32; 5] = [64, 256, 1024, 4096, 16384];
const MAX_SIZE: u64 = 16384;
/// A lane polls its host's completion queue every this many posts, so
/// the queue never holds more than a few hundred entries.
const POLL_EVERY: u32 = 32;

/// The workload; see the module docs.
pub struct Stream {
    cluster_seed: u64,
    mix_seed: u64,
    ops_per_lane: u32,
}

/// One QP pair and its five 16 KiB regions.
struct Lane {
    a: HostId,
    b: HostId,
    qa: Qpn,
    qb: Qpn,
    /// Source of WRITEs and SENDs (at `a`).
    src_a: MrDesc,
    /// Target of READs (at `a`).
    dst_a: MrDesc,
    /// Source of READs (at `b`).
    src_b: MrDesc,
    /// Target of WRITEs (at `b`).
    dst_b: MrDesc,
    /// Receive buffer of SENDs (at `b`).
    rcv_b: MrDesc,
}

#[derive(Default)]
struct Tally {
    posted: u64,
    sends: u64,
    requester_ok: u64,
    recv_ok: u64,
    bad: u64,
    last_at: SimTime,
    /// Largest READ / WRITE / SEND posted per lane: how much of each
    /// target region the final read-back must find filled.
    max_read: [u32; LANES],
    max_write: [u32; LANES],
    max_send: [u32; LANES],
}

/// State every poster shares.
pub struct Shared {
    lanes: Vec<Lane>,
    tally: RefCell<Tally>,
    post_clock: Option<CallClock>,
    poll_clock: Option<CallClock>,
}

/// One lane's self-rescheduling poster.
struct Poster {
    lane: usize,
    rng: SplitMix64,
    remaining: u32,
    seq: u32,
    shared: Rc<Shared>,
}

/// The bytes a region of pattern `salt` holds.
fn pattern(salt: usize) -> Vec<u8> {
    (0..MAX_SIZE as usize)
        .map(|i| ((i * 7 + salt * 13) % 251) as u8)
        .collect()
}

/// A work-request id that carries its own expected byte count.
fn wr_id(lane: usize, seq: u32, size: u32) -> WrId {
    WrId(u64::from(size) << 40 | (lane as u64) << 32 | u64::from(seq))
}

fn expected_bytes(id: WrId) -> u32 {
    (id.0 >> 40) as u32
}

/// Drains `host`'s completion queue into the tally, timing the poll on
/// `clock` when there is one.
fn drain(shared: &Shared, c: &mut Cluster, host: HostId, clock: Option<&CallClock>) {
    let comps = clocked(clock, || c.poll_cq(host));
    let mut t = shared.tally.borrow_mut();
    for comp in comps {
        if comp.status.is_success() && comp.bytes == expected_bytes(comp.wr_id) {
            if comp.opcode == WcOpcode::Recv {
                t.recv_ok += 1;
            } else {
                t.requester_ok += 1;
            }
            t.last_at = t.last_at.max(comp.at);
        } else {
            t.bad += 1;
        }
    }
}

fn tick(mut p: Poster, c: &mut Cluster, eng: &mut Sim) {
    let shared = Rc::clone(&p.shared);
    let lane = &shared.lanes[p.lane];
    let kind = p.rng.next_below(10);
    let size = SIZES[p.rng.next_below(SIZES.len() as u64) as usize];
    let id = wr_id(p.lane, p.seq, size);
    {
        let mut t = shared.tally.borrow_mut();
        t.posted += 1;
        let slot = match kind {
            0..=4 => &mut t.max_read[p.lane],
            5..=7 => &mut t.max_write[p.lane],
            _ => {
                t.sends += 1;
                &mut t.max_send[p.lane]
            }
        };
        *slot = (*slot).max(size);
    }
    let clock = shared.post_clock.as_ref();
    match kind {
        0..=4 => {
            let wr = ReadWr::new(lane.dst_a, lane.src_b).len(size).id(id);
            clocked(clock, || c.post(eng, lane.a, lane.qa, wr));
        }
        5..=7 => {
            let wr = WriteWr::new(lane.src_a, lane.dst_b).len(size).id(id);
            clocked(clock, || c.post(eng, lane.a, lane.qa, wr));
        }
        _ => {
            c.post_recv(
                lane.b,
                lane.qb,
                RecvWr {
                    id,
                    mr: lane.rcv_b.key,
                    offset: 0,
                    max_len: MAX_SIZE as u32,
                },
            );
            let wr = SendWr::new(lane.src_a).len(size).id(id);
            clocked(clock, || c.post(eng, lane.a, lane.qa, wr));
        }
    }
    p.seq += 1;
    p.remaining -= 1;
    if p.seq.is_multiple_of(POLL_EVERY) {
        drain(&shared, c, lane.a, shared.poll_clock.as_ref());
    }
    if p.remaining > 0 {
        // Post overhead plus a size-proportional gap keeps every link
        // under half load: queues stay short and no timer ever fires.
        let gap = SimTime::from_ns(500 + u64::from(size) / 2);
        eng.schedule_in(gap, move |c: &mut Cluster, eng| tick(p, c, eng));
    }
}

impl Stream {
    /// The full mix (quick: a fiftieth of it).
    pub fn new(seed: u64, quick: bool) -> Stream {
        Stream {
            cluster_seed: derive_seed(seed, 2),
            mix_seed: derive_seed(seed, 3),
            ops_per_lane: if quick { 1_000 } else { 32_000 },
        }
    }
}

impl EngineWorkload for Stream {
    type Handles = Rc<Shared>;

    fn build(&self, tr: &mut Option<Tracer>, knobs: Knobs) -> (Sim, Cluster, Rc<Shared>) {
        let (mut eng, mut cl, _) = ClusterBuilder::new()
            .seed(self.cluster_seed)
            .topology(TopologyKind::FatTree { k: 4 })
            .telemetry(knobs.telemetry)
            .build();
        let device = DeviceProfile::connectx4(LinkSpec::fdr());
        let hosts: Vec<HostId> = (0..HOSTS)
            .map(|h| {
                timed(tr, "verbs.add_host", || {
                    cl.add_host(&format!("h{h}"), device.clone())
                })
            })
            .collect();
        if knobs.capture {
            cl.capture_enable(hosts[0]);
        }
        let mut pinned = |cl: &mut Cluster, host: HostId| {
            timed(tr, "verbs.alloc_mr", || {
                cl.alloc_mr(host, MAX_SIZE, MrMode::Pinned)
            })
        };
        let mut lanes = Vec::with_capacity(LANES);
        for j in 0..LANES {
            let (a, b) = (hosts[j % HOSTS], hosts[(j % HOSTS + 1) % HOSTS]);
            let src_a = pinned(&mut cl, a);
            let dst_a = pinned(&mut cl, a);
            let src_b = pinned(&mut cl, b);
            let dst_b = pinned(&mut cl, b);
            let rcv_b = pinned(&mut cl, b);
            cl.mem_write(a, src_a.base, &pattern(2 * j));
            cl.mem_write(b, src_b.base, &pattern(2 * j + 1));
            lanes.push((a, b, src_a, dst_a, src_b, dst_b, rcv_b));
        }
        let lanes: Vec<Lane> = lanes
            .into_iter()
            .map(|(a, b, src_a, dst_a, src_b, dst_b, rcv_b)| {
                let (qa, qb) = timed(tr, "verbs.connect_pair", || {
                    cl.connect_pair(&mut eng, a, b, QpConfig::default())
                });
                Lane {
                    a,
                    b,
                    qa,
                    qb,
                    src_a,
                    dst_a,
                    src_b,
                    dst_b,
                    rcv_b,
                }
            })
            .collect();
        let shared = Rc::new(Shared {
            lanes,
            tally: RefCell::new(Tally::default()),
            post_clock: tr.is_some().then(CallClock::default),
            poll_clock: tr.is_some().then(CallClock::default),
        });
        for lane in 0..LANES {
            let poster = Poster {
                lane,
                rng: SplitMix64::new(self.mix_seed ^ (lane as u64) << 32),
                remaining: self.ops_per_lane,
                seq: 0,
                shared: Rc::clone(&shared),
            };
            // Lanes start 31 ns apart so they never tick in lock-step.
            eng.schedule_at(
                SimTime::from_ns(31 * lane as u64),
                move |c: &mut Cluster, eng| tick(poster, c, eng),
            );
        }
        (eng, cl, shared)
    }

    fn flush_clocks(&self, tracer: &mut Tracer, shared: &Rc<Shared>) {
        if let Some(clock) = &shared.post_clock {
            clock.flush(tracer, "verbs.post");
        }
        if let Some(clock) = &shared.poll_clock {
            clock.flush(tracer, "verbs.poll_cq");
        }
    }

    fn verify(&self, tr: &mut Option<Tracer>, cl: &mut Cluster, shared: Rc<Shared>) -> Verdict {
        for h in 0..HOSTS {
            timed(tr, "verbs.poll_cq", || drain(&shared, cl, HostId(h), None));
        }
        let t = shared.tally.borrow();
        let mut v = Verdict {
            attempted: t.posted,
            failed: t.posted.saturating_sub(t.requester_ok),
            exec_ns: t.last_at.as_ns(),
            digest_words: vec![t.posted, t.sends, t.requester_ok, t.recv_ok],
            ..Verdict::default()
        };
        let expected = u64::from(self.ops_per_lane) * LANES as u64;
        if t.posted != expected || t.requester_ok != t.posted || t.recv_ok != t.sends || t.bad != 0
        {
            v.errors.push(format!(
                "stream: posted {} of {expected}, {} requester completions ok, {} of {} receives \
                 ok, {} bad completion(s)",
                t.posted, t.requester_ok, t.recv_ok, t.sends, t.bad
            ));
        }
        let mut mismatched = 0;
        timed(tr, "verify", || {
            for (j, lane) in shared.lanes.iter().enumerate() {
                let (from_a, from_b) = (pattern(2 * j), pattern(2 * j + 1));
                let checks = [
                    (lane.a, lane.dst_a, t.max_read[j], &from_b),
                    (lane.b, lane.dst_b, t.max_write[j], &from_a),
                    (lane.b, lane.rcv_b, t.max_send[j], &from_a),
                ];
                for (host, region, len, want) in checks {
                    let len = len as usize;
                    if cl.mem_read(host, region.base, len) != want[..len] {
                        mismatched += 1;
                    }
                }
            }
        });
        if mismatched > 0 {
            v.errors.push(format!(
                "stream: {mismatched} target region(s) do not hold the source pattern"
            ));
        }
        v
    }

    fn require(&self, out: &EngineOut) -> Vec<String> {
        let mut unmet = Vec::new();
        if out.fabric.interlink_frames == 0 {
            unmet.push("stream: no frame crossed an inter-switch link".to_owned());
        }
        if out.qp.timeouts != 0 || out.qp.faults_raised != 0 {
            unmet.push(format!(
                "stream: the fast path must not time out or fault (timeouts={}, faults={})",
                out.qp.timeouts, out.qp.faults_raised
            ));
        }
        unmet
    }

    /// Every lane carries traffic both ways (requests out, READ responses
    /// and ACKs back), all of it across leaves.
    fn fabric_shape(&self) -> FabricShape {
        FabricShape {
            topology: TopologyKind::FatTree { k: 4 },
            host_link: LinkSpec::fdr(),
            hosts: HOSTS,
            pairs: (0..LANES)
                .flat_map(|j| {
                    let (a, b) = (j % HOSTS, (j % HOSTS + 1) % HOSTS);
                    [(a, b), (b, a)]
                })
                .collect(),
        }
    }
}

impl Workload for Stream {
    fn pass(&self) -> PassOut {
        engine_pass(self, &mut None, self.default_knobs()).pass
    }

    fn setup_once(&self) -> f64 {
        engine_setup_once(self)
    }

    fn trace(&self) -> TraceOut {
        // The fastest of three passes of each kind; nothing to add to
        // what every engine-level workload measures.
        let EngineTrace {
            tracer,
            layers,
            pass,
            ..
        } = engine_trace(self, 3);
        TraceOut {
            pass,
            tracer,
            layers,
        }
    }
}
