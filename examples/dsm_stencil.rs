//! A 1-D heat-diffusion stencil over the ArgoDSM-like shared memory:
//! each node owns a slice of the rod, iterates the 3-point stencil on it,
//! and reads halo cells from its neighbors' partitions through the DSM
//! page cache, with a barrier and cache self-invalidation between steps.
//!
//! ```text
//! cargo run --release --example dsm_stencil
//! cargo run --release --example dsm_stencil -- --no-odp
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use ibsim::dsm::{Dsm, DsmConfig};
use ibsim::event::{Engine, SimTime};
use ibsim::verbs::Cluster;

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

const NODES: usize = 3;
const CELLS_PER_NODE: usize = 64;
const CELLS: usize = NODES * CELLS_PER_NODE;
const STEPS: usize = 5;

fn addr(cell: usize) -> u64 {
    (cell * 8) as u64
}

/// Runs one stencil step on `node`, then joins the barrier.
fn step(
    dsm: Dsm,
    node: usize,
    eng: &mut ibsim::verbs::Sim,
    cl: &mut Cluster,
    done: Rc<RefCell<StepSync>>,
) {
    let lo = node * CELLS_PER_NODE;
    let hi = lo + CELLS_PER_NODE;
    // Read the halo + own slice (own cells are local; halos may fetch a
    // remote page into the cache).
    let reads: Vec<usize> = (lo.saturating_sub(1)..(hi + 1).min(CELLS)).collect();
    let values = Rc::new(RefCell::new(vec![0f64; reads.len()]));
    let remaining = Rc::new(RefCell::new(reads.len()));
    for (slot, &cell) in reads.iter().enumerate() {
        let values = values.clone();
        let remaining = remaining.clone();
        let dsm2 = dsm.clone();
        let done = done.clone();
        let reads_lo = reads[0];
        dsm.read(eng, cl, node, addr(cell), 8, move |eng, cl, bytes| {
            values.borrow_mut()[slot] =
                f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            let left = {
                let mut r = remaining.borrow_mut();
                *r -= 1;
                *r
            };
            if left == 0 {
                // All inputs in: compute and write back own cells.
                let vals = values.borrow().clone();
                let get = |cell: usize| vals[cell - reads_lo];
                let mut writes = Vec::new();
                for c in lo..hi {
                    let l = if c == 0 { get(c) } else { get(c - 1) };
                    let r = if c == CELLS - 1 { get(c) } else { get(c + 1) };
                    let v = 0.25 * l + 0.5 * get(c) + 0.25 * r;
                    writes.push((c, v));
                }
                write_all(dsm2, node, eng, cl, writes, done);
            }
        });
    }
}

fn write_all(
    dsm: Dsm,
    node: usize,
    eng: &mut ibsim::verbs::Sim,
    cl: &mut Cluster,
    writes: Vec<(usize, f64)>,
    done: Rc<RefCell<StepSync>>,
) {
    let remaining = Rc::new(RefCell::new(writes.len()));
    for (c, v) in writes {
        let remaining = remaining.clone();
        let dsm2 = dsm.clone();
        let done = done.clone();
        dsm.write(
            eng,
            cl,
            node,
            addr(c),
            v.to_bits().to_le_bytes().to_vec(),
            move |eng, cl| {
                let left = {
                    let mut r = remaining.borrow_mut();
                    *r -= 1;
                    *r
                };
                if left == 0 {
                    StepSync::arrive(&done, &dsm2, node, eng, cl);
                }
            },
        );
    }
}

/// Coordinates the per-step barrier and launches the next step.
struct StepSync {
    dsm: Dsm,
    arrived: usize,
    step: usize,
}

impl StepSync {
    fn arrive(
        me: &Rc<RefCell<StepSync>>,
        dsm: &Dsm,
        node: usize,
        eng: &mut ibsim::verbs::Sim,
        cl: &mut Cluster,
    ) {
        // Self-invalidate this node's halo cache before the barrier, like
        // a release.
        dsm.release_cache(node);
        let launch = {
            let mut s = me.borrow_mut();
            s.arrived += 1;
            if s.arrived == NODES {
                s.arrived = 0;
                s.step += 1;
                s.step < STEPS
            } else {
                false
            }
        };
        if launch {
            let me2 = me.clone();
            let d = me.borrow().dsm.clone();
            d.barrier(eng, cl, move |eng, cl| {
                let d = me2.borrow().dsm.clone();
                for n in 0..NODES {
                    step(d.clone(), n, eng, cl, me2.clone());
                }
            });
        }
    }
}

fn main() {
    let odp = !std::env::args().any(|a| a == "--no-odp");
    let mut eng = Engine::new();
    let mut cl = Cluster::new(31);
    let cfg = DsmConfig {
        nodes: NODES,
        memory: (CELLS * 8).max(64 * 4096) as u64,
        odp,
        compute_base: SimTime::from_us(10),
        compute_jitter: SimTime::from_us(5),
        ..Default::default()
    };
    let dsm = Dsm::build(&mut eng, &mut cl, cfg);

    // Initial condition: a hot spike in the middle of the rod.
    for c in 0..CELLS {
        let v = if c == CELLS / 2 { 100.0f64 } else { 0.0 };
        dsm.write(
            &mut eng,
            &mut cl,
            0,
            addr(c),
            v.to_bits().to_le_bytes().to_vec(),
            |_, _| {},
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");

    let sync = Rc::new(RefCell::new(StepSync {
        dsm: dsm.clone(),
        arrived: 0,
        step: 0,
    }));
    for n in 0..NODES {
        step(dsm.clone(), n, &mut eng, &mut cl, sync.clone());
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");

    // Check conservation and diffusion.
    let total = Rc::new(RefCell::new(0.0f64));
    let peak = Rc::new(RefCell::new(0.0f64));
    for c in 0..CELLS {
        let total = total.clone();
        let peak = peak.clone();
        dsm.read(&mut eng, &mut cl, 0, addr(c), 8, move |_, _, bytes| {
            let v = f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8B")));
            *total.borrow_mut() += v;
            let mut p = peak.borrow_mut();
            if v > *p {
                *p = v;
            }
        });
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");

    println!(
        "after {STEPS} stencil steps on {NODES} nodes (odp={odp}): total heat = {:.2}, peak = {:.2}",
        total.borrow(),
        peak.borrow()
    );
    println!("dsm stats: {:?}", dsm.stats());
    println!("simulated time: {}", eng.now());
    assert!((*total.borrow() - 100.0).abs() < 1e-6, "heat is conserved");
    assert!(*peak.borrow() < 100.0, "the spike diffused");
}
