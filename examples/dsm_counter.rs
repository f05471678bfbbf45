//! A distributed shared-memory application: three nodes increment a
//! shared counter under the global lock, with reads served through the
//! DSM page cache. Run it with ODP on (default) or off to see the
//! fault overhead.
//!
//! ```text
//! cargo run --release --example dsm_counter
//! cargo run --release --example dsm_counter -- --no-odp
//! ```

use ibsim::dsm::{Dsm, DsmConfig};
use ibsim::event::{Engine, SimTime};
use ibsim::verbs::Cluster;

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn increment_loop(dsm: Dsm, node: usize, remaining: u32) {
    // Each iteration: acquire → read counter → write counter+1 → release.
    // All chained through completion callbacks.
    let dsm2 = dsm.clone();
    let run = move |eng: &mut ibsim::verbs::Sim, cl: &mut Cluster| {
        let d = dsm2.clone();
        dsm2.acquire(eng, cl, node, move |eng, cl| {
            let d2 = d.clone();
            d.read(eng, cl, node, 0, 8, move |eng, cl, bytes| {
                let mut v = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                v += 1;
                let d3 = d2.clone();
                d2.write(
                    eng,
                    cl,
                    node,
                    0,
                    v.to_le_bytes().to_vec(),
                    move |eng, cl| {
                        d3.release(eng, cl, node);
                        if remaining > 1 {
                            increment_loop(d3.clone(), node, remaining - 1);
                            // The next iteration schedules itself via acquire,
                            // which is already posted above.
                            let _ = (eng, cl);
                        }
                    },
                );
            });
        });
    };
    // Defer via a helper so recursion does not borrow anything live.
    PENDING.with(|p| p.borrow_mut().push(Box::new(run)));
}

type Job = Box<dyn FnOnce(&mut ibsim::verbs::Sim, &mut Cluster)>;

thread_local! {
    static PENDING: std::cell::RefCell<Vec<Job>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn drain_pending(eng: &mut ibsim::verbs::Sim, cl: &mut Cluster) {
    loop {
        let jobs: Vec<_> = PENDING.with(|p| p.borrow_mut().drain(..).collect());
        if jobs.is_empty() {
            return;
        }
        for job in jobs {
            job(eng, cl);
        }
        eng.run(cl, HORIZON).expect("the world quiesces");
    }
}

fn main() {
    let odp = !std::env::args().any(|a| a == "--no-odp");
    let mut eng = Engine::new();
    let mut cl = Cluster::new(11);
    let cfg = DsmConfig {
        nodes: 3,
        memory: 64 * 4096,
        odp,
        compute_base: SimTime::from_us(10),
        compute_jitter: SimTime::from_us(5),
        ..Default::default()
    };
    let dsm = Dsm::build(&mut eng, &mut cl, cfg);
    dsm.start_lock_service(&mut eng, &mut cl);

    // Initialize the counter at global address 0 (homed on node 0).
    dsm.write(
        &mut eng,
        &mut cl,
        0,
        0,
        0u64.to_le_bytes().to_vec(),
        |_, _| {},
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");

    const PER_NODE: u32 = 10;
    for node in 1..3 {
        increment_loop(dsm.clone(), node, PER_NODE);
    }
    drain_pending(&mut eng, &mut cl);

    let done = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let d = done.clone();
    dsm.read(&mut eng, &mut cl, 0, 0, 8, move |_, _, bytes| {
        d.set(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
    });
    eng.run(&mut cl, HORIZON).expect("the world quiesces");

    println!(
        "counter after {} lock-protected increments from 2 nodes: {} (odp={odp})",
        2 * PER_NODE,
        done.get()
    );
    println!("dsm stats: {:?}", dsm.stats());
    println!("simulated time: {}", eng.now());
    assert_eq!(done.get(), 2 * PER_NODE as u64);
}
