//! A lock-free distributed counter and a spinlock built on the ATOMIC
//! verbs (fetch-and-add / compare-and-swap), exercising the same ODP path
//! as every other one-sided operation.
//!
//! ```text
//! cargo run --release --example atomic_counter
//! ```

use ibsim::event::SimTime;
use ibsim::verbs::{
    ClusterBuilder, CompareSwapWr, DeviceProfile, FetchAddWr, MrBuilder, QpConfig, WcStatus,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn main() {
    let device = DeviceProfile::connectx4(ibsim::fabric::LinkSpec::fdr());
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(23)
        .host("server", device.clone())
        .host("client1", device.clone())
        .host("client2", device)
        .build();
    let (server, c1, c2) = (hosts[0], hosts[1], hosts[2]);

    // The shared counter lives in an ODP region on the server: the very
    // first atomic page-faults, the rest run at wire speed.
    let shared = cl.mr(server, MrBuilder::odp(4096));
    let l1 = cl.mr(c1, MrBuilder::pinned(4096));
    let l2 = cl.mr(c2, MrBuilder::pinned(4096));
    let (q1, _) = cl.connect_pair(&mut eng, c1, server, QpConfig::default());
    let (q2, _) = cl.connect_pair(&mut eng, c2, server, QpConfig::default());

    // 32 increments from each client, racing.
    for i in 0..32u64 {
        cl.post(
            &mut eng,
            c1,
            q1,
            FetchAddWr::new((l1.key, i * 8), shared.key).add(1).id(i),
        );
        cl.post(
            &mut eng,
            c2,
            q2,
            FetchAddWr::new((l2.key, i * 8), shared.key).add(1).id(i),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let (d1, d2) = (cl.poll_cq(c1), cl.poll_cq(c2));
    assert!(d1.iter().chain(&d2).all(|c| c.status == WcStatus::Success));
    let total = u64::from_le_bytes(cl.mem_read(server, shared.base, 8).try_into().expect("8B"));
    println!("64 racing fetch-adds from 2 clients -> counter = {total}");
    assert_eq!(total, 64);

    // A CAS spinlock: client1 takes it, client2's attempt fails, then
    // succeeds after release.
    let lock_off = 8u64;
    cl.post(
        &mut eng,
        c1,
        q1,
        CompareSwapWr::new((l1.key, 512), (shared.key, lock_off))
            .compare(0)
            .swap(1)
            .id(100),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(c1).len(), 1);
    let seen1 = u64::from_le_bytes(cl.mem_read(c1, l1.base + 512, 8).try_into().expect("8B"));
    println!("client1 CAS(0 -> 1): saw {seen1} (acquired)");
    assert_eq!(seen1, 0);

    cl.post(
        &mut eng,
        c2,
        q2,
        CompareSwapWr::new((l2.key, 512), (shared.key, lock_off))
            .compare(0)
            .swap(1)
            .id(100),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    cl.poll_cq(c2);
    let seen2 = u64::from_le_bytes(cl.mem_read(c2, l2.base + 512, 8).try_into().expect("8B"));
    println!("client2 CAS(0 -> 1): saw {seen2} (lock held, not acquired)");
    assert_eq!(seen2, 1);

    // client1 releases (CAS 1 -> 0), client2 retries and wins.
    cl.post(
        &mut eng,
        c1,
        q1,
        CompareSwapWr::new((l1.key, 520), (shared.key, lock_off))
            .compare(1)
            .swap(0)
            .id(101),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    cl.poll_cq(c1);
    cl.post(
        &mut eng,
        c2,
        q2,
        CompareSwapWr::new((l2.key, 520), (shared.key, lock_off))
            .compare(0)
            .swap(1)
            .id(101),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    cl.poll_cq(c2);
    let seen3 = u64::from_le_bytes(cl.mem_read(c2, l2.base + 520, 8).try_into().expect("8B"));
    println!("client2 CAS(0 -> 1) after release: saw {seen3} (acquired)");
    assert_eq!(seen3, 0);
    println!("simulated time: {}", eng.now());
}
