//! Integration tests of the DSM data plane: home-node reads/writes, page
//! caching, self-invalidation, and the global lock.

use ibsim_dsm::{Dsm, DsmConfig};
use ibsim_event::{Engine, SimTime};
use ibsim_verbs::Cluster;

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn small_cfg(odp: bool) -> DsmConfig {
    DsmConfig {
        nodes: 2,
        memory: 64 * 4096,
        odp,
        compute_base: SimTime::from_us(10),
        compute_jitter: SimTime::from_us(5),
        ..Default::default()
    }
}

fn build(odp: bool) -> (ibsim_verbs::Sim, Cluster, Dsm) {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(9);
    let dsm = Dsm::build(&mut eng, &mut cl, small_cfg(odp));
    (eng, cl, dsm)
}

#[test]
fn local_read_write_roundtrip() {
    let (mut eng, mut cl, dsm) = build(false);
    // Address 0 is homed on node 0.
    let d = dsm.clone();
    dsm.write(
        &mut eng,
        &mut cl,
        0,
        64,
        b"local!".to_vec(),
        move |eng, cl| {
            d.read(eng, cl, 0, 64, 6, |_, _, data| {
                assert_eq!(data, b"local!");
            });
        },
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let s = dsm.stats();
    assert_eq!(s.local_writes, 1);
    assert_eq!(s.local_reads, 1);
    assert_eq!(s.remote_reads, 0);
}

#[test]
fn remote_read_fetches_page_then_hits_cache() {
    let (mut eng, mut cl, dsm) = build(false);
    let d = dsm.clone();
    // Address 0 is homed on node 0; node 1 reads it twice.
    dsm.write(
        &mut eng,
        &mut cl,
        0,
        100,
        b"shared".to_vec(),
        move |eng, cl| {
            let d2 = d.clone();
            d.read(eng, cl, 1, 100, 6, move |eng, cl, data| {
                assert_eq!(data, b"shared");
                d2.read(eng, cl, 1, 100, 6, |_, _, data| {
                    assert_eq!(data, b"shared");
                });
            });
        },
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let s = dsm.stats();
    assert_eq!(s.remote_reads, 1, "first read fetches the page");
    assert_eq!(s.cache_hits, 1, "second read hits the cache");
}

#[test]
fn release_self_invalidates_cache() {
    let (mut eng, mut cl, dsm) = build(false);
    dsm.start_lock_service(&mut eng, &mut cl);
    let d = dsm.clone();
    dsm.write(&mut eng, &mut cl, 0, 100, b"v1".to_vec(), move |eng, cl| {
        let d2 = d.clone();
        // Node 1 caches the page...
        d.read(eng, cl, 1, 100, 2, move |eng, cl, v| {
            assert_eq!(v, b"v1");
            let d3 = d2.clone();
            // ...home updates it...
            d2.write(eng, cl, 0, 100, b"v2".to_vec(), move |eng, cl| {
                let d4 = d3.clone();
                // ...node 1 acquires/releases the lock (self-invalidation)
                // and must see the new value.
                d3.acquire(eng, cl, 1, move |eng, cl| {
                    d4.release(eng, cl, 1);
                    let d5 = d4.clone();
                    d4.read(eng, cl, 1, 100, 2, move |_, _, v| {
                        assert_eq!(v, b"v2", "stale copy dropped on release");
                        let _ = &d5;
                    });
                });
            });
        });
    });
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let s = dsm.stats();
    assert!(s.self_invalidations >= 1);
    assert_eq!(s.remote_reads, 2, "page re-fetched after invalidation");
    assert_eq!(s.lock_acquisitions, 1);
}

#[test]
fn lock_serializes_contenders() {
    // Three nodes hammer the lock; the grants must interleave correctly
    // (each acquire gets exactly one grant).
    let mut eng = Engine::new();
    let mut cl = Cluster::new(9);
    let cfg = DsmConfig {
        nodes: 3,
        memory: 64 * 4096,
        odp: false,
        compute_base: SimTime::from_us(10),
        compute_jitter: SimTime::from_us(5),
        ..Default::default()
    };
    let dsm = Dsm::build(&mut eng, &mut cl, cfg);
    dsm.start_lock_service(&mut eng, &mut cl);
    let counter = std::rc::Rc::new(std::cell::Cell::new(0u32));
    for node in 1..3 {
        for _ in 0..4 {
            let d = dsm.clone();
            let c = counter.clone();
            dsm.acquire(&mut eng, &mut cl, node, move |eng, cl| {
                c.set(c.get() + 1);
                d.release(eng, cl, node);
            });
        }
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(counter.get(), 8, "every acquire was granted exactly once");
    assert_eq!(dsm.stats().lock_acquisitions, 8);
}

#[test]
fn write_through_is_visible_at_home() {
    let (mut eng, mut cl, dsm) = build(false);
    // Node 1 writes to an address homed on node 0.
    let d = dsm.clone();
    dsm.write(
        &mut eng,
        &mut cl,
        1,
        200,
        b"from-1".to_vec(),
        move |eng, cl| {
            d.read(eng, cl, 0, 200, 6, |_, _, v| assert_eq!(v, b"from-1"));
        },
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let s = dsm.stats();
    assert_eq!(s.remote_writes, 1);
    assert_eq!(s.local_reads, 1);
}

#[test]
fn odp_mode_still_coherent() {
    // The whole coherence suite's core path, with ODP registration: first
    // accesses fault but results stay correct.
    let (mut eng, mut cl, dsm) = build(true);
    let d = dsm.clone();
    dsm.write(
        &mut eng,
        &mut cl,
        1,
        300,
        b"odp-write".to_vec(),
        move |eng, cl| {
            d.read(eng, cl, 0, 300, 9, |_, _, v| assert_eq!(v, b"odp-write"));
        },
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(dsm.stats().remote_writes, 1);
}

#[test]
fn barrier_waits_for_everyone() {
    let (mut eng, mut cl, dsm) = build(false);
    let hit = std::rc::Rc::new(std::cell::Cell::new(false));
    let h = hit.clone();
    dsm.barrier(&mut eng, &mut cl, move |_, _| h.set(true));
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert!(hit.get());
}
