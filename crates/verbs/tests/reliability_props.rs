//! Randomized tests of the transport's reliability guarantees: under
//! arbitrary injected packet loss (within the retry budget), every work
//! request completes exactly once with intact data.
//!
//! Formerly `proptest` properties; now seeded loops over the in-tree
//! deterministic PRNG so the suite is hermetic.

use ibsim_event::{Engine, SimTime, SplitMix64};
use ibsim_fabric::{LinkSpec, LossModel};
use ibsim_verbs::{
    Cluster, DeviceProfile, MrMode, QpConfig, ReadWr, RecvWr, SendWr, WcStatus, WrId, WriteWr,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn profile() -> DeviceProfile {
    // Shrink the timeout so loss-recovery tests stay fast: a permissive
    // device with a tiny vendor floor.
    DeviceProfile {
        min_cack: 5, // T_tr = 131 µs → T_o ≈ 245 µs
        ..DeviceProfile::connectx4(LinkSpec::fdr())
    }
}

/// Uniform random loss below the retry budget: every READ completes
/// exactly once and the data is intact.
#[test]
fn reads_survive_uniform_loss() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x10BB * 1000 + case);
        let seed = rng.next_u64();
        let loss_pct = rng.next_below(30) as u32;
        let mut eng = Engine::new();
        let mut cl = Cluster::new(seed);
        let a = cl.add_host("client", profile());
        let b = cl.add_host("server", profile());
        let n_ops: u64 = 16;
        let remote = cl.alloc_mr(b, n_ops * 128, MrMode::Pinned);
        let local = cl.alloc_mr(a, n_ops * 128, MrMode::Pinned);
        let payload: Vec<u8> = (0..(n_ops * 128) as u32).map(|i| (i % 251) as u8).collect();
        cl.mem_write(b, remote.base, &payload);
        cl.fabric
            .set_loss(LossModel::uniform(loss_pct * 10, seed ^ 0xABCD));
        // A deep retry budget: with C_retry = 7 a ~23% loss rate can
        // legitimately exhaust the transport retries (0.4^8 ≈ 1e-3 per
        // message), which is not what this property is about.
        let cfg = QpConfig {
            retry_count: 24,
            ..QpConfig::default()
        };
        let (qa, _) = cl.connect_pair(&mut eng, a, b, cfg);
        for i in 0..n_ops {
            cl.post(
                &mut eng,
                a,
                qa,
                ReadWr::new((local.key, i * 128), (remote.key, i * 128))
                    .len(128)
                    .id(i),
            );
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let cq = cl.poll_cq(a);
        assert_eq!(
            cq.len(),
            n_ops as usize,
            "case {case}: every WR completes exactly once"
        );
        // With ≤30% loss and an effectively unbounded retry budget per
        // element of progress, everything should succeed.
        for c in &cq {
            assert_eq!(c.status, WcStatus::Success, "case {case}");
        }
        assert_eq!(
            cl.mem_read(a, local.base, payload.len()),
            payload,
            "case {case}"
        );
    }
}

/// Mixed op types survive deterministic loss of arbitrary packets.
#[test]
fn mixed_ops_survive_exact_losses() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x3D0D * 1000 + case);
        let seed = rng.next_u64();
        let n_drops = rng.next_below(12) as usize;
        let drops: Vec<u64> = (0..n_drops).map(|_| rng.next_below(60)).collect();
        let mut eng = Engine::new();
        let mut cl = Cluster::new(seed);
        let a = cl.add_host("client", profile());
        let b = cl.add_host("server", profile());
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        let recv = cl.alloc_mr(b, 4096, MrMode::Pinned);
        cl.mem_write(a, local.base, &[7u8; 1024]);
        cl.mem_write(b, remote.base, &[9u8; 1024]);
        cl.fabric.set_loss(LossModel::nth(drops));
        let cfg = QpConfig {
            retry_count: 24,
            ..QpConfig::default()
        };
        let (qa, qb) = cl.connect_pair(&mut eng, a, b, cfg);
        for i in 0..4 {
            cl.post_recv(
                b,
                qb,
                RecvWr {
                    id: WrId(100 + i),
                    mr: recv.key,
                    offset: i * 256,
                    max_len: 256,
                },
            );
        }
        let mut expect_client = 0usize;
        for i in 0..12u64 {
            match i % 3 {
                0 => cl.post(
                    &mut eng,
                    a,
                    qa,
                    ReadWr::new(local.key, remote.key).len(200).id(i),
                ),
                1 => cl.post(
                    &mut eng,
                    a,
                    qa,
                    WriteWr::new(local.key, (remote.key, 512)).len(200).id(i),
                ),
                _ => cl.post(&mut eng, a, qa, SendWr::new(local.key).len(100).id(i)),
            }
            expect_client += 1;
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let ca = cl.poll_cq(a);
        assert_eq!(ca.len(), expect_client, "case {case}");
        assert!(ca.iter().all(|c| c.status.is_success()), "case {case}");
        // 4 SENDs consumed exactly the 4 posted receives.
        let cb = cl.poll_cq(b);
        assert_eq!(cb.len(), 4, "case {case}");
        assert!(cb.iter().all(|c| c.status.is_success()), "case {case}");
    }
}

/// Determinism: identical seeds give bit-identical completion timelines;
/// the simulator is a function of its inputs.
#[test]
fn identical_seeds_are_deterministic() {
    for case in 0..16u64 {
        let seed = SplitMix64::new(0xDE7E * 1000 + case).next_u64();
        let run = || {
            let mut eng = Engine::new();
            let mut cl = Cluster::new(seed);
            let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
            let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
            let remote = cl.alloc_mr(b, 16 * 4096, MrMode::Odp);
            let local = cl.alloc_mr(a, 16 * 4096, MrMode::Odp);
            let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
            for i in 0..16u64 {
                cl.post(
                    &mut eng,
                    a,
                    qa,
                    ReadWr::new((local.key, i * 4096), (remote.key, i * 4096))
                        .len(256)
                        .id(i),
                );
            }
            eng.run(&mut cl, HORIZON).expect("the world quiesces");
            cl.poll_cq(a)
                .iter()
                .map(|c| (c.wr_id.0, c.at.as_ns()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "case {case}");
    }
}
