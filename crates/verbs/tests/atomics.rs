//! Integration tests of the ATOMIC verbs: fetch-and-add, compare-and-swap,
//! exactly-once semantics under loss (replay, never re-execution), and
//! the ODP interactions.

use ibsim_event::{Engine, SimTime, SplitMix64};
use ibsim_fabric::{LinkSpec, LossModel};
use ibsim_verbs::{
    Cluster, CompareSwapWr, DeviceProfile, FetchAddWr, HostId, MrDesc, MrMode, QpConfig, Sim,
    WcOpcode, WcStatus,
};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(10);
fn setup(mode: MrMode) -> (Sim, Cluster, HostId, HostId, MrDesc, MrDesc) {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(17);
    let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
    let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
    let remote = cl.alloc_mr(b, 4096, mode);
    let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
    let _ = &mut eng;
    (eng, cl, a, b, local, remote)
}

fn read_u64(cl: &mut Cluster, host: HostId, addr: u64) -> u64 {
    u64::from_le_bytes(cl.mem_read(host, addr, 8).try_into().expect("8 bytes"))
}

#[test]
fn fetch_add_returns_original_and_adds() {
    let (mut eng, mut cl, a, b, local, remote) = setup(MrMode::Pinned);
    cl.mem_write(b, remote.base, &100u64.to_le_bytes());
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qp,
        FetchAddWr::new(local.key, remote.key).add(5).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(cq[0].opcode, WcOpcode::FetchAdd);
    assert_eq!(cq[0].bytes, 8);
    assert_eq!(read_u64(&mut cl, a, local.base), 100, "original returned");
    assert_eq!(read_u64(&mut cl, b, remote.base), 105, "add applied");
}

#[test]
fn compare_swap_only_swaps_on_match() {
    let (mut eng, mut cl, a, b, local, remote) = setup(MrMode::Pinned);
    cl.mem_write(b, remote.base, &7u64.to_le_bytes());
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    // Mismatch first: no swap.
    cl.post(
        &mut eng,
        a,
        qp,
        CompareSwapWr::new(local.key, remote.key)
            .compare(99)
            .swap(1)
            .id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].opcode, WcOpcode::CompareSwap);
    assert_eq!(read_u64(&mut cl, a, local.base), 7);
    assert_eq!(read_u64(&mut cl, b, remote.base), 7, "no swap on mismatch");
    // Match: swap.
    cl.post(
        &mut eng,
        a,
        qp,
        CompareSwapWr::new((local.key, 8), remote.key)
            .compare(7)
            .swap(42)
            .id(2),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::Success);
    assert_eq!(read_u64(&mut cl, a, local.base + 8), 7);
    assert_eq!(read_u64(&mut cl, b, remote.base), 42, "swap on match");
}

#[test]
fn unaligned_atomic_is_rejected() {
    let (mut eng, mut cl, a, b, local, remote) = setup(MrMode::Pinned);
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qp,
        FetchAddWr::new(local.key, (remote.key, 4)).add(1).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    assert_eq!(cl.poll_cq(a)[0].status, WcStatus::RemoteAccessErr);
}

#[test]
fn atomic_on_cold_odp_page_faults_then_completes() {
    let (mut eng, mut cl, a, b, local, remote) = setup(MrMode::Odp);
    cl.mem_write(b, remote.base, &1u64.to_le_bytes());
    let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    cl.post(
        &mut eng,
        a,
        qp,
        FetchAddWr::new(local.key, remote.key).add(1).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    // Took the RNR path like any server-side ODP access.
    assert!(cq[0].at > SimTime::from_ms(3), "RNR wait: {}", cq[0].at);
    assert_eq!(cl.mr_fault_count(b, remote.key), 1);
    assert_eq!(read_u64(&mut cl, b, remote.base), 2);
}

#[test]
fn lost_response_is_replayed_not_reexecuted() {
    // Drop the ATOMIC_ACK: the retransmitted request must be served from
    // the replay buffer, leaving the value incremented exactly once.
    let (mut eng, mut cl, a, b, local, remote) = setup(MrMode::Pinned);
    cl.mem_write(b, remote.base, &10u64.to_le_bytes());
    let cfg = QpConfig::default();
    let (qp, _) = cl.connect_pair(&mut eng, a, b, cfg);
    // Frame 0 is the request, frame 1 the response: drop the response.
    cl.fabric.set_loss(LossModel::nth(vec![1]));
    cl.post(
        &mut eng,
        a,
        qp,
        FetchAddWr::new(local.key, remote.key).add(1).id(1),
    );
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq[0].status, WcStatus::Success);
    assert_eq!(read_u64(&mut cl, a, local.base), 10, "replayed original");
    assert_eq!(
        read_u64(&mut cl, b, remote.base),
        11,
        "exactly-once despite retransmission"
    );
    assert_eq!(cl.qp_stats_sum(a).timeouts, 1, "recovered via timeout");
}

#[test]
fn concurrent_fetch_adds_from_two_qps_serialize() {
    let (mut eng, mut cl, a, b, local, remote) = setup(MrMode::Pinned);
    cl.mem_write(b, remote.base, &0u64.to_le_bytes());
    let (qp1, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    let (qp2, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
    for i in 0..8u64 {
        let qp = if i % 2 == 0 { qp1 } else { qp2 };
        cl.post(
            &mut eng,
            a,
            qp,
            FetchAddWr::new((local.key, i * 8), remote.key).add(1).id(i),
        );
    }
    eng.run(&mut cl, HORIZON).expect("the world quiesces");
    let cq = cl.poll_cq(a);
    assert_eq!(cq.len(), 8);
    assert!(cq.iter().all(|c| c.status.is_success()));
    assert_eq!(read_u64(&mut cl, b, remote.base), 8);
    // The eight returned originals are a permutation of 0..8.
    let mut originals: Vec<u64> = (0..8u64)
        .map(|i| read_u64(&mut cl, a, local.base + i * 8))
        .collect();
    originals.sort_unstable();
    assert_eq!(originals, (0..8).collect::<Vec<_>>());
}

/// Exactly-once under arbitrary single-packet drops: the final value
/// equals the number of fetch-adds, regardless of which packets died.
/// (Formerly a `proptest` property; now a seeded loop.)
#[test]
fn fetch_add_exactly_once_under_loss() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xA70 * 1000 + case);
        let seed = rng.next_u64();
        let n_drops = rng.next_below(6) as usize;
        let drops: Vec<u64> = (0..n_drops).map(|_| rng.next_below(40)).collect();
        let mut eng = Engine::new();
        let mut cl = Cluster::new(seed);
        let profile = DeviceProfile {
            min_cack: 5,
            ..DeviceProfile::connectx4(LinkSpec::fdr())
        };
        let a = cl.add_host("client", profile.clone());
        let b = cl.add_host("server", profile);
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        cl.fabric.set_loss(LossModel::nth(drops));
        let cfg = QpConfig {
            retry_count: 24,
            ..QpConfig::default()
        };
        let (qp, _) = cl.connect_pair(&mut eng, a, b, cfg);
        let n = 10u64;
        for i in 0..n {
            cl.post(
                &mut eng,
                a,
                qp,
                FetchAddWr::new((local.key, i * 8), remote.key).add(1).id(i),
            );
        }
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let cq = cl.poll_cq(a);
        assert_eq!(cq.len(), n as usize, "case {case}");
        assert!(cq.iter().all(|c| c.status.is_success()), "case {case}");
        assert_eq!(read_u64(&mut cl, b, remote.base), n, "case {case}");
    }
}
