//! Determinism pins for the typed work-request builders.
//!
//! The deprecated 9-positional `post_*` shims are gone; the typed
//! builders are now the only posting surface, so what must stay
//! falsifiable is their *determinism*: the same workload posted twice
//! onto fresh clusters must produce byte-identical runs — same packet
//! timelines on both hosts, same completion log, same final memory —
//! compressed into one FNV-1a hash per run (the shared
//! [`ibsim_event::Fnv1a`] hasher, so the trace-identity hash itself is
//! pinned in one place).

use ibsim_event::{Fnv1a, SimTime};
use ibsim_verbs::{
    Cluster, ClusterBuilder, CompareSwapWr, DeviceProfile, FetchAddWr, MrBuilder, MrMode, QpConfig,
    ReadWr, RecvWr, SendWr, Sim, WrId, WriteWr,
};

const REGION: u64 = 4096;

/// Runs one workload against a fresh two-host cluster and hashes every
/// observable artifact: both capture timelines, the completion log and
/// both memory images. `post` receives everything needed to post the
/// workload at t = 0.
fn run_hashed(
    post: impl FnOnce(
        &mut Sim,
        &mut Cluster,
        ibsim_verbs::HostId,
        ibsim_verbs::Qpn,
        ibsim_verbs::MrDesc,
        ibsim_verbs::MrDesc,
    ),
) -> u64 {
    let (mut eng, mut cl, hosts) = ClusterBuilder::new()
        .seed(77)
        .host(
            "client",
            DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
        )
        .host(
            "server",
            DeviceProfile::connectx4(ibsim_fabric::LinkSpec::fdr()),
        )
        .capture(true)
        .build();
    let (client, server) = (hosts[0], hosts[1]);
    let cmr = cl.mr(client, MrBuilder::new(REGION, MrMode::Pinned));
    let smr = cl.mr(server, MrBuilder::new(REGION, MrMode::Pinned));
    let init: Vec<u8> = (0..REGION).map(|i| (i as u8).wrapping_mul(13)).collect();
    cl.mem_write(client, cmr.base, &init);
    cl.mem_write(server, smr.base, &init);
    let (qc, qs) = cl.connect_pair(&mut eng, client, server, QpConfig::default());
    // One receive is always parked so SEND workloads find a sink; the
    // other verbs never consume it and it stays invisible to the hash
    // (unconsumed receives produce no packets and no completions).
    cl.post_recv(
        server,
        qs,
        RecvWr {
            id: WrId(900),
            mr: smr.key,
            offset: 512,
            max_len: 256,
        },
    );
    post(&mut eng, &mut cl, client, qc, cmr, smr);
    eng.run_until(&mut cl, SimTime::from_ms(100));

    let mut comp_log = String::new();
    let mut completions = 0usize;
    for host in [client, server] {
        for c in cl.poll_cq(host) {
            completions += 1;
            comp_log.push_str(&format!(
                "qp={} id={} st={} op={} b={}\n",
                c.qpn.0, c.wr_id.0, c.status, c.opcode, c.bytes
            ));
        }
    }
    assert!(completions > 0, "workload must actually complete something");

    let mut ident = Fnv1a::new();
    let _ = cl.capture(client).write_timeline(&mut ident);
    ident.write_bytes(b"\n");
    let _ = cl.capture(server).write_timeline(&mut ident);
    ident
        .write_bytes(b"\n")
        .write_bytes(comp_log.as_bytes())
        .write_bytes(&cl.mem_read(client, cmr.base, REGION as usize))
        .write_bytes(&cl.mem_read(server, smr.base, REGION as usize))
        .finish()
}

/// Two fresh runs of the same typed workload must hash identically.
fn assert_deterministic(
    label: &str,
    post: impl Fn(
        &mut Sim,
        &mut Cluster,
        ibsim_verbs::HostId,
        ibsim_verbs::Qpn,
        ibsim_verbs::MrDesc,
        ibsim_verbs::MrDesc,
    ),
) {
    let first = run_hashed(&post);
    let second = run_hashed(&post);
    assert_eq!(first, second, "{label} must replay byte-identically");
}

#[test]
fn read_builder_is_deterministic() {
    assert_deterministic("ReadWr", |eng, cl, host, qp, cmr, smr| {
        cl.post(
            eng,
            host,
            qp,
            ReadWr::new(cmr.at(64), smr.at(128)).len(200).id(1u64),
        );
    });
}

#[test]
fn write_builder_is_deterministic() {
    assert_deterministic("WriteWr", |eng, cl, host, qp, cmr, smr| {
        cl.post(
            eng,
            host,
            qp,
            WriteWr::new(cmr.at(0), smr.at(256)).len(300).id(2u64),
        );
    });
}

#[test]
fn send_builder_is_deterministic() {
    assert_deterministic("SendWr", |eng, cl, host, qp, cmr, _smr| {
        cl.post(eng, host, qp, SendWr::new(cmr.at(32)).len(128).id(3u64));
    });
}

#[test]
fn fetch_add_builder_is_deterministic() {
    assert_deterministic("FetchAddWr", |eng, cl, host, qp, cmr, smr| {
        cl.post(
            eng,
            host,
            qp,
            FetchAddWr::new(cmr.at(8), smr.at(16))
                .add(0x1234_5678)
                .id(4u64),
        );
    });
}

#[test]
fn compare_swap_builder_is_deterministic() {
    assert_deterministic("CompareSwapWr", |eng, cl, host, qp, cmr, smr| {
        cl.post(
            eng,
            host,
            qp,
            CompareSwapWr::new(cmr.at(24), smr.at(40))
                .compare(7)
                .swap(99)
                .id(5u64),
        );
    });
}

#[test]
fn different_workloads_produce_different_hashes() {
    // Guard against the harness hashing something workload-independent.
    let a = run_hashed(|eng, cl, host, qp, cmr, smr| {
        cl.post(
            eng,
            host,
            qp,
            ReadWr::new(cmr.at(64), smr.at(128)).len(200).id(1u64),
        );
    });
    let b = run_hashed(|eng, cl, host, qp, cmr, smr| {
        cl.post(
            eng,
            host,
            qp,
            ReadWr::new(cmr.at(64), smr.at(128)).len(100).id(1u64),
        );
    });
    assert_ne!(a, b);
}
