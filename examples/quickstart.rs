//! Quickstart: simulate two InfiniBand hosts, run one RDMA READ against
//! an ODP-registered buffer, and print the packet trace `ibdump` style.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ibsim::event::SimTime;
use ibsim::verbs::{ClusterBuilder, DeviceProfile, MrBuilder, QpConfig, ReadWr};

/// How far any world in this file may run before it must have quiesced.
const HORIZON: SimTime = SimTime::from_secs(1);

fn main() {
    // A deterministic two-host cluster with ConnectX-4 FDR NICs (the
    // paper's KNL testbed), capture on.
    let (mut eng, mut cluster, hosts) = ClusterBuilder::new()
        .seed(42)
        .host(
            "client",
            DeviceProfile::connectx4(ibsim::fabric::LinkSpec::fdr()),
        )
        .host(
            "server",
            DeviceProfile::connectx4(ibsim::fabric::LinkSpec::fdr()),
        )
        .capture(true)
        .build();
    let (client, server) = (hosts[0], hosts[1]);

    // The server exposes an On-Demand-Paging region; the client reads
    // into a pinned buffer. The first READ will page-fault on the server.
    let remote = cluster.mr(server, MrBuilder::odp(4096));
    let local = cluster.mr(client, MrBuilder::pinned(4096));
    cluster.mem_write(server, remote.base, b"hello from on-demand paging");

    let (qp, _) = cluster.connect_pair(&mut eng, client, server, QpConfig::default());
    cluster.post(
        &mut eng,
        client,
        qp,
        ReadWr::new(local.key, remote.key).len(28).id(1),
    );
    eng.run(&mut cluster, HORIZON).expect("the world quiesces");

    let completions = cluster.poll_cq(client);
    println!(
        "completion: {:?} at {}",
        completions[0].status, completions[0].at
    );
    println!(
        "data: {:?}",
        String::from_utf8_lossy(&cluster.mem_read(client, local.base, 28))
    );
    println!("\nclient-side packet capture:");
    print!("{}", cluster.capture(client).timeline());
    println!(
        "\nNote the RNR NAK and the ~4.5 ms wait before the retransmitted\n\
         request succeeds — the server-side ODP workflow of the paper's Fig. 1."
    );
}
