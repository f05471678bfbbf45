//! Regenerates Fig. 5: the two-READ packet-damming workflow, showing the
//! second READ's request lost and recovered only by the ~500 ms timeout.

use ibsim_analysis::render_workflow;
use ibsim_bench::header;
use ibsim_event::SimTime;
use ibsim_odp::{run_microbench, MicrobenchConfig, OdpMode};

/// Two READs inside the recovery window under `odp`: the client's
/// annotated timeline, which shows the ~500 ms timeout.
fn fig5_workflow(odp: OdpMode) -> String {
    let interval = match odp {
        OdpMode::ClientSide => SimTime::from_us(300),
        OdpMode::None | OdpMode::ServerSide | OdpMode::BothSide => SimTime::from_ms(1),
    };
    let run = run_microbench(&MicrobenchConfig {
        num_ops: 2,
        interval,
        odp,
        capture: true,
        ..Default::default()
    });
    format!(
        "{} — two READs, interval {}\n{}",
        odp.label(),
        interval,
        render_workflow(run.cluster.capture(run.client))
    )
}

fn main() {
    header("Fig. 5 (left): server-side ODP, two READs, interval 1 ms");
    println!("{}", fig5_workflow(OdpMode::ServerSide));
    header("Fig. 5 (right): client-side ODP, two READs, interval 0.3 ms");
    println!("{}", fig5_workflow(OdpMode::ClientSide));
    println!(
        "\nPaper reference: the response of the second READ disappears and\n\
         the client waits for the ~500 ms transport timeout (ConnectX-4)."
    );
}
