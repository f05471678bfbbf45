//! Regenerates Fig. 5: the two-READ packet-damming workflow, showing the
//! second READ's request lost and recovered only by the ~500 ms timeout.

use ibsim_analysis::render_workflow;
use ibsim_bench::header;
use ibsim_event::SimTime;
use ibsim_odp::{experiment::fig5, OdpMode};
use ibsim_scenario::{run_scenario, POST_OVERHEAD_NS};

/// Two READs inside the recovery window under `odp`: the client's
/// annotated timeline, which shows the ~500 ms timeout.
fn fig5_workflow(odp: OdpMode) -> String {
    let sc = fig5(odp);
    let run = run_scenario(&sc);
    format!(
        "{} — two READs, interval {}\n{}",
        odp.label(),
        SimTime::from_ns(sc.post_interval_ns - POST_OVERHEAD_NS),
        render_workflow(&run.captures[0])
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
