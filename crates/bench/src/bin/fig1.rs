//! Regenerates Fig. 1: the packet-level workflow of a single READ under
//! server-side and client-side ODP, as `ibdump` would show it at the
//! client (KNL profile, minimal RNR NAK delay 1.28 ms).

use ibsim_analysis::render_workflow;
use ibsim_bench::header;
use ibsim_odp::{experiment::fig1, OdpMode};
use ibsim_scenario::run_scenario;

/// A single READ under `odp`: the client's annotated timeline.
fn fig1_workflow(odp: OdpMode) -> String {
    let run = run_scenario(&fig1(odp));
    format!(
        "{} — single READ, min RNR NAK delay 1.28 ms\n{}",
        odp.label(),
        render_workflow(&run.captures[0])
    )
}

fn main() {
    header("Fig. 1 (left): server-side ODP, single READ");
    println!("{}", fig1_workflow(OdpMode::ServerSide));
    header("Fig. 1 (right): client-side ODP, single READ");
    println!("{}", fig1_workflow(OdpMode::ClientSide));
    println!(
        "\nPaper reference: the server-side RNR NAK delay is ~4.5 ms for the\n\
         1.28 ms advertised minimum; the client-side retransmission period\n\
         is ~0.5 ms regardless of fault resolution."
    );
}
