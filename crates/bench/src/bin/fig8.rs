//! Regenerates Fig. 8: three READs where the third request triggers
//! NAK(PSN sequence error) and rescues the dammed second READ without a
//! timeout.

use ibsim_analysis::render_workflow;
use ibsim_bench::header;
use ibsim_event::SimTime;
use ibsim_odp::{run_microbench, MicrobenchConfig, OdpMode};

fn main() {
    // The second READ inside, the third outside the recovery window.
    let run = run_microbench(&MicrobenchConfig {
        num_ops: 3,
        interval: SimTime::from_us(350),
        odp: OdpMode::ClientSide,
        touch_all_but_first: true,
        capture: true,
        ..Default::default()
    });
    header("Fig. 8: client-side ODP, three READs");
    println!(
        "Client-side ODP — three READs, interval 350 µs\n{}",
        render_workflow(run.cluster.capture(run.client))
    );
    println!(
        "\nPaper reference: after the NAK with the PSN sequence error, the\n\
         client immediately retransmits the 2nd and 3rd requests; the\n\
         timeout never happens."
    );
}
