//! Regenerates Fig. 8: three READs where the third request triggers
//! NAK(PSN sequence error) and rescues the dammed second READ without a
//! timeout.

use ibsim_analysis::render_workflow;
use ibsim_bench::header;
use ibsim_odp::experiment::fig8;
use ibsim_scenario::run_scenario;

fn main() {
    // The second READ inside, the third outside the recovery window.
    let run = run_scenario(&fig8());
    header("Fig. 8: client-side ODP, three READs");
    println!(
        "Client-side ODP — three READs, interval 350 µs\n{}",
        render_workflow(&run.captures[0])
    );
    println!(
        "\nPaper reference: after the NAK with the PSN sequence error, the\n\
         client immediately retransmits the 2nd and 3rd requests; the\n\
         timeout never happens."
    );
}
