//! Regenerates Fig. 9: effect of the number of QPs on the micro-benchmark
//! (8192 READs of 100 bytes, 200 pages, C_ack = 18): execution time (9a)
//! and number of packets (9b) for every ODP mode.

use ibsim_bench::{header, quick_mode};
use ibsim_odp::experiment::fig9_cells;
use ibsim_scenario::{run_scenario_with, RunOptions};

fn main() {
    let (qp_counts, num_ops): (Vec<usize>, usize) = if quick_mode() {
        (vec![1, 10, 50, 100], 1024)
    } else {
        (vec![1, 2, 5, 10, 25, 50, 75, 100, 150, 200], 8192)
    };
    header(&format!(
        "Fig. 9: {num_ops} READs x 100 B over varying #QPs (columns per ODP mode)"
    ));
    println!("-- Fig. 9a execution time [s] / 9b packets, streamed per point --");
    println!("qps,mode,execution_s,packets,errors");
    let mut errs = 0;
    for (mode, sc) in fig9_cells(&qp_counts, num_ops, 100) {
        let run = run_scenario_with(&sc, RunOptions::BARE);
        println!(
            "{},{},{:.4},{},{}",
            sc.qps,
            mode.label(),
            run.execution_time().as_secs_f64(),
            run.total_packets,
            run.errors()
        );
        errs += run.errors();
    }
    println!("(operations failed with RETRY_EXC_ERR across all runs: {errs})");
    println!(
        "\nPaper reference: beyond ~10 QPs the client-/both-side ODP curves\n\
         degrade drastically (up to ~3000x no-ODP) and their packet counts\n\
         grow hundreds-fold; server-side degrades less (damming timeouts)."
    );
}
