//! Regenerates Fig. 10 (the buffer/QP layout) and Fig. 11: number of
//! completed operations per page over time, with 128 QPs, 32-byte
//! messages and client-side ODP, for 128 and 512 operations.

use ibsim_bench::{header, quick_mode};
use ibsim_odp::experiment::{completions_per_page, fig11};
use ibsim_scenario::{run_scenario_with, RunOptions};
use ibsim_verbs::PAGE_SIZE;

fn main() {
    let qps = if quick_mode() { 64 } else { 128 };
    header("Fig. 10: memory layout (32-byte slots, one QP per op, round-robin)");
    println!(
        "512 ops x 32 B -> {} pages; ops i uses QP i % {} at byte offset 32*i",
        fig11(512, qps).region_len().div_ceil(PAGE_SIZE),
        qps
    );

    for &ops in &[qps, 4 * qps] {
        header(&format!(
            "Fig. 11: {ops} operations, {qps} QPs, client-side ODP"
        ));
        println!("page,op_index_within_page,completion_ms");
        let sc = fig11(ops, qps);
        let pages = completions_per_page(&sc, &run_scenario_with(&sc, RunOptions::BARE));
        for (page, completions) in pages.iter().enumerate() {
            for (i, t) in completions.iter().enumerate() {
                println!("{page},{i},{:.3}", t.as_ms_f64());
            }
        }
        let last = pages.iter().flatten().max().copied();
        if let Some(last) = last {
            println!("(last completion at {last})");
        }
    }
    println!(
        "\nPaper reference: with 128 ops the page fault resolves around 1 ms\n\
         but ~30 stragglers wait until ~6 ms for their per-QP page-status\n\
         update; with 512 ops (4 pages) the tail stretches to hundreds of\n\
         milliseconds."
    );
}
