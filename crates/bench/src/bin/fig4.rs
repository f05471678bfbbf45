//! Regenerates Fig. 4: average execution time of the two-READ
//! micro-benchmark over 10 trials, varying the interval between the two
//! communications (both-side ODP, minimal RNR NAK delay 1.28 ms).

use ibsim_bench::{header, quick_mode};
use ibsim_event::SimTime;
use ibsim_odp::experiment::fig4_cells;
use ibsim_scenario::{run_scenario_with, RunOptions};

fn main() {
    let trials = if quick_mode() { 3 } else { 10 };
    let step_us = if quick_mode() { 500 } else { 250 };
    let intervals: Vec<SimTime> = (0..=(6_000 / step_us))
        .map(|i| SimTime::from_us(i * step_us))
        .collect();
    header("Fig. 4: mean execution time [s] vs interval [ms] (two READs, both-side ODP)");
    println!("interval_ms,mean_execution_s");
    for (interval, cell) in fig4_cells(&intervals, trials) {
        let runs = cell
            .iter()
            .map(|sc| run_scenario_with(sc, RunOptions::BARE));
        let mean = runs.map(|r| r.execution_time()).sum::<SimTime>() / trials;
        println!("{:.3},{:.4}", interval.as_ms_f64(), mean.as_secs_f64());
    }
    println!(
        "\nPaper reference: several hundred milliseconds for intervals of\n\
         ~0.1–4.5 ms, dropping to the common page-fault overhead outside\n\
         the window."
    );
}
