//! Regenerates Fig. 7: probability of timeout vs interval for 2, 3 and 4
//! READ operations (both-side ODP, minimal RNR NAK delay 1.28 ms) — more
//! operations *narrow* the window because later requests rescue the
//! dammed one via NAK(PSN sequence error).

use ibsim_bench::{header, print_timeout_series, quick_mode};
use ibsim_event::SimTime;
use ibsim_odp::experiment::fig7_series;

fn main() {
    let trials = if quick_mode() { 3 } else { 10 };
    let step_us = if quick_mode() { 750 } else { 250 };
    let intervals: Vec<SimTime> = (0..=(6_000 / step_us))
        .map(|i| SimTime::from_us(i * step_us))
        .collect();
    header("Fig. 7: both-side ODP, P(timeout) vs interval, 2-4 operations");
    print_timeout_series(&fig7_series(&[2, 3, 4], &intervals, trials));
    println!(
        "\nPaper reference: the timeout range narrows as operations are\n\
         added — with n ops it persists only while all n-1 follow-ups fit\n\
         inside the first READ's pending period."
    );
}
