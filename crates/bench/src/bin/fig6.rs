//! Regenerates Fig. 6: probability of timeout (10 trials) vs the interval
//! of two READs, for server-side (a) and client-side (b) ODP, varying the
//! minimal RNR NAK delay.

use ibsim_bench::{header, print_timeout_series, quick_mode};
use ibsim_event::SimTime;
use ibsim_odp::{experiment::fig6_series, OdpMode};

fn main() {
    let trials = if quick_mode() { 3 } else { 10 };
    let step_us = if quick_mode() { 750 } else { 250 };
    let intervals: Vec<SimTime> = (0..=(6_000 / step_us))
        .map(|i| SimTime::from_us(i * step_us))
        .collect();

    header("Fig. 6a: server-side ODP, P(timeout) vs interval");
    let delays = [
        SimTime::from_us(10),
        SimTime::from_us(1_280),
        SimTime::from_us(10_240),
    ];
    print_timeout_series(&fig6_series(
        OdpMode::ServerSide,
        &delays,
        &intervals,
        trials,
    ));

    header("Fig. 6b: client-side ODP, P(timeout) vs interval");
    let delays_b = [SimTime::from_us(1_280)];
    print_timeout_series(&fig6_series(
        OdpMode::ClientSide,
        &delays_b,
        &intervals,
        trials,
    ));

    println!(
        "\nPaper reference: 6a's window tracks the actual RNR wait (~4.5 ms\n\
         at 1.28 ms delay); 6b's window is ~0.5 ms, the client-side\n\
         retransmission interval."
    );
}
