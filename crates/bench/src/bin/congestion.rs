//! The shared-uplink congestion study (routed-fabric tentpole): a §VI
//! flood storm and an innocent victim flow contending for the same
//! fat-tree uplink, once per recovery backend.
//!
//! Prints the three-way comparison and asserts the study's load-bearing
//! inequalities: the go-back-N flood must inflate the victim's p99 over
//! the unloaded baseline, and IRN-style selective repeat must be
//! measurably less damaging than go-back-N at identical offered load.
//!
//! `--quick` runs the reduced-scale variant CI smokes.

use ibsim_bench::congestion::{congestion_study, CongestionRun};
use ibsim_bench::{header, quick_mode, row};

fn print_run(name: &str, r: &CongestionRun, widths: &[usize]) {
    println!(
        "{}",
        row(
            &[
                name.to_owned(),
                r.victim_p99_ns.to_string(),
                r.victim_mean_ns.to_string(),
                r.victim_completions.to_string(),
                r.retransmits.to_string(),
                r.uplink_peak_backlog_ns.to_string(),
                r.ecn_marks.to_string(),
                format!("{:.3}", r.exec.as_secs_f64() * 1e3),
            ],
            widths,
        )
    );
}

fn main() {
    let quick = quick_mode();
    header(&format!(
        "Shared-uplink congestion study (fat-tree k=2{})",
        if quick { ", --quick" } else { "" }
    ));

    let study = congestion_study(quick);

    let widths = [10, 12, 12, 6, 11, 13, 9, 9];
    println!(
        "{}",
        row(
            &[
                "run".into(),
                "p99_ns".into(),
                "mean_ns".into(),
                "cqes".into(),
                "retransmits".into(),
                "peak_blog_ns".into(),
                "ecn_marks".into(),
                "exec_ms".into(),
            ],
            &widths,
        )
    );
    print_run("baseline", &study.baseline, &widths);
    print_run("gbn", &study.gbn, &widths);
    print_run("irn", &study.irn, &widths);

    println!();
    let mut ok = true;
    for (claim, holds) in study.verdicts() {
        println!("  [{}] {claim}", if holds { "PASS" } else { "FAIL" });
        ok &= holds;
    }
    assert!(ok, "congestion study inequality violated: {study:?}");
    println!(
        "\nvictim p99 inflation: gbn {:.1}x, irn {:.1}x over baseline",
        study.gbn.victim_p99_ns as f64 / study.baseline.victim_p99_ns.max(1) as f64,
        study.irn.victim_p99_ns as f64 / study.baseline.victim_p99_ns.max(1) as f64,
    );
}
