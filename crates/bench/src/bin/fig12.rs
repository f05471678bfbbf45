//! Regenerates Fig. 12: execution-time distribution of the ArgoDSM-style
//! init+finalize benchmark (10 MB), 100 trials, ODP disabled/enabled, on
//! KNL-like and Reedbush-H-like systems.

use ibsim_bench::{header, mean_secs, quick_mode};
use ibsim_dsm::{init_finalize_histogram, DsmConfig};
use ibsim_event::SimTime;

fn run_system(name: &str, compute: SimTime, lock_gap_max: SimTime, trials: u64) {
    for odp in [false, true] {
        let cfg = DsmConfig {
            odp,
            compute_base: compute,
            compute_jitter: compute.mul_permille(50),
            lock_gap_max,
            ..Default::default()
        };
        let samples = init_finalize_histogram(&cfg, trials);
        let label = if odp { "w ODP" } else { "w/o ODP" };
        println!("-- {name} {label} (avg: {:.2} [s]) --", mean_secs(&samples));
        // 0.25 s histogram bins, like the paper's figure.
        let mut bins = std::collections::BTreeMap::new();
        for s in &samples {
            let bin = (s.as_secs_f64() / 0.25).floor() as u64;
            *bins.entry(bin).or_insert(0u64) += 1;
        }
        println!("bin_start_s,count");
        for (bin, count) in bins {
            println!("{:.2},{count}", bin as f64 * 0.25);
        }
    }
}

fn main() {
    let trials = if quick_mode() { 10 } else { 100 };
    header("Fig. 12a: KNL (2 nodes), argo::init(10MB) + argo::finalize()");
    run_system("KNL", SimTime::from_ms(2200), SimTime::from_ms(11), trials);
    header("Fig. 12b: Reedbush-H (2 nodes)");
    run_system(
        "Reedbush-H",
        SimTime::from_ms(460),
        SimTime::from_ms(16),
        trials,
    );
    println!(
        "\nPaper reference: KNL w/o 2.28 s vs w 3.12 s; Reedbush-H w/o 0.50 s\n\
         vs w 0.92 s. With ODP the samples split into two groups; the slower\n\
         group sits one transport timeout (~2 s at C_ack=18) above the fast\n\
         one — packet damming on the init-time global-lock READ+SEND."
    );
}
