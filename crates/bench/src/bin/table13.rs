//! Regenerates Fig. 13 (the SparkUCX table): execution time of three
//! Spark examples with ODP disabled/enabled on four cluster
//! configurations. Absolute times are scaled ~100x down (one shuffle
//! round instead of a whole Spark job); compare the ratios and QP counts.

use ibsim_bench::{header, mean_secs, quick_mode, row, std_secs};
use ibsim_shuffle::presets::{fig13_cells, SparkExample};
use ibsim_shuffle::run_shuffle;

fn main() {
    let trials = if quick_mode() { 1 } else { 3 };
    for example in SparkExample::ALL {
        header(example.name());
        let widths = [16, 6, 12, 12, 16, 12];
        println!(
            "{}",
            row(
                &[
                    "Cluster".into(),
                    "QPs".into(),
                    "Disable [s]".into(),
                    "Enable [s]".into(),
                    "Enable/Disable".into(),
                    "paper ratio".into(),
                ],
                &widths
            )
        );
        for cell in fig13_cells().iter().filter(|c| c.example == example) {
            let mut disabled = Vec::new();
            let mut enabled = Vec::new();
            let mut failed = 0;
            let mut qps = 0;
            for t in 0..trials {
                let rep = run_shuffle(&cell.config(false, 100 + t));
                qps = rep.qps;
                disabled.push(rep.duration);
                let rep = run_shuffle(&cell.config(true, 200 + t));
                // Fig. 13 omits samples that failed with RETRY_EXC_ERR;
                // this table averages every sample and reports how many
                // failed under the row.
                enabled.push(rep.duration);
                failed += usize::from(rep.failed_fetches > 0);
            }
            let dm = mean_secs(&disabled);
            let em = mean_secs(&enabled);
            println!(
                "{}",
                row(
                    &[
                        cell.cluster.name().into(),
                        qps.to_string(),
                        format!("{dm:.3}±{:.3}", std_secs(&disabled)),
                        format!("{em:.3}±{:.3}", std_secs(&enabled)),
                        format!("{:.2}", em / dm),
                        format!("{:.2}", cell.paper_ratio()),
                    ],
                    &widths
                )
            );
            if failed > 0 {
                println!("   ({failed} enabled trials had RETRY_EXC_ERR fetches)");
            }
        }
    }
    println!(
        "\nPaper reference ratios: SparkTC 1.56/6.46/1.01/1.42;\n\
         Recommendation 1.51/3.59/1.07/1.18; RankingMetrics 1.30/2.38/1.37/2.37\n\
         for KNL(2)/Reedbush-H(2)/ABCI(2)/ABCI(4). Degradation is timing-\n\
         dependent (packet flood + occasional damming timeouts)."
    );
}
