//! Calibration sweep for the Fig. 13 presets: for every cell, try a grid
//! of `fetch_stagger` × `fetch_parallelism` values and print the measured
//! enable/disable ratio next to the paper's, so preset constants can be
//! chosen empirically.
//!
//! ```text
//! cargo run --release -p ibsim-bench --bin calib13
//! ```
//!
//! `--quick` runs one cell at one grid point with one trial.

use ibsim_bench::{mean_secs, quick_mode};
use ibsim_event::SimTime;
use ibsim_shuffle::presets::fig13_cells;
use ibsim_shuffle::run_shuffle;

fn main() {
    let (staggers_us, pars, trials, cells): (&[u64], &[usize], u64, usize) = if quick_mode() {
        (&[60], &[6], 1, 1)
    } else {
        (
            &[5, 20, 60, 150, 400, 900, 2000],
            &[2, 6, 12],
            3,
            usize::MAX,
        )
    };
    for cell in fig13_cells().into_iter().take(cells) {
        println!(
            "\n## {} / {} (paper ratio {:.2})",
            cell.cluster.name(),
            cell.example.name(),
            cell.paper_ratio()
        );
        let mut base_cfg = cell.config(false, 0);
        base_cfg.seed = 100;
        let disabled = run_shuffle(&base_cfg).duration.as_secs_f64();
        for &par in pars {
            for &st in staggers_us {
                let mut samples = Vec::new();
                for t in 0..trials {
                    let mut cfg = cell.config(true, 200 + t);
                    cfg.fetch_stagger = SimTime::from_us(st);
                    cfg.fetch_parallelism = par;
                    samples.push(run_shuffle(&cfg).duration);
                }
                let ratio = mean_secs(&samples) / disabled;
                println!("  par={par:<2} stagger={st:>5}us  ratio={ratio:.2}");
            }
        }
    }
}
