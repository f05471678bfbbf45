//! The `perftest` cells through the differential oracle at a test size:
//! exactly-once completion, memory equal to the reference, RC conformance
//! of both captures, the stage-sum law.

use ibsim_bench::perftest::{PerfConfig, PerfTest};
use ibsim_scenario::{check_run, run_scenario, Scenario};

/// Latency cells pinned, on ODP and on prefetched ODP; bandwidth cells
/// at 64 B and 64 KiB; 64 iterations after 4 warm-up ones each.
fn cells() -> Vec<Scenario> {
    let quick = |size, odp, prefetch| PerfConfig {
        size,
        iterations: 64,
        warmup: 4,
        odp,
        prefetch,
        ..PerfConfig::default()
    };
    let mut cells = Vec::new();
    for (odp, prefetch) in [(false, false), (true, false), (true, true)] {
        let cfg = quick(4096, odp, prefetch);
        cells.extend([PerfTest::ReadLat, PerfTest::SendLat].map(|t| cfg.cell(t)));
        for size in [64, 65536] {
            let cfg = quick(size, odp, prefetch);
            cells.extend([PerfTest::ReadBw, PerfTest::WriteBw].map(|t| cfg.cell(t)));
        }
    }
    cells
}

#[test]
fn every_perftest_cell_is_oracle_clean() {
    let mut rejected = String::new();
    for sc in &cells() {
        sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        let report = check_run(sc, &run_scenario(sc));
        if let Some(first) = report.violations.first() {
            rejected.push_str(&format!("\n  {}: {first}", sc.name));
        }
    }
    assert!(rejected.is_empty(), "rejected cells:{rejected}");
}
