//! The paper's own worlds through the differential oracle: every figure
//! family at its `--quick` size — exactly-once completion, memory equal
//! to the reference, RC conformance of both captures, the stage-sum law.
//!
//! Every cell is clean. A cell the oracle rejects is reported by spec
//! name with its first violation: a reproducer for the simulator or for
//! the oracle.
//!
//! Fig. 2's cells are left out: each ends in `IBV_WC_RETRY_EXC_ERR` by
//! design, and the oracle's reference expects every request to succeed.

use ibsim_event::SimTime;
use ibsim_odp::experiment::{
    fig1, fig11, fig4_cells, fig5, fig6_series, fig7_series, fig8, fig9_cells, Series,
};
use ibsim_odp::regcache::strategy_cell;
use ibsim_odp::OdpMode;
use ibsim_scenario::{check_run, run_scenario, Scenario};

/// `--quick`'s interval axis: 0 to 6 ms in `step_us` steps.
fn intervals(step_us: u64) -> Vec<SimTime> {
    (0..=6_000 / step_us)
        .map(|i| SimTime::from_us(i * step_us))
        .collect()
}

fn series_specs(series: Vec<Series>) -> impl Iterator<Item = Scenario> {
    series.into_iter().flat_map(|s| s.cells).flat_map(|c| c.1)
}

/// Every figure family at its `--quick` size, and both probes.
fn paper_worlds() -> Vec<Scenario> {
    let mut all: Vec<Scenario> = Vec::new();
    for odp in [OdpMode::ServerSide, OdpMode::ClientSide] {
        all.extend([fig1(odp), fig5(odp)]);
    }
    all.extend(fig4_cells(&intervals(500), 3).into_iter().flat_map(|c| c.1));
    let delays = [
        SimTime::from_us(10),
        SimTime::from_us(1_280),
        SimTime::from_us(10_240),
    ];
    let server = fig6_series(OdpMode::ServerSide, &delays, &intervals(750), 3);
    let client = fig6_series(OdpMode::ClientSide, &delays[1..2], &intervals(750), 3);
    all.extend(series_specs(server).chain(series_specs(client)));
    all.extend(series_specs(fig7_series(&[2, 3, 4], &intervals(750), 3)));
    all.push(fig8());
    all.extend(fig9_cells(&[1, 10], 1024, 100).into_iter().map(|c| c.1));
    all.extend([fig11(64, 64), fig11(256, 64)]);
    let mut damming = Scenario::damming_probe();
    damming.name = "damming-probe".to_owned();
    let mut flood = Scenario::flood_probe(128);
    flood.name = "flood-probe".to_owned();
    all.extend([damming, flood]);
    all
}

/// Validates and checks every world; lists each rejected one by name
/// with its first violation.
fn assert_oracle_clean(worlds: &[Scenario]) {
    let mut rejected = String::new();
    for sc in worlds {
        sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        let report = check_run(sc, &run_scenario(sc));
        if let Some(first) = report.violations.first() {
            rejected.push_str(&format!("\n  {}: {first}", sc.name));
        }
    }
    assert!(rejected.is_empty(), "rejected cells:{rejected}");
}

#[test]
fn every_figure_world_is_oracle_clean() {
    let worlds = paper_worlds();
    assert_eq!(worlds.len(), 245, "every family, every quick cell");
    assert_oracle_clean(&worlds);
}

/// The registration ablation's two cells: pinned and ODP client region.
#[test]
fn the_registration_ablation_cells_are_oracle_clean() {
    assert_oracle_clean(&[strategy_cell(false), strategy_cell(true)]);
}
