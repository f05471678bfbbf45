//! The paper's figures as families of Fig. 3 loops.
//!
//! Each generator names the cells behind one figure of the evaluation as
//! [`Scenario`]s — [`Scenario::fig3_loop`] settings — and the renderers
//! reduce a run to what the figure plots. The `ibsim-bench` bins run the
//! cells through the scenario executor and print the rows and series the
//! paper reports; the same specs go through the differential oracle in
//! this crate's tests.

use ibsim_event::SimTime;
use ibsim_scenario::{
    run_scenario_with, LossPhase, LossSpec, Prefetch, RunOptions, Scenario, ScenarioRun, WrSpec,
};
use ibsim_verbs::{WcStatus, PAGE_SIZE};

use crate::microbench::OdpMode;
use crate::systems::SystemProfile;

/// One measured point of Fig. 2: actual time-to-timeout vs `C_ack`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    /// Requested Local ACK Timeout field.
    pub cack: u8,
    /// Measured `T_o = t / (C_retry + 1)`.
    pub t_o: SimTime,
}

/// Measures `T_o` on one system for each `C_ack` with the paper's §IV-B
/// method: post one READ that can never be answered, wait for
/// `IBV_WC_RETRY_EXC_ERR`, and divide the elapsed time by
/// `C_retry + 1 = 8`. The paper mis-addresses the QP to a wrong LID; here
/// the fabric drops every frame. The requester cannot tell the two
/// apart, since its retry schedule is its own, so `T_o` is the same.
///
/// # Panics
///
/// Panics if a probe READ does not complete with `RetryExcErr`. A
/// `C_ack` of 0, which disables the timeout, panics too.
pub fn fig2_curve(sys: &SystemProfile, cacks: impl Iterator<Item = u8>) -> Vec<Fig2Point> {
    cacks
        .map(|cack| {
            assert_ne!(cack, 0, "C_ack 0 has no timeout");
            let mut sc = Scenario::base("fig2");
            (sc.seed, sc.device, sc.cack, sc.retry_count) = (2, sys.device.clone(), cack, 7);
            sc.wrs = vec![(0, WrSpec::Read { off: 0, len: 100 })];
            let model = LossSpec::Uniform {
                prob_milli: 1000,
                seed: 0,
            };
            sc.loss = vec![LossPhase { at_ns: 0, model }];
            let run = run_scenario_with(&sc, RunOptions::BARE);
            let Some(c) = run.client_comps[0].first() else {
                panic!("{}: the probe READ never completed", sys.name)
            };
            assert_eq!(c.status, WcStatus::RetryExcErr, "{}", sys.name);
            Fig2Point {
                cack,
                t_o: (c.at - sc.post_time(0)) / 8,
            }
        })
        .collect()
}

/// `ops` READs of `size` bytes over `qps` QPs, posted `interval` apart,
/// with ODP on `odp`'s sides; otherwise [`Scenario::fig3_loop`]'s §V
/// defaults.
pub fn fig3(ops: usize, qps: usize, size: u32, interval: SimTime, odp: OdpMode) -> Scenario {
    let mut sc = Scenario::fig3_loop(ops, qps, size, interval);
    odp.apply(&mut sc);
    sc
}

/// `sc` renamed `name`, so that a report on it says which cell it is.
fn named(name: String, sc: Scenario) -> Scenario {
    Scenario { name, ..sc }
}

/// `odp`'s sides as a word for a spec name.
fn sides(odp: OdpMode) -> &'static str {
    match odp {
        OdpMode::None => "pinned",
        OdpMode::ServerSide => "server",
        OdpMode::ClientSide => "client",
        OdpMode::BothSide => "both",
    }
}

/// `sc` once per trial, trial `t` named `<name>-t<t>` and run under a
/// seed drawn from `sc`'s.
pub fn trials(sc: &Scenario, n: u64) -> Vec<Scenario> {
    (0..n)
        .map(|t| Scenario {
            name: format!("{}-t{t}", sc.name),
            seed: sc.seed.wrapping_mul(0x9E37_79B9).wrapping_add(t + 1),
            ..sc.clone()
        })
        .collect()
}

/// One x value of a figure and the trials behind it.
pub type Cell = (SimTime, Vec<Scenario>);

/// One series of a figure: its legend label and cells.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (RNR delay for Fig. 6, op count for Fig. 7).
    pub label: String,
    /// The series' cells, in x order.
    pub cells: Vec<Cell>,
}

/// Fig. 1: a single READ under `odp`, minimal RNR NAK delay 1.28 ms.
pub fn fig1(odp: OdpMode) -> Scenario {
    let sc = fig3(1, 1, 100, SimTime::ZERO, odp);
    named(format!("fig1-{}", sides(odp)), sc)
}

/// Fig. 5: two READs inside the recovery window under `odp` — 0.3 ms
/// apart client-side, 1 ms apart otherwise.
pub fn fig5(odp: OdpMode) -> Scenario {
    let interval = match odp {
        OdpMode::ClientSide => SimTime::from_us(300),
        OdpMode::None | OdpMode::ServerSide | OdpMode::BothSide => SimTime::from_ms(1),
    };
    named(
        format!("fig5-{}", sides(odp)),
        fig3(2, 1, 100, interval, odp),
    )
}

/// Fig. 4: two READs, both-side ODP, minimal RNR NAK delay 1.28 ms, one
/// cell of `trials` seeds per interval.
pub fn fig4_cells(intervals: &[SimTime], trials_per_cell: u64) -> Vec<Cell> {
    intervals
        .iter()
        .map(|&interval| {
            let sc = fig3(2, 1, 100, interval, OdpMode::BothSide);
            let sc = named(format!("fig4-{}us", interval.as_ns() / 1000), sc);
            (interval, trials(&sc, trials_per_cell))
        })
        .collect()
}

/// Fig. 6a/6b: two READs in the given ODP side, one series per minimal
/// RNR NAK delay.
pub fn fig6_series(
    odp: OdpMode,
    rnr_delays: &[SimTime],
    intervals: &[SimTime],
    trials_per_cell: u64,
) -> Vec<Series> {
    rnr_delays
        .iter()
        .map(|&delay| Series {
            label: format!("{:.2} [ms]", delay.as_ms_f64()),
            cells: intervals
                .iter()
                .map(|&interval| {
                    let mut sc = fig3(2, 1, 100, interval, odp);
                    sc.min_rnr_delay_ns = delay.as_ns();
                    let name = format!(
                        "fig6-{}-rnr{}us-{}us",
                        sides(odp),
                        delay.as_ns() / 1000,
                        interval.as_ns() / 1000
                    );
                    (interval, trials(&named(name, sc), trials_per_cell))
                })
                .collect(),
        })
        .collect()
}

/// Fig. 7: 2–4 READ operations, both-side ODP, minimal RNR NAK delay
/// 1.28 ms, one series per op count.
pub fn fig7_series(
    op_counts: &[usize],
    intervals: &[SimTime],
    trials_per_cell: u64,
) -> Vec<Series> {
    op_counts
        .iter()
        .map(|&ops| Series {
            label: format!("{ops} operations"),
            cells: intervals
                .iter()
                .map(|&interval| {
                    let sc = fig3(ops, 1, 100, interval, OdpMode::BothSide);
                    let sc = named(format!("fig7-{ops}ops-{}us", interval.as_ns() / 1000), sc);
                    (interval, trials(&sc, trials_per_cell))
                })
                .collect(),
        })
        .collect()
}

/// Fig. 8: three READs 350 µs apart, client-side ODP, the buffer warm
/// but for the first READ's page — the second READ inside the recovery
/// window, the third outside it.
pub fn fig8() -> Scenario {
    let mut sc = fig3(3, 1, 100, SimTime::from_us(350), OdpMode::ClientSide);
    sc.prefetch = Prefetch::AllButFirst;
    named("fig8".to_owned(), sc)
}

/// Fig. 9: `ops` READs of `size` bytes over each QP count, in every ODP
/// mode, with `C_ack = 18`. The paper fixes 8192 ops × 100 B (200
/// pages); tests run reduced scales.
pub fn fig9_cells(qp_counts: &[usize], ops: usize, size: u32) -> Vec<(OdpMode, Scenario)> {
    let cell = |qps, mode| {
        let mut sc = fig3(ops, qps, size, SimTime::ZERO, mode);
        sc.cack = 18;
        (mode, named(format!("fig9-{qps}qp-{}", sides(mode)), sc))
    };
    let modes = |qps| OdpMode::ALL.map(|mode| cell(qps, mode));
    qp_counts.iter().flat_map(|&qps| modes(qps)).collect()
}

/// Fig. 11: 32-byte READs over `qps` QPs, client-side ODP, `C_ack = 18`;
/// the paper plots 128 and 512 operations over 128 QPs.
pub fn fig11(ops: usize, qps: usize) -> Scenario {
    let mut sc = fig3(ops, qps, 32, SimTime::ZERO, OdpMode::ClientSide);
    sc.cack = 18;
    named(format!("fig11-{ops}ops-{qps}qp"), sc)
}

/// True if a transport timeout fired on the client — the §V damming
/// signature the y-axis of Figs. 6 and 7 counts.
pub fn timed_out(run: &ScenarioRun) -> bool {
    run.client_stats.timeouts > 0
}

/// The sorted completion times of the successful requests on each
/// buffer page (Fig. 11's curves; Fig. 10's layout gives the pages).
pub fn completions_per_page(sc: &Scenario, run: &ScenarioRun) -> Vec<Vec<SimTime>> {
    let mut pages = vec![Vec::new(); sc.region_len().div_ceil(PAGE_SIZE) as usize];
    for c in run.client_comps.iter().flatten() {
        if c.status.is_success() {
            let (qp, wr) = sc.wrs[c.wr_id.0 as usize];
            pages[((sc.window(qp) + wr.footprint().0) / PAGE_SIZE) as usize].push(c.at);
        }
    }
    for page in &mut pages {
        page.sort_unstable();
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(sc: &Scenario) -> ScenarioRun {
        run_scenario_with(sc, RunOptions::BARE)
    }

    #[test]
    fn fig2_flat_below_floor_then_doubles() {
        let knl = SystemProfile::knl();
        let pts = fig2_curve(&knl, [1u8, 8, 16, 17].into_iter());
        // Below the floor (c0=16) everything measures the same.
        assert_eq!(pts[0].t_o, pts[1].t_o);
        assert_eq!(pts[1].t_o, pts[2].t_o);
        // One step above the floor doubles.
        let ratio = pts[3].t_o.as_ns() as f64 / pts[2].t_o.as_ns() as f64;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        // The floor is ~500 ms on ConnectX-4 (Fig. 2).
        assert!(pts[0].t_o >= SimTime::from_ms(400));
    }

    #[test]
    fn fig2_connectx5_floor_is_lower() {
        let hc = SystemProfile::azure_hc();
        let pts = fig2_curve(&hc, [1u8].into_iter());
        assert!(
            pts[0].t_o < SimTime::from_ms(60),
            "ConnectX-5 floor {}",
            pts[0].t_o
        );
    }

    #[test]
    fn fig4_shows_the_damming_plateau() {
        let cells = fig4_cells(&[SimTime::from_ms(1), SimTime::from_ms(6)], 2);
        let slowest = |c: &Cell| c.1.iter().map(|sc| bare(sc).execution_time()).max();
        assert!(slowest(&cells[0]) >= Some(SimTime::from_ms(300)));
        assert!(slowest(&cells[1]) < Some(SimTime::from_ms(30)));
    }

    /// Timeouts over the trials of a series' only cell.
    fn hits(series: &Series) -> usize {
        let runs = series.cells[0].1.iter().map(bare);
        runs.filter(timed_out).count()
    }

    #[test]
    fn fig6_window_tracks_rnr_delay() {
        let series = fig6_series(
            OdpMode::ServerSide,
            &[SimTime::from_us(10), SimTime::from_us(1_280)],
            &[SimTime::from_ms(1)],
            3,
        );
        // 1 ms interval: outside the 10 µs-delay window, inside the
        // 1.28 ms-delay window.
        assert_eq!(hits(&series[0]), 0, "small delay: no timeout");
        assert_eq!(hits(&series[1]), 3, "large delay: timeout");
    }

    #[test]
    fn fig7_more_ops_narrow_the_window() {
        // At a 2 ms interval: 2 ops still dam (2 < 4.5 ms window), but
        // with 4 ops the fourth lands outside and rescues via NAK-seq.
        let series = fig7_series(&[2, 4], &[SimTime::from_ms(2)], 3);
        assert_eq!(hits(&series[0]), 3, "2 ops time out");
        assert_eq!(hits(&series[1]), 0, "4 ops are rescued");
    }

    #[test]
    fn fig9_flood_appears_beyond_resume_slots() {
        // One op per QP isolates the flood from client-side damming: the
        // per-QP page-status staleness is the only slowdown mechanism.
        let run_at = |qps: usize, mode: OdpMode| {
            let (_, sc) = fig9_cells(&[qps], qps, 32)
                .into_iter()
                .find(|&(m, _)| m == mode)
                .expect("every mode has a cell");
            bare(&sc)
        };
        let small = run_at(4, OdpMode::ClientSide);
        let large = run_at(64, OdpMode::ClientSide);
        let (t_small, t_large) = (small.execution_time(), large.execution_time());
        assert!(
            t_large > t_small * 2,
            "flood slows execution: {t_large} vs {t_small}"
        );
        assert!(
            large.total_packets > small.total_packets * 4,
            "flood multiplies packets: {} vs {}",
            large.total_packets,
            small.total_packets
        );
        let baseline = run_at(64, OdpMode::None);
        assert!(baseline.execution_time() < SimTime::from_ms(5));
        assert_eq!(baseline.errors(), 0);
    }

    #[test]
    fn fig11_completions_cover_all_pages() {
        let sc = fig11(256, 64);
        let pages = completions_per_page(&sc, &bare(&sc));
        assert_eq!(pages.len(), 2, "256 ops × 32 B = 2 pages");
        assert_eq!(pages.iter().map(Vec::len).sum::<usize>(), 256);
        for page in &pages {
            assert!(page.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
