//! `shuffle`: the application rung — all 24 Fig. 13 cells.
//!
//! `fig13_cells()` × ODP off/on through `run_shuffle`, with the trial
//! seeds of `--bin table13`'s first trial, in an order drawn from the
//! seed argument.
//!
//! Why it is here: it is the rung ROADMAP asks for above the verbs —
//! `ucp` + `shuffle` over 210–2856 QPs on 2–4 hosts. The ODP-off cells
//! are almost pure endpoint-mesh set-up (≈6.6 µs per QP against ≈1.2 µs
//! for a bare `connect_pair`); the ODP-on cells add a mid-size flood.
//! `run_shuffle` is monolithic, so its world construction lands in
//! `run_s`/`pass_s`, not in `setup_s`.

use std::time::Instant;

use ibsim_dsm::{init_finalize_once, DsmConfig};
use ibsim_event::Engine;
use ibsim_fabric::LinkSpec;
use ibsim_shuffle::presets::fig13_cells;
use ibsim_shuffle::{run_shuffle, ShuffleConfig};
use ibsim_ucp::{Ucp, UcpConfig};
use ibsim_verbs::{Cluster, DeviceProfile};

use super::{
    derive_seed, plain_and_traced, secs, seeded_order, yardstick_span, Layers, PassOut, TraceOut,
    Workload,
};
use crate::alloc;
use crate::digest::Digest;
use crate::trace::{self, timed, Tracer};
use crate::yardstick::{normalised, Meter, Phase};

/// Trial seeds of `--bin table13`'s first trial: ODP off, ODP on.
const TRIAL_SEEDS: [u64; 2] = [100, 200];

/// The workload; see the module docs.
pub struct Shuffle {
    order_seed: u64,
    /// How many of the twelve Fig. 13 cells to run (each ODP off and on).
    cells: usize,
}

struct ShuffleOut {
    pass: PassOut,
    off_ms: Vec<f64>,
    on_ms: Vec<f64>,
    qps: u64,
    alloc_setup: alloc::Snapshot,
}

impl Shuffle {
    /// All twelve cells (quick: the first two), visited in an order
    /// drawn from `seed`.
    ///
    /// The trial seeds are fixed: the ODP-on cells are floods, whose
    /// amount of work swings with the fault-latency seed (see `flood`),
    /// so runs made with different trial seeds could not be compared.
    /// Every cell is an independent world; the order of the visit is the
    /// input the seed drives.
    pub fn new(seed: u64, quick: bool) -> Shuffle {
        Shuffle {
            order_seed: derive_seed(seed, 5),
            cells: if quick { 2 } else { 12 },
        }
    }

    fn generate(&self) -> Vec<(String, ShuffleConfig)> {
        fig13_cells()
            .into_iter()
            .take(self.cells)
            .flat_map(|cell| {
                [false, true].map(|odp| {
                    let label = format!(
                        "{} {} odp={}",
                        cell.cluster.name(),
                        cell.example.name(),
                        if odp { "on" } else { "off" }
                    );
                    (label, cell.config(odp, TRIAL_SEEDS[usize::from(odp)]))
                })
            })
            .collect()
    }

    fn run(&self, tr: &mut Option<Tracer>) -> ShuffleOut {
        let mut meter = Meter::start();
        let a0 = alloc::snapshot();
        trace::enter(tr, "pass");
        trace::enter(tr, "setup");
        let t0 = Instant::now();
        let cells = self.generate();
        let order = seeded_order(cells.len(), self.order_seed);
        meter.book(Phase::Setup, t0.elapsed().as_secs_f64());
        trace::exit(tr);
        let alloc_setup = alloc::snapshot().since(a0);

        let mut out = ShuffleOut {
            pass: PassOut::default(),
            off_ms: Vec::new(),
            on_ms: Vec::new(),
            qps: 0,
            alloc_setup,
        };
        // Per-cell identity, kept by cell index so the digest does not
        // depend on the order of the visit.
        let mut identity = vec![[0u64; 7]; cells.len()];
        trace::enter(tr, "run");
        let run_started = Instant::now();
        for &i in &order {
            let (label, cfg) = &cells[i];
            let s0 = Instant::now();
            let report = run_shuffle(cfg);
            let s1 = Instant::now();
            if let Some(t) = tr {
                t.leaf("shuffle.run_shuffle", s0, s1);
            }
            let ms = secs(s0, s1) * 1e3;
            meter.book(Phase::Run, secs(s0, s1));
            out.pass.unit_ms.push(ms);
            if cfg.odp {
                out.on_ms.push(ms);
            } else {
                out.off_ms.push(ms);
            }
            out.qps += report.qps as u64;
            out.pass.packets += report.packets;
            out.pass.attempted += report.fetches + report.failed_fetches;
            out.pass.failed += report.failed_fetches;
            identity[i] = [
                report.duration.as_ns(),
                report.qps as u64,
                report.fetches,
                report.failed_fetches,
                report.network_bytes,
                report.packets,
                u64::from(report.data_ok),
            ];
            // Co-located blocks are local copies; only the others are
            // fetched over the network.
            let expected = (0..cfg.map_tasks)
                .flat_map(|m| (0..cfg.reduce_tasks).map(move |r| (m, r)))
                .filter(|(m, r)| m % cfg.workers != r % cfg.workers)
                .count() as u64;
            if report.failed_fetches > 0 || !report.data_ok || report.fetches != expected {
                out.pass.errors.push(format!(
                    "shuffle: {label}: {} of {expected} fetches ok, {} failed, data_ok={}",
                    report.fetches, report.failed_fetches, report.data_ok
                ));
            }
            meter.lap_if_due();
        }
        if let Some(t) = tr {
            yardstick_span(t, run_started, &meter);
        }
        trace::exit(tr);
        trace::enter(tr, "finish");
        out.pass.errors.sort();
        let mut digest = Digest::new();
        for words in identity.iter().flatten() {
            digest.word(*words);
        }
        timed(tr, "drop", || drop(cells));
        trace::exit(tr);
        trace::exit(tr);
        out.pass.set_times(meter.finish());
        out.pass.digest = digest.finish();
        out
    }
}

/// Normalised microseconds per `Ucp::connect` on a 4-worker mesh of `per_pair`
/// endpoints per worker pair.
fn ucp_connect_us(per_pair: usize) -> f64 {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(1);
    let ucp = Ucp::new(UcpConfig::default());
    let workers: Vec<_> = (0..4)
        .map(|w| {
            ucp.add_worker(
                &mut cl,
                &format!("worker{w}"),
                DeviceProfile::connectx4(LinkSpec::fdr()),
            )
        })
        .collect();
    let (endpoints, seconds) = normalised(|| {
        let mut endpoints = 0u64;
        for i in 0..workers.len() {
            for j in (i + 1)..workers.len() {
                for _ in 0..per_pair {
                    std::hint::black_box(ucp.connect(&mut eng, &mut cl, workers[i], workers[j]));
                    endpoints += 1;
                }
            }
        }
        endpoints
    });
    seconds * 1e6 / endpoints as f64
}

/// Normalised microseconds per Fig. 12 `init` + `finalize` trial (defaults).
fn dsm_init_finalize_us(trials: u64, seed: u64) -> f64 {
    let ((), seconds) = normalised(|| {
        for t in 0..trials {
            let cfg = DsmConfig {
                seed: seed.wrapping_add(t),
                ..DsmConfig::default()
            };
            std::hint::black_box(init_finalize_once(cfg));
        }
    });
    seconds * 1e6 / trials as f64
}

impl Workload for Shuffle {
    fn pass(&self) -> PassOut {
        self.run(&mut None).pass
    }

    fn setup_once(&self) -> f64 {
        // Generating 24 configurations takes a few microseconds, too
        // close to the clock's resolution to time one at a time: time a
        // batch and report the mean.
        const BATCH: u32 = 64;
        let started = Instant::now();
        for _ in 0..BATCH {
            let cells = self.generate();
            let order = seeded_order(cells.len(), self.order_seed);
            std::hint::black_box((&cells, &order));
        }
        started.elapsed().as_secs_f64() / f64::from(BATCH)
    }

    fn trace(&self) -> TraceOut {
        // The fastest of five passes of each kind.
        let (plain, traced, tracer) = plain_and_traced(5, |tr| self.run(tr), |out| out.pass.run_s);
        let mut pass = traced.pass.clone();
        super::expect_same_digest(&mut pass, "the untraced pass", plain.pass.digest);

        // Cell times are wall time; the pass's factor puts them on its
        // normalised scale.
        let f = traced.pass.factor();
        let mean = |xs: &[f64]| f * xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let mut layers = Layers::default();
        layers.set("shuffle.cell_ms.odp_off", mean(&traced.off_ms));
        layers.set("shuffle.cell_ms.odp_on", mean(&traced.on_ms));
        layers.set("shuffle.qps", traced.qps as f64);
        layers.set("shuffle.packets", traced.pass.packets as f64);
        layers.set(
            "ucp.connect_us",
            ucp_connect_us(if self.cells < 12 { 16 } else { 200 }),
        );
        layers.set(
            "dsm.init_finalize_us",
            dsm_init_finalize_us(if self.cells < 12 { 20 } else { 400 }, TRIAL_SEEDS[0]),
        );
        layers.set("alloc.setup_count", traced.alloc_setup.count as f64);
        layers.set("trace.overhead", traced.pass.run_s / plain.pass.run_s - 1.0);
        TraceOut {
            pass,
            tracer,
            layers,
        }
    }
}
