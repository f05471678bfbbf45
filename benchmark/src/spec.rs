//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`ibsim-benchmark spec`) and a unit test keeps the two equal,
//! so a name can only change here, on purpose.

use crate::json::Json;

/// Seconds one contract run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 15;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its fixed name and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name later issues refer to.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "flood",
        why: "Fig. 9 both-side-ODP cell, 50 QPs x 8192 READs: the paper's packet flood, \
              dominated by verbs handler turns, timers and retransmit plans; fabric ~1%, set-up ~0",
    },
    WorkloadSpec {
        name: "stream",
        why: "loss-free pinned READ/WRITE/SEND mix across fat-tree leaves: engine dispatch, \
              routed transit and payload copies; recovery, driver and ODP must do nothing here",
    },
    WorkloadSpec {
        name: "wide",
        why: "4096 QPs on 128 hosts in one heap with telemetry on: set-up, per-QP state and \
              sync_telemetry dominate, few events each; continuity with BENCH_7/9/10",
    },
    WorkloadSpec {
        name: "sweep",
        why: "paper corpus + 1024 seeded fuzz scenarios through run_scenario + check_run: \
              thousands of tiny worlds with capture, telemetry, linter and oracle always on",
    },
    WorkloadSpec {
        name: "shuffle",
        why: "all 24 Fig. 13 shuffle cells through run_shuffle: ucp endpoint-mesh set-up over \
              210-2856 QPs, plus a mid-size flood on the ODP-on cells",
    },
];

/// An end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, every one defined (and never zero) on every
/// workload. Host time, normalised to the yardstick read beside the work
/// (see `yardstick.rs`); the value of a time is the first quartile of
/// its samples (see `Summary::reported`).
///
/// The bounds are three times the spread the driver's protocol showed on
/// the defining host — ten runs per workload, each with another seed,
/// interquartile distance over the median: at most 5.4 % on `pass_s` and
/// `run_s`, 10.3 % on `setup_s`, 2.4 % on `peak_rss_mib`. (Timed raw, the
/// same protocol spread 12-28 %.)
pub const END_TO_END: [EndToEnd; 4] = [
    // One complete pass — set-up, run, finish (drain, verify, drop):
    // what the user waits for. Over the timed passes.
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    // The part of a pass before the first event executes: input
    // generation plus world construction on flood/stream/wide; input
    // generation only on sweep/shuffle, whose entry points are monolithic
    // (their world construction lands in run_s and pass_s). Over
    // stand-alone set-ups made after every pass (see
    // `Workload::setup_once`).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The part of a pass inside the simulator's run entry point:
    // `Engine::run` on flood/stream/wide (events / run_s is the
    // steady-state events/s), the sum of the `run_scenario` calls on
    // sweep, the sum of the `run_shuffle` calls on shuffle. Over the
    // timed passes.
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    // `VmHWM` of the workload's process when its last pass has ended.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    /// Metric name, prefixed with the crate (layer) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Simulated or otherwise deterministic: must repeat bit for bit
    /// for the same seed.
    pub exact: bool,
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// Every per-layer metric, grouped by layer. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 76] = [
    // event
    count("event.executed"),
    count("event.scheduled"),
    count("event.cancelled"),
    count("event.replaced"),
    count("event.peak_depth"),
    timed("event.replay_ns", "ns"),
    timed("event.share", "ratio"),
    // fabric
    count("fabric.frames"),
    count("fabric.interlink_frames"),
    count("fabric.drops"),
    timed("fabric.transit_ns", "ns"),
    timed("fabric.share", "ratio"),
    timed("fabric.capture_ns", "ns"),
    // verbs: Engine::step bracketed and classed by its ClusterStats delta
    count("verbs.step.idle.n"),
    timed("verbs.step.idle.ns", "ns"),
    count("verbs.step.request.n"),
    timed("verbs.step.request.ns", "ns"),
    count("verbs.step.retransmit.n"),
    timed("verbs.step.retransmit.ns", "ns"),
    count("verbs.step.response.n"),
    timed("verbs.step.response.ns", "ns"),
    count("verbs.step.ack.n"),
    timed("verbs.step.ack.ns", "ns"),
    count("verbs.step.nak.n"),
    timed("verbs.step.nak.ns", "ns"),
    timed("verbs.step.ns_p50", "ns"),
    timed("verbs.step.ns_p99", "ns"),
    timed("verbs.step.ns_p999", "ns"),
    timed("verbs.self_share", "ratio"),
    timed("verbs.setup.add_host_us", "us"),
    timed("verbs.setup.alloc_mr_us", "us"),
    timed("verbs.setup.connect_pair_us", "us"),
    timed("verbs.post_ns", "ns"),
    timed("verbs.poll_cq_ns", "ns"),
    count("verbs.packets.request"),
    count("verbs.packets.retransmit"),
    count("verbs.packets.response"),
    count("verbs.packets.ack"),
    count("verbs.packets.rnr_nak"),
    count("verbs.packets.seq_nak"),
    count("verbs.packets.ghost"),
    count("verbs.qp.timeouts"),
    count("verbs.qp.retransmissions"),
    count("verbs.qp.responses_discarded"),
    count("verbs.qp.faults"),
    count("verbs.driver.jobs"),
    PerLayer {
        name: "verbs.useful_packet_ratio",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    },
    timed("verbs.sharded.pass_s.1", "s"),
    timed("verbs.sharded.pass_s.2", "s"),
    PerLayer {
        name: "verbs.sharded.speedup_2",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
    PerLayer {
        name: "host_cores",
        unit: "count",
        better: Better::Higher,
        exact: false,
    },
    // telemetry
    timed("telemetry.run_overhead", "ratio"),
    timed("telemetry.sync_ms", "ms"),
    timed("telemetry.export_jsonl_ms", "ms"),
    count("telemetry.instruments"),
    count("telemetry.spans"),
    // scenario / analysis
    timed("scenario.generate_us", "us"),
    timed("scenario.run_us_p50", "us"),
    timed("scenario.run_us_p99", "us"),
    timed("scenario.check_us_p50", "us"),
    timed("scenario.check_us_p99", "us"),
    count("scenario.violations"),
    count("scenario.stalled"),
    timed("analysis.lint_ns_per_packet", "ns"),
    // shuffle / ucp / dsm / core
    timed("shuffle.cell_ms.odp_off", "ms"),
    timed("shuffle.cell_ms.odp_on", "ms"),
    count("shuffle.qps"),
    count("shuffle.packets"),
    timed("ucp.connect_us", "us"),
    timed("dsm.init_finalize_us", "us"),
    timed("core.microbench_ratio", "ratio"),
    // alloc (benchmark-side counting allocator)
    PerLayer {
        name: "alloc.per_event",
        unit: "count",
        better: Better::Lower,
        exact: true,
    },
    PerLayer {
        name: "alloc.bytes_per_event",
        unit: "B",
        better: Better::Lower,
        exact: true,
    },
    count("alloc.setup_count"),
    // the cost of looking
    timed("trace.overhead", "ratio"),
    // steady-state speed of the untraced reference pass of the traced run
    PerLayer {
        name: "event.per_s",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
];

/// The per-layer metric named `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    Json::obj()
        .with("command", command)
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Json::obj().with("name", w.name).with("why", squeeze(w.why)))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.word())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.word())
                })
                .collect::<Vec<_>>(),
        )
}

/// Collapses the line-continuation whitespace of the tables above.
pub fn squeeze(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            let why = squeeze(w.why);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: {}",
                w.name,
                why.len()
            );
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        // setup_s is mandatory, in seconds, lower-is-better, and carries
        // the largest bound.
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `ibsim-benchmark spec > BENCHMARK.json`"
        );
    }
}
