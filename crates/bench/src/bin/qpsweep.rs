//! QP-count scaling sweep for the §VI packet flood: 64 → 4096 QPs.
//!
//! Each rung of the sweep shards its QPs across independent client/server
//! host pairs of 64 QPs each — one §VI flood per shard (all READs landing
//! on one cold client-side ODP page) — inside a *single* engine, so one
//! shared event heap carries thousands of concurrently armed keyed timers
//! (ACK timeouts, RNR waits, 0.5 ms stall ticks). This is the workload
//! that melted the old tombstone queue: every retransmit cancels and
//! re-arms, and cancelled entries used to pile up until the heap was
//! mostly corpses. The rung itself lives in [`ibsim_bench::flood`].
//!
//! Every printed column is a simulated quantity, so two runs print the
//! same bytes; how fast the host ran the sweep is measured by the
//! benchmark (`BENCHMARK.json`, workload `wide` is the 4096-QP rung).
//!
//! ```text
//! cargo run --release -p ibsim-bench --bin qpsweep [-- --quick]
//! ```
//!
//! Gates (exit nonzero on violation):
//! * dead-event pops must stay below 5 % of executed events at every
//!   rung (with physical removal they are structurally zero);
//! * every rung must drain: one completion per QP, one fault span per
//!   shard, no live, keyed or dead entry left in the heap;
//! * the largest rung re-run on the 4-shard PDES executor must
//!   reproduce the sequential rung's simulated outcome exactly —
//!   completions, fault spans, executed events and end time.

use std::process::ExitCode;

use ibsim_bench::flood::{run_flood_rung, run_flood_rung_sharded, FloodRung, SHARD_QPS};
use ibsim_bench::{header, quick_mode, row};

/// Dead pops may not exceed this fraction of executed events.
const DEAD_POP_BUDGET: f64 = 0.05;

fn main() -> ExitCode {
    let quick = quick_mode();
    let sweep: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    };

    header("QP-count scaling sweep: §VI flood, 64-QP shards, one event heap");
    let widths = [5, 9, 10, 9, 9, 9, 10, 7];
    println!(
        "{}",
        row(
            &["QPs", "exec", "events", "ev/QP", "deadpop", "peak", "replaced", "spans"]
                .map(str::to_owned),
            &widths,
        )
    );

    let mut failed = false;
    let mut largest: Option<FloodRung> = None;
    for &qps in sweep {
        let r = run_flood_rung(qps);
        let s = &r.stats;
        println!(
            "{}",
            row(
                &[
                    format!("{}", r.qps),
                    format!("{:.2}ms", r.exec.as_secs_f64() * 1e3),
                    format!("{}", s.executed),
                    format!("{:.0}", s.executed as f64 / r.qps as f64),
                    format!("{}", s.dead_pops),
                    format!("{}", s.peak_depth),
                    format!("{}", s.replaced),
                    format!("{}", r.spans),
                ],
                &widths,
            )
        );

        // One cold ODP page per shard → exactly one fault span each.
        if r.spans != r.qps / SHARD_QPS {
            eprintln!(
                "FAIL: expected {} fault spans (one per shard) at {} QPs, saw {}",
                r.qps / SHARD_QPS,
                r.qps,
                r.spans
            );
            failed = true;
        }
        if r.completions != r.qps {
            eprintln!(
                "FAIL: {} QPs but only {} completions — the flood did not drain",
                r.qps, r.completions
            );
            failed = true;
        }
        if (s.dead_pops as f64) > DEAD_POP_BUDGET * s.executed as f64 {
            eprintln!(
                "FAIL: {} dead-event pops exceed {:.0}% of {} executed events at {} QPs",
                s.dead_pops,
                DEAD_POP_BUDGET * 100.0,
                s.executed,
                r.qps
            );
            failed = true;
        }
        if s.live != 0 || s.keyed_live != 0 || s.dead_pending != 0 {
            eprintln!(
                "FAIL: residue after drain at {} QPs: {} live, {} keyed, {} dead",
                r.qps, s.live, s.keyed_live, s.dead_pending
            );
            failed = true;
        }
        largest = Some(r);
    }

    // Sharded smoke: the largest rung again on the 4-shard PDES
    // executor. The rung's host pairs are link-disjoint, so the shards
    // run genuinely concurrently — and must still land on the identical
    // simulated outcome.
    if let Some(seq) = largest {
        let par = run_flood_rung_sharded(seq.qps, 4);
        println!(
            "\npdes smoke: {} QPs on 4 shards: {} completions, {} spans \
             (sequential: {} completions, {} spans)",
            par.qps, par.completions, par.spans, seq.completions, seq.spans,
        );
        if par.exec != seq.exec
            || par.completions != seq.completions
            || par.spans != seq.spans
            || par.stats.executed != seq.stats.executed
        {
            eprintln!(
                "FAIL: 4-shard rung diverged from sequential at {} QPs: exec {:?} vs {:?}, \
                 completions {} vs {}, spans {} vs {}, executed {} vs {}",
                seq.qps,
                par.exec,
                seq.exec,
                par.completions,
                seq.completions,
                par.spans,
                seq.spans,
                par.stats.executed,
                seq.stats.executed
            );
            failed = true;
        }
    }

    println!(
        "\nEach rung is an independent simulation; `exec` is simulated time\n\
         (near-constant: shards run concurrently). `deadpop` counts\n\
         cancelled entries reaching the heap top — physical removal keeps\n\
         it at zero; the gate fails above {:.0}% of executed events.",
        DEAD_POP_BUDGET * 100.0
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
