//! End-to-end smoke tests: run every experiment binary at reduced scale
//! and assert the key output each figure reproduction must contain.

use std::process::Command;

fn run(bin: &str, quick: bool) -> String {
    let mut cmd = Command::new(bin);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_lists_all_systems() {
    let out = run(env!("CARGO_BIN_EXE_table1"), false);
    for name in [
        "Private servers A",
        "KNL (Private servers B)",
        "Reedbush-H",
        "Reedbush-L",
        "ABCI",
        "ITO",
        "Azure VM HCr Series",
        "Azure VM HBv2 Series",
    ] {
        assert!(out.contains(name), "missing {name}");
    }
    assert!(out.contains("MT_2170111021"), "KNL PSID");
    assert!(out.contains("Xeon Phi CPU 7250"), "Table II CPU");
}

#[test]
fn fig1_shows_both_workflows() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), false);
    assert!(out.contains("RNR_NAK"));
    assert!(out.contains("== Post 1st request =="));
    assert!(out.contains("RNR NAK delay (about 4.4"));
    assert!(out.contains("[retransmission]"));
}

#[test]
fn fig2_reports_floors() {
    let out = run(env!("CARGO_BIN_EXE_fig2"), true);
    assert!(out.contains("Azure VM HCr"), "CX-5 column present");
    // The CX-4 floor (~0.502 s) and CX-5 floor (~0.030 s).
    assert!(out.contains("0.5020"), "{out}");
    assert!(out.contains("0.0300"), "{out}");
    // The full sweep: every system at C_ack 1-21.
    assert_pinned("fig2.stdout", &run(env!("CARGO_BIN_EXE_fig2"), false));
}

/// Asserts the FNV-1a of a bin's stdout, printed should it fail, against
/// the `GOLDENS` entry `pin`. Every column these bins print is simulated,
/// so a change that leaves the figure worlds alone leaves these bytes
/// alone. Re-pin only with the reason the numbers moved.
fn assert_pinned(pin: &str, out: &str) {
    println!("{out}");
    ibsim_event::assert_golden(pin, [ibsim_event::fnv1a_str(out)]);
}

#[test]
fn fig4_shows_plateau_and_recovery() {
    let out = run(env!("CARGO_BIN_EXE_fig4"), true);
    assert_pinned("fig4.stdout", &out);
    let plateau = out
        .lines()
        .filter(|l| l.starts_with("1.500") || l.starts_with("3.000"))
        .all(|l| l.ends_with("0.5075") || l.contains(",0.5"));
    assert!(plateau, "{out}");
    assert!(out.lines().any(|l| l.starts_with("6.000,0.0")), "{out}");
}

#[test]
fn fig5_shows_timeout_workflow() {
    let out = run(env!("CARGO_BIN_EXE_fig5"), false);
    assert!(out.contains("== Timeout (about 50"), "{out}");
    assert!(out.contains("== Post 2nd request =="), "{out}");
}

#[test]
fn fig6_windows_follow_rnr_delay() {
    let out = run(env!("CARGO_BIN_EXE_fig6"), true);
    assert_pinned("fig6.stdout", &out);
    assert!(out.contains("0.01 [ms]"));
    assert!(out.contains("1.28 [ms]"));
    assert!(out.contains("10.24 [ms]"));
}

#[test]
fn fig7_has_three_series() {
    let out = run(env!("CARGO_BIN_EXE_fig7"), true);
    assert_pinned("fig7.stdout", &out);
    assert!(out.contains("2 operations"));
    assert!(out.contains("4 operations"));
}

#[test]
fn fig8_shows_nak_rescue() {
    let out = run(env!("CARGO_BIN_EXE_fig8"), false);
    assert!(out.contains("NAK_SEQ_ERR"), "{out}");
    assert!(out.contains("[lost to the damming flaw]"), "{out}");
}

#[test]
fn fig11_layout_and_tail() {
    let out = run(env!("CARGO_BIN_EXE_fig11"), true);
    assert_pinned("fig11.stdout", &out);
    assert!(out.contains("4 pages"), "{out}");
    assert!(out.contains("last completion"), "{out}");
}

#[test]
fn fig12_histograms_with_means() {
    let out = run(env!("CARGO_BIN_EXE_fig12"), true);
    assert!(out.contains("KNL w/o ODP"), "{out}");
    assert!(out.contains("Reedbush-H w ODP"), "{out}");
    assert!(out.contains("bin_start_s,count"), "{out}");
}

#[test]
fn table13_reports_all_examples() {
    let out = run_twice(env!("CARGO_BIN_EXE_table13"));
    assert!(out.contains("SparkTC"));
    assert!(out.contains("mllib.RecommendationExample"));
    assert!(out.contains("mllib.RankingMetricsExample"));
    assert!(out.contains("Enable/Disable"));
    // QP counts, shuffle durations and their ratios: the 24 Fig. 13
    // worlds.
    assert_pinned("table13.stdout", &out);
}

#[test]
fn calib13_quick_runs_one_grid_point() {
    let out = run_twice(env!("CARGO_BIN_EXE_calib13"));
    assert!(out.contains("paper ratio"), "{out}");
    assert_eq!(out.matches("ratio=").count(), 1, "{out}");
}

#[test]
fn ablation_prints_the_pinned_knockouts() {
    let out = run(env!("CARGO_BIN_EXE_ablation"), false);
    assert!(out.contains("damming flag OFF"), "{out}");
    assert_pinned("ablation.stdout", &out);
}

#[test]
fn recovery_prints_the_pinned_backend_tables() {
    let out = run(env!("CARGO_BIN_EXE_recovery"), false);
    assert!(out.contains("all gates passed"), "{out}");
    assert_pinned("recovery.stdout", &out);
}

#[test]
fn ibperf_reports_latency_and_bandwidth() {
    let out = run(env!("CARGO_BIN_EXE_ibperf"), false);
    assert!(out.contains("read_lat pinned"));
    assert!(out.contains("odp+prefetch"));
    assert!(out.contains("size_bytes,read_MiBps"));
    assert_pinned("ibperf.stdout", &out);
}

/// Runs a bin twice and returns its stdout once both runs agree byte for
/// byte: every column left is a simulated quantity, so nothing a host
/// clock could move is printed.
fn run_twice(bin: &str) -> String {
    let out = run(bin, true);
    assert_eq!(out, run(bin, true), "{bin} --quick is not reproducible");
    out
}

#[test]
fn congestion_is_reproducible_and_holds_its_inequalities() {
    let out = run_twice(env!("CARGO_BIN_EXE_congestion"));
    assert!(!out.contains("wall"), "{out}");
    assert_eq!(out.matches("[PASS]").count(), 3, "{out}");
}

/// Runs the scenario runner on `args`, asserts it exits 2 before any
/// stage, and returns its stderr.
fn scenario_refusal(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn scenario: {e}"));
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} started a stage first");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn scenario_refuses_a_flag_it_cannot_parse() {
    for args in [&["--workers", "4x"][..], &["--workers"], &["--fuzz", "-1"]] {
        let err = scenario_refusal(args);
        assert!(err.contains(args[0]), "{args:?}: {err}");
    }
}

/// A flag the runner does not know, a removed one or a misspelt one,
/// would otherwise be ignored and the run would do less than it says.
#[test]
fn scenario_refuses_a_flag_it_does_not_know() {
    for (args, flag) in [
        (&["--shards", "4"][..], "--shards"),
        (&["--workers", "2", "--fuz", "256"], "--fuz"),
    ] {
        let err = scenario_refusal(args);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{args:?}: {err}"
        );
    }
}
