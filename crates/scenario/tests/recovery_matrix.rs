//! The recovery-backend ablation matrix: every paper corpus scenario
//! that validates under a backend's race precondition must pass the
//! differential oracle under that backend.
//!
//! Go-back-N is the corpus's native backend (covered byte-for-byte by
//! `corpus_oracle.rs`); this matrix re-runs the corpus under selective
//! repeat and on-demand pinning. Selective repeat tightens the
//! unsequenced-race precondition (any same-QP overlap except READ/READ
//! is racy there), so corpus entries that stop validating under it are
//! skipped rather than run — the oracle's soundness precondition no
//! longer holds for them — and the test asserts the skip set stays
//! small enough that the matrix keeps real coverage.

use ibsim_scenario::{check_run, paper_corpus, run_scenario};
use ibsim_verbs::RecoveryKind;

#[test]
fn corpus_is_oracle_clean_under_every_backend() {
    let mut failing = Vec::new();
    for kind in [RecoveryKind::SelectiveRepeat, RecoveryKind::OnDemandPin] {
        let mut ran = 0usize;
        let mut skipped = 0usize;
        for mut sc in paper_corpus() {
            sc.recovery = kind;
            if sc.validate().is_err() {
                // The workload races under this backend's tighter
                // precondition; the oracle would be unsound.
                skipped += 1;
                continue;
            }
            ran += 1;
            let run = run_scenario(&sc);
            let report = check_run(&sc, &run);
            if !report.violations.is_empty() {
                failing.push(format!("{} under {kind}:\n{report}", sc.name));
            }
        }
        assert!(
            ran > skipped,
            "{kind}: only {ran} corpus scenarios ran ({skipped} skipped) — \
             the matrix lost its coverage"
        );
    }
    assert!(failing.is_empty(), "{}", failing.join("\n"));
}

#[test]
fn pinning_reports_pins_and_go_back_n_never_does() {
    // The ODP-heavy corpus entries must actually exercise the pin path
    // under on-demand pinning, and the go-back-N runs must never pin —
    // the zero-re-pinning guarantee the trait refactor preserves.
    let mut pin_spans = 0usize;
    for mut sc in paper_corpus() {
        let gbn = run_scenario(&sc);
        assert!(
            !gbn.stalled,
            "{}: go-back-N run hit the drain deadline",
            sc.name
        );
        sc.recovery = RecoveryKind::OnDemandPin;
        if sc.validate().is_err() {
            continue;
        }
        let pin = run_scenario(&sc);
        // Pinning closes the fault window before it opens: no fault
        // lifecycle spans means no RNR pendency and no damming.
        pin_spans += pin.telemetry.spans().len();
        assert!(!pin.stalled, "{}: pin run hit the drain deadline", sc.name);
        assert!(
            pin.end_ns <= gbn.end_ns,
            "{}: pinning finished at {} ns, later than go-back-N at {} ns",
            sc.name,
            pin.end_ns,
            gbn.end_ns
        );
    }
    assert_eq!(pin_spans, 0, "on-demand pinning left fault spans open");
}
