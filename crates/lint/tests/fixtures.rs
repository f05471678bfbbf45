//! Integration tests over the fixture corpus: every rule has at least
//! one known-bad and one known-clean fixture, with exact `line:col`
//! span assertions, plus suppression and unused-suppression coverage.

use std::path::Path;

use ibsim_lint::rules::Policy;
use ibsim_lint::{lint_source, Report};

fn lint_fixture(name: &str) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    lint_source(name, &src, &Policy::all())
}

/// The `(rule, line, col)` triples of a report, in order.
fn spans(report: &Report) -> Vec<(String, u32, u32)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule.clone(), d.line, d.col))
        .collect()
}

fn assert_clean(name: &str) {
    let report = lint_fixture(name);
    assert!(
        report.is_clean(),
        "{name} should be clean, got: {:?} / unused {:?}",
        report.diagnostics,
        report.unused_allows
    );
}

#[test]
fn bad_unwrap_spans() {
    let report = lint_fixture("bad_unwrap.rs");
    assert_eq!(
        spans(&report),
        vec![("no-unwrap".to_owned(), 4, 25)],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_unwrap_is_clean() {
    assert_clean("clean_unwrap.rs");
}

#[test]
fn bad_expect_spans() {
    let report = lint_fixture("bad_expect.rs");
    assert_eq!(
        spans(&report),
        vec![
            ("no-unwrap".to_owned(), 4, 25),
            ("no-unwrap".to_owned(), 5, 23),
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_expect_is_clean() {
    assert_clean("clean_expect.rs");
}

#[test]
fn bad_wall_clock_spans() {
    let report = lint_fixture("bad_wall_clock.rs");
    assert_eq!(
        spans(&report),
        vec![
            ("no-wall-clock".to_owned(), 6, 13),
            ("no-wall-clock".to_owned(), 7, 13),
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_wall_clock_is_clean() {
    assert_clean("clean_wall_clock.rs");
}

#[test]
fn bad_hash_spans() {
    let report = lint_fixture("bad_hash.rs");
    assert_eq!(
        spans(&report),
        vec![
            ("no-std-hash-collections".to_owned(), 4, 24),
            ("no-std-hash-collections".to_owned(), 4, 33),
            ("no-std-hash-collections".to_owned(), 7, 15),
            ("no-std-hash-collections".to_owned(), 8, 14),
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_hash_is_clean() {
    assert_clean("clean_hash.rs");
}

#[test]
fn bad_float_spans() {
    let report = lint_fixture("bad_float.rs");
    assert_eq!(
        spans(&report),
        vec![
            ("no-float-in-sim-path".to_owned(), 4, 20),
            ("no-float-in-sim-path".to_owned(), 5, 11),
            ("no-float-in-sim-path".to_owned(), 5, 20),
        ],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_float_is_clean() {
    assert_clean("clean_float.rs");
}

#[test]
fn bad_wildcard_spans() {
    let report = lint_fixture("bad_wildcard.rs");
    assert_eq!(
        spans(&report),
        vec![("no-wildcard-match-on-protocol-enums".to_owned(), 12, 9)],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_wildcard_is_clean() {
    assert_clean("clean_wildcard.rs");
}

#[test]
fn bad_retransmit_spans() {
    let report = lint_fixture("bad_retransmit.rs");
    assert_eq!(
        spans(&report),
        vec![("no-direct-retransmit".to_owned(), 5, 9)],
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn clean_retransmit_is_clean() {
    assert_clean("clean_retransmit.rs");
}

#[test]
fn sanctioned_retransmit_files_are_exempt() {
    // `Responder::duplicate_atomic` — the caller of the one packet
    // constructor that replays from the atomic cache — is the one
    // sanctioned home of a literal `retransmit: true`.
    for rel in ibsim_lint::config::RETRANSMIT_SANCTIONED_FILES {
        let p = ibsim_lint::config::policy_for(rel).expect("sanctioned file must still be linted");
        assert!(!p.no_direct_retransmit, "{rel}");
        assert!(p.no_unwrap, "{rel} keeps every other rule");
    }
}

#[test]
fn suppression_and_unused_suppression() {
    let report = lint_fixture("suppressed.rs");
    // Both unwrap violations are suppressed (trailing + preceding-line).
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    // The no-wall-clock allow silences nothing and is reported.
    assert_eq!(report.unused_allows.len(), 1, "{:?}", report.unused_allows);
    let u = &report.unused_allows[0];
    assert_eq!((u.rule.as_str(), u.line, u.col), ("no-wall-clock", 10, 5));
    // Unused allows fail only the deny mode.
    assert!(!report.failed(false));
    assert!(report.failed(true));
}

#[test]
fn human_output_round_trips_the_spans() {
    let report = lint_fixture("bad_wildcard.rs");
    let text = ibsim_lint::render_human(&report);
    assert!(
        text.contains("bad_wildcard.rs:12:9: [no-wildcard-match-on-protocol-enums]"),
        "{text}"
    );
}

#[test]
fn workspace_policy_exempts_fixtures() {
    // The fixture corpus itself must never be linted by --workspace
    // (it lives under tests/, outside every configured src root).
    assert!(ibsim_lint::config::policy_for("crates/lint/tests/fixtures/bad_unwrap.rs").is_none());
}
