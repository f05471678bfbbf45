//! `ibsim-lint` — the in-tree token-level determinism analyzer.
//!
//! Every gate this workspace lives by (damming/flood golden FNV hashes,
//! telemetry JSONL byte-identity, the scenario corpus's 1-vs-N-worker
//! hash identity) assumes the simulator is bit-deterministic. This
//! crate enforces the construction-time half of that property: a
//! dependency-free, comment- and string-literal-aware Rust lexer
//! ([`lexer`]) feeds a rule engine ([`rules`]) that walks every
//! simulator crate's source as a token stream and reports span-accurate
//! `file:line:col` diagnostics for the five determinism rules. See
//! [`rules::ALL_RULES`] for the catalog and [`config`] for the
//! per-crate scoping policy; [`suppress`] implements the
//! `// lint: allow(<rule>)` escape hatch with unused-suppression
//! detection.
//!
//! Like the rest of the workspace, this crate is hermetic: no external
//! dependencies, no proc macros, no network.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod suppress;

use std::path::{Path, PathBuf};

use rules::Policy;

/// One reportable finding, bound to a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Kebab-case rule ID (`"no-unwrap"`, …, or `"malformed-allow"`
    /// for a suppression naming no known rule).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A `lint: allow` that silenced nothing.
#[derive(Debug, Clone)]
pub struct UnusedAllow {
    /// The rule the suppression names.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
}

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations and malformed suppressions, in file/span order.
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressions that silenced nothing.
    pub unused_allows: Vec<UnusedAllow>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the run found nothing to report at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.unused_allows.is_empty()
    }

    /// Whether the run should fail CI. Unused allows only fail in
    /// `deny_unused_allows` mode (they are always *printed*).
    pub fn failed(&self, deny_unused_allows: bool) -> bool {
        !self.diagnostics.is_empty() || (deny_unused_allows && !self.unused_allows.is_empty())
    }
}

/// Lints one source string under the given policy. `file` is used
/// verbatim in the returned spans.
pub fn lint_source(file: &str, src: &str, policy: &Policy) -> Report {
    let all = lexer::lex(src);
    let (mut allows, bad) = suppress::collect_allows(&all);
    let toks: Vec<_> = all.into_iter().filter(|t| !t.is_comment()).collect();
    let mask = rules::test_mod_mask(&toks);
    let raw = rules::run_rules(&toks, &mask, policy);
    let kept = suppress::apply_allows(raw, &mut allows);

    let mut diagnostics: Vec<Diagnostic> = kept
        .into_iter()
        .map(|d| Diagnostic {
            rule: d.rule.id().to_owned(),
            file: file.to_owned(),
            line: d.line,
            col: d.col,
            message: d.message,
        })
        .collect();
    diagnostics.extend(bad.into_iter().map(|b| Diagnostic {
        rule: "malformed-allow".to_owned(),
        file: file.to_owned(),
        line: b.line,
        col: b.col,
        message: format!("`lint: allow({})` names no known rule", b.name),
    }));
    diagnostics.sort_by_key(|a| (a.line, a.col));

    let unused_allows = allows
        .into_iter()
        .filter(|a| !a.used)
        .map(|a| UnusedAllow {
            rule: a.rule.id().to_owned(),
            file: file.to_owned(),
            line: a.line,
            col: a.col,
        })
        .collect();

    Report {
        diagnostics,
        unused_allows,
        files_scanned: 1,
    }
}

/// Lints one file on disk, deriving the policy from its
/// workspace-relative path (falling back to every rule for paths
/// outside the configured roots).
pub fn lint_path(root: &Path, path: &Path) -> std::io::Result<Report> {
    let rel = rel_name(root, path);
    let src = std::fs::read_to_string(path)?;
    let policy = config::policy_for(&rel).unwrap_or_else(Policy::all);
    Ok(lint_source(&rel, &src, &policy))
}

/// Lints every configured source root under `root`, in deterministic
/// file order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for rc in config::ROOTS {
        let src_dir = if rc.dir == "src" {
            root.join("src")
        } else {
            root.join(rc.dir).join("src")
        };
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files);
        files.sort();
        for file in files {
            let rel = rel_name(root, &file);
            let Some(policy) = config::policy_for(&rel) else {
                continue;
            };
            let src = std::fs::read_to_string(&file)?;
            let one = lint_source(&rel, &src, &policy);
            report.diagnostics.extend(one.diagnostics);
            report.unused_allows.extend(one.unused_allows);
            report.files_scanned += 1;
        }
    }
    Ok(report)
}

/// Renders a report the way humans read it: one `file:line:col` line
/// per finding, then a summary.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            d.file, d.line, d.col, d.rule, d.message
        ));
    }
    for u in &report.unused_allows {
        out.push_str(&format!(
            "{}:{}:{}: [unused-allow] `lint: allow({})` suppresses nothing on this or \
             the next line\n",
            u.file, u.line, u.col, u.rule
        ));
    }
    out.push_str(&format!(
        "[ibsim-lint] {} file(s) scanned, {} violation(s), {} unused allow(s)\n",
        report.files_scanned,
        report.diagnostics.len(),
        report.unused_allows.len()
    ));
    out
}

fn rel_name(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_failure_modes() {
        let mut r = Report::default();
        assert!(r.is_clean() && !r.failed(true));
        r.unused_allows.push(UnusedAllow {
            rule: "no-unwrap".to_owned(),
            file: "x.rs".to_owned(),
            line: 1,
            col: 1,
        });
        assert!(!r.failed(false));
        assert!(r.failed(true));
        r.diagnostics.push(Diagnostic {
            rule: "no-unwrap".to_owned(),
            file: "x.rs".to_owned(),
            line: 2,
            col: 3,
            message: "m".to_owned(),
        });
        assert!(r.failed(false));
    }

    #[test]
    fn render_human_pins_the_span_format() {
        let r = lint_source(
            "crates/verbs/src/x.rs",
            "fn f() { y.unwrap(); }\n",
            &rules::Policy::all(),
        );
        let text = render_human(&r);
        assert!(
            text.contains("crates/verbs/src/x.rs:1:12: [no-unwrap]"),
            "{text}"
        );
    }
}
