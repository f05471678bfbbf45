//! The `ibsim-lint` CLI.
//!
//! ```text
//! cargo run -p ibsim-lint -- --workspace                       # lint every crate
//! cargo run -p ibsim-lint -- --workspace --deny-unused-allows  # CI mode
//! cargo run -p ibsim-lint -- path/to/file.rs                    # one file
//! ```
//!
//! Flags:
//!
//! * `--workspace` — lint every configured source root (the default
//!   when no file arguments are given);
//! * `--deny-unused-allows` — a `lint: allow` that suppresses nothing
//!   fails the run (CI mode; unused allows are always printed);
//! * `--root <dir>` — workspace root (defaults to the root this binary
//!   was built from).
//!
//! Exits non-zero if any diagnostic survives suppression, or in
//! `--deny-unused-allows` mode if any suppression is stale.

use std::path::{Path, PathBuf};

fn main() {
    let mut deny_unused = false;
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-unused-allows" => deny_unused = true,
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => fail_usage("--root requires a directory argument"),
            },
            other if other.starts_with('-') => fail_usage(&format!("unknown flag `{other}`")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if workspace && !files.is_empty() {
        fail_usage("--workspace and explicit file arguments are mutually exclusive");
    }

    let root = root.unwrap_or_else(default_root);
    let result = if files.is_empty() {
        ibsim_lint::lint_workspace(&root)
    } else {
        lint_files(&root, &files)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[ibsim-lint] error: {e}");
            std::process::exit(2);
        }
    };

    print!("{}", ibsim_lint::render_human(&report));
    if report.failed(deny_unused) {
        std::process::exit(1);
    }
}

fn lint_files(root: &Path, files: &[PathBuf]) -> std::io::Result<ibsim_lint::Report> {
    let mut report = ibsim_lint::Report::default();
    for file in files {
        let one = ibsim_lint::lint_path(root, file)?;
        report.diagnostics.extend(one.diagnostics);
        report.unused_allows.extend(one.unused_allows);
        report.files_scanned += one.files_scanned;
    }
    Ok(report)
}

/// The workspace root this binary was built from: the lint crate's
/// manifest dir is `<root>/crates/lint`.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("[ibsim-lint] {msg}");
    eprintln!(
        "usage: ibsim-lint [--workspace] [--deny-unused-allows] \
         [--root <dir>] [files…]"
    );
    std::process::exit(2);
}
