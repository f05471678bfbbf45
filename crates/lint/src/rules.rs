//! The rule catalog and the per-file rule engine.
//!
//! Every rule walks the significant (non-comment) token stream produced
//! by [`crate::lexer`] and emits span-accurate diagnostics. Code inside
//! `#[cfg(test)] mod …` blocks is exempt from all rules, matching the
//! long-standing policy of the original grep-based lint: tests may
//! unwrap, hash, and float freely because nothing deterministic is
//! derived from them.

use crate::lexer::{Token, TokenKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `.unwrap()` calls — and `.expect(…)` calls whose message does not
    /// document a checked invariant (`invariant: …`) — in simulator
    /// code, which must degrade into counters or errors, not panics.
    NoUnwrap,
    /// `Instant::now` / `SystemTime::now` reads in simulator crates: all
    /// time comes from the event engine.
    NoWallClock,
    /// `HashMap` / `HashSet` in simulator crates: their iteration order
    /// is seeded per process and breaks cross-worker hash identity.
    NoStdHashCollections,
    /// `f32` / `f64` types and float literals in sim-time code: float
    /// arithmetic drifts across platforms; floats stay in reporting.
    NoFloatInSimPath,
    /// `_ =>` arms in matches over protocol enums: a new variant must
    /// force explicit handling everywhere.
    NoWildcardMatchOnProtocolEnums,
    /// `retransmit: true` struct-literal initializers outside the
    /// responder's duplicate-replay path: anywhere else forges recovery
    /// traffic the trace linter cannot justify.
    NoDirectRetransmit,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 6] = [
    Rule::NoUnwrap,
    Rule::NoWallClock,
    Rule::NoStdHashCollections,
    Rule::NoFloatInSimPath,
    Rule::NoWildcardMatchOnProtocolEnums,
    Rule::NoDirectRetransmit,
];

/// The enum types whose matches must stay wildcard-free: adding a
/// protocol variant (a new QP state, opcode, timer family, fabric
/// topology, cluster event, or recovery backend) must break the build
/// everywhere the variant matters, the same exhaustiveness discipline
/// the RC state-transition table enforces dynamically.
pub const PROTOCOL_ENUMS: [&str; 7] = [
    "QpState",
    "PacketKind",
    "WrOp",
    "TimerFamily",
    "TopologyKind",
    "ClusterEvent",
    "RecoveryKind",
];

impl Rule {
    /// The stable kebab-case rule ID used in diagnostics and
    /// `lint: allow(…)` suppressions.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoStdHashCollections => "no-std-hash-collections",
            Rule::NoFloatInSimPath => "no-float-in-sim-path",
            Rule::NoWildcardMatchOnProtocolEnums => "no-wildcard-match-on-protocol-enums",
            Rule::NoDirectRetransmit => "no-direct-retransmit",
        }
    }

    /// Looks a rule up by its kebab-case ID.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }
}

/// Which rules apply to one file. Produced by the workspace config in
/// [`crate::config`]; the engine itself is policy-agnostic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Policy {
    /// Enforce [`Rule::NoUnwrap`].
    pub no_unwrap: bool,
    /// Enforce [`Rule::NoWallClock`].
    pub no_wall_clock: bool,
    /// Enforce [`Rule::NoStdHashCollections`].
    pub no_std_hash_collections: bool,
    /// Enforce [`Rule::NoFloatInSimPath`].
    pub no_float_in_sim_path: bool,
    /// Enforce [`Rule::NoWildcardMatchOnProtocolEnums`].
    pub no_wildcard_match: bool,
    /// Enforce [`Rule::NoDirectRetransmit`].
    pub no_direct_retransmit: bool,
}

impl Policy {
    /// A policy with every rule enabled.
    pub fn all() -> Policy {
        Policy {
            no_unwrap: true,
            no_wall_clock: true,
            no_std_hash_collections: true,
            no_float_in_sim_path: true,
            no_wildcard_match: true,
            no_direct_retransmit: true,
        }
    }
}

/// One rule finding at an exact source position.
#[derive(Debug, Clone)]
pub struct RawDiagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Runs every enabled rule over the significant token stream `toks`
/// (comments already filtered out). `masked[i]` marks tokens inside
/// `#[cfg(test)] mod` blocks, which every rule skips.
pub fn run_rules(toks: &[Token<'_>], masked: &[bool], policy: &Policy) -> Vec<RawDiagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if masked[i] {
            continue;
        }
        if policy.no_unwrap {
            check_unwrap(toks, i, t, &mut out);
        }
        if policy.no_wall_clock {
            check_wall_clock(toks, i, t, &mut out);
        }
        if policy.no_std_hash_collections {
            check_hash_collections(t, &mut out);
        }
        if policy.no_float_in_sim_path {
            check_float(t, &mut out);
        }
        if policy.no_direct_retransmit {
            check_direct_retransmit(toks, i, t, &mut out);
        }
    }
    if policy.no_wildcard_match {
        scan_matches(toks, masked, 0, toks.len(), &mut out);
    }
    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

/// Computes the `#[cfg(test)] mod` mask: `true` for every significant
/// token inside such a block. Unlike the old line-based cutoff this
/// handles test modules anywhere in the file and never ends linting
/// early on `#[cfg(test)]`-gated imports.
pub fn test_mod_mask(toks: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if let Some(body_open) = cfg_test_mod_start(toks, i) {
            // Mask from the attribute through the matching close brace.
            let mut depth = 0usize;
            let mut j = body_open;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end = (j + 1).min(toks.len());
            for m in mask.iter_mut().take(end).skip(i) {
                *m = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If `toks[i]` starts a `#[cfg(test)]`-attributed `mod` item, returns
/// the index of the module's opening `{`.
fn cfg_test_mod_start(toks: &[Token<'_>], i: usize) -> Option<usize> {
    // #[cfg(test)]
    if !(toks[i].is_punct('#')
        && toks.get(i + 1)?.is_punct('[')
        && toks.get(i + 2)?.is_ident("cfg")
        && toks.get(i + 3)?.is_punct('(')
        && toks.get(i + 4)?.is_ident("test")
        && toks.get(i + 5)?.is_punct(')')
        && toks.get(i + 6)?.is_punct(']'))
    {
        return None;
    }
    // Skip any further attributes between the cfg and the item.
    let mut j = i + 7;
    while toks.get(j)?.is_punct('#') && toks.get(j + 1)?.is_punct('[') {
        let mut depth = 0usize;
        let mut k = j + 1;
        while k < toks.len() {
            if toks[k].is_punct('[') {
                depth += 1;
            } else if toks[k].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        j = k + 1;
    }
    if !toks.get(j)?.is_ident("mod") {
        return None;
    }
    // mod <name> { … }   (a `mod name;` declaration has no body here)
    let mut k = j + 1;
    while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
        k += 1;
    }
    if toks.get(k)?.is_punct('{') {
        Some(k)
    } else {
        None
    }
}

/// True for a string literal whose content starts with `invariant: ` —
/// the marker that turns an `.expect(…)` into a *documented* invariant
/// check the no-unwrap rule accepts. Handles plain, byte and raw string
/// forms (`"…"`, `b"…"`, `r"…"`, `r#"…"#`).
fn is_invariant_message(t: &Token<'_>) -> bool {
    if t.kind != TokenKind::Str {
        return false;
    }
    let body = t
        .text
        .trim_start_matches(['b', 'r'])
        .trim_start_matches('#');
    body.strip_prefix('"')
        .is_some_and(|rest| rest.starts_with("invariant: "))
}

fn check_unwrap(toks: &[Token<'_>], i: usize, t: &Token<'_>, out: &mut Vec<RawDiagnostic>) {
    if t.is_ident("unwrap")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
    {
        out.push(RawDiagnostic {
            rule: Rule::NoUnwrap,
            line: t.line,
            col: t.col,
            message: "`.unwrap()` in simulator code (count a failure or return an error)"
                .to_owned(),
        });
    }
    // `.expect(…)` is an unwrap in disguise unless its message documents
    // a checked invariant (a string literal starting `invariant: `).
    if t.is_ident("expect")
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && !toks.get(i + 2).is_some_and(is_invariant_message)
    {
        out.push(RawDiagnostic {
            rule: Rule::NoUnwrap,
            line: t.line,
            col: t.col,
            message: "`.expect(…)` in simulator code (return an error, or document a \
                      checked invariant with a message starting `invariant: `)"
                .to_owned(),
        });
    }
}

fn check_wall_clock(toks: &[Token<'_>], i: usize, t: &Token<'_>, out: &mut Vec<RawDiagnostic>) {
    let clock = t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime");
    if clock
        && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
    {
        out.push(RawDiagnostic {
            rule: Rule::NoWallClock,
            line: t.line,
            col: t.col,
            message: format!(
                "wall-clock read `{}::now` in simulator code (all time must come from \
                 the event engine)",
                t.text
            ),
        });
    }
}

fn check_hash_collections(t: &Token<'_>, out: &mut Vec<RawDiagnostic>) {
    if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
        out.push(RawDiagnostic {
            rule: Rule::NoStdHashCollections,
            line: t.line,
            col: t.col,
            message: format!(
                "`{}` in simulator code: iteration order is seeded per process and \
                 breaks cross-worker determinism (use BTree{} instead)",
                t.text,
                if t.text == "HashMap" { "Map" } else { "Set" },
            ),
        });
    }
}

fn check_float(t: &Token<'_>, out: &mut Vec<RawDiagnostic>) {
    let offending = match t.kind {
        TokenKind::Ident if t.text == "f32" || t.text == "f64" => Some(t.text.to_owned()),
        TokenKind::Float => Some(format!("float literal `{}`", t.text)),
        _ => None,
    };
    if let Some(what) = offending {
        out.push(RawDiagnostic {
            rule: Rule::NoFloatInSimPath,
            line: t.line,
            col: t.col,
            message: format!(
                "{what} in sim-time code (use integer arithmetic, e.g. \
                 SimTime::mul_permille; floats stay in reporting)"
            ),
        });
    }
}

fn check_direct_retransmit(
    toks: &[Token<'_>],
    i: usize,
    t: &Token<'_>,
    out: &mut Vec<RawDiagnostic>,
) {
    // The needle is the struct-literal initializer `retransmit: true`.
    // Field shorthand (`retransmit,`), variable initializers
    // (`retransmit: is_retx`), and the field declaration
    // (`retransmit: bool`) all stay legal: only hard-coding the flag on
    // forges a retransmission the backend never selected. The preceding
    // token must not be a second `:` so paths never match.
    if t.is_ident("retransmit")
        && !(i > 0 && toks[i - 1].is_punct(':'))
        && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && toks.get(i + 2).is_some_and(|n| n.is_ident("true"))
    {
        out.push(RawDiagnostic {
            rule: Rule::NoDirectRetransmit,
            line: t.line,
            col: t.col,
            message: "`retransmit: true` outside the requester's resend path (the flag is \
                      threaded through `build_request_packet` for messages the recovery \
                      backend selected; see the sanctioned-file list in the lint config)"
                .to_owned(),
        });
    }
}

/// Recursively scans `toks[lo..hi]` for `match` expressions and flags
/// bare `_ =>` arms in matches whose patterns (or guards) reference one
/// of [`PROTOCOL_ENUMS`].
fn scan_matches(
    toks: &[Token<'_>],
    masked: &[bool],
    lo: usize,
    hi: usize,
    out: &mut Vec<RawDiagnostic>,
) {
    let mut i = lo;
    while i < hi {
        if toks[i].is_ident("match") && !masked[i] {
            i = scan_one_match(toks, masked, i, hi, out);
        } else {
            i += 1;
        }
    }
}

/// Scans one `match` expression starting at the `match` keyword at `m`;
/// returns the index just past its closing brace (or `hi` on malformed
/// input, which ends the scan gracefully).
fn scan_one_match(
    toks: &[Token<'_>],
    masked: &[bool],
    m: usize,
    hi: usize,
    out: &mut Vec<RawDiagnostic>,
) -> usize {
    // Find the body-opening `{`: the first `{` at bracket depth zero.
    // Struct literals cannot appear unparenthesized in a match scrutinee,
    // so braces at depth zero can only open the body.
    let mut depth = 0usize;
    let mut j = m + 1;
    let body_open = loop {
        if j >= hi {
            return hi;
        }
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('{') {
            if depth == 0 {
                break j;
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        }
        j += 1;
    };
    // The scrutinee may itself contain a match (inside a closure).
    scan_matches(toks, masked, m + 1, body_open, out);

    let mut enum_used = false;
    let mut wildcards: Vec<(u32, u32)> = Vec::new();
    let mut i = body_open + 1;
    loop {
        // ---- pattern position (and guard), up to `=>` ----
        let mut depth = 0usize;
        let guard_or_arrow = loop {
            if i >= hi {
                return hi;
            }
            let t = &toks[i];
            if t.is_punct('}') && depth == 0 {
                // End of the match body.
                if enum_used {
                    for (line, col) in wildcards {
                        out.push(RawDiagnostic {
                            rule: Rule::NoWildcardMatchOnProtocolEnums,
                            line,
                            col,
                            message: "`_ =>` arm in a match over a protocol enum (spell \
                                      every variant so new ones force explicit handling)"
                                .to_owned(),
                        });
                    }
                }
                return i + 1;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if t.kind == TokenKind::Ident
                && PROTOCOL_ENUMS.contains(&t.text)
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            {
                enum_used = true;
            } else if t.is_ident("_")
                && depth == 0
                && toks.get(i + 1).is_some_and(|n| {
                    n.is_ident("if")
                        || (n.is_punct('=')
                            && toks[i + 2..hi.min(toks.len())]
                                .first()
                                .is_some_and(|g| g.is_punct('>')))
                })
            {
                wildcards.push((t.line, t.col));
            } else if t.is_punct('=')
                && depth == 0
                && toks.get(i + 1).is_some_and(|n| n.is_punct('>'))
            {
                break i;
            }
            i += 1;
        };
        // The guard (between pattern and `=>`) may hold nested matches;
        // patterns cannot, so scanning the whole span is harmless.
        let _ = guard_or_arrow;
        i += 2; // step over `=>`

        // ---- arm body: `{ … }` or an expression up to `,` / `}` ----
        if i < hi && toks[i].is_punct('{') {
            let mut depth = 0usize;
            let body_start = i;
            while i < hi {
                if toks[i].is_punct('{') {
                    depth += 1;
                } else if toks[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i += 1;
            }
            scan_matches(toks, masked, body_start + 1, i, out);
            i += 1; // past the body's `}`
            if i < hi && toks[i].is_punct(',') {
                i += 1;
            }
        } else {
            let body_start = i;
            let mut depth = 0usize;
            while i < hi {
                let t = &toks[i];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct('}') {
                    if depth == 0 {
                        break; // end of the match body, handled above
                    }
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                i += 1;
            }
            scan_matches(toks, masked, body_start, i, out);
            if i < hi && toks[i].is_punct(',') {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, policy: Policy) -> Vec<RawDiagnostic> {
        let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        let mask = test_mod_mask(&toks);
        run_rules(&toks, &mask, &policy)
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn unwrap_is_token_exact() {
        let diags = run("fn f() { x.unwrap(); }", Policy::all());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::NoUnwrap);
        // Mentioning unwrap() in a string or comment is fine.
        let clean = run(
            "// x.unwrap() here\nfn f() { let s = \"y.unwrap()\"; }",
            Policy::all(),
        );
        assert!(clean.is_empty(), "{clean:?}");
        // unwrap_or is not unwrap.
        assert!(run("fn f() { x.unwrap_or(0); }", Policy::all()).is_empty());
    }

    #[test]
    fn bare_expect_is_flagged_like_unwrap() {
        let diags = run("fn f() { x.expect(\"oops\"); }", Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::NoUnwrap);
        // Non-literal messages are also flagged: they cannot be audited
        // as invariant documentation.
        let dynamic = run("fn f() { x.expect(msg); }", Policy::all());
        assert_eq!(dynamic.len(), 1, "{dynamic:?}");
        // expect_err and similar are different methods.
        assert!(run("fn f() { x.expect_err(\"e\"); }", Policy::all()).is_empty());
        // Mentions in strings/comments stay clean.
        assert!(run("// x.expect(\"e\")\nfn f() {}", Policy::all()).is_empty());
    }

    #[test]
    fn documented_invariant_expect_is_accepted() {
        let ok = run(
            "fn f() { x.expect(\"invariant: heap non-empty, just pushed\"); }",
            Policy::all(),
        );
        assert!(ok.is_empty(), "{ok:?}");
        let raw = run(
            "fn f() { x.expect(r\"invariant: checked above\"); }",
            Policy::all(),
        );
        assert!(raw.is_empty(), "{raw:?}");
        // The marker must be a prefix, not buried mid-message.
        let buried = run(
            "fn f() { x.expect(\"broke an invariant: bad\"); }",
            Policy::all(),
        );
        assert_eq!(buried.len(), 1, "{buried:?}");
    }

    #[test]
    fn wall_clock_needs_the_full_path() {
        let diags = run("fn f() { let t = Instant::now(); }", Policy::all());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::NoWallClock);
        assert!(run("fn f() { let t = now(); }", Policy::all()).is_empty());
    }

    #[test]
    fn hash_collections_flag_imports_and_types() {
        let diags = run(
            "use std::collections::HashMap;\nfn f(s: HashSet<u32>) {}",
            Policy::all(),
        );
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == Rule::NoStdHashCollections));
    }

    #[test]
    fn floats_flag_types_and_literals() {
        let diags = run("fn f(x: f64) -> f32 { (x * 1.5) as f32 }", Policy::all());
        let floats: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::NoFloatInSimPath)
            .collect();
        assert_eq!(floats.len(), 4, "{floats:?}");
    }

    #[test]
    fn wildcard_on_protocol_enum_is_flagged() {
        let src = "fn f(k: PacketKind) -> u32 {\n    match k {\n        \
                   PacketKind::Ack => 1,\n        _ => 0,\n    }\n}\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::NoWildcardMatchOnProtocolEnums);
        assert_eq!((diags[0].line, diags[0].col), (4, 9));
    }

    #[test]
    fn wildcard_on_other_enums_is_fine() {
        let src = "fn f(k: Option<u32>) -> u32 { match k { Some(v) => v, _ => 0 } }";
        assert!(run(src, Policy::all()).is_empty());
    }

    #[test]
    fn nested_underscore_in_tuple_pattern_is_fine() {
        let src = "fn f(k: PacketKind, b: bool) -> u32 {\n    match (k, b) {\n        \
                   (PacketKind::Ack, _) => 1,\n        (PacketKind::Nak(_), true) => 2,\n        \
                   (PacketKind::Send { .. }, false) => 3,\n    }\n}\n";
        assert!(run(src, Policy::all()).is_empty());
    }

    #[test]
    fn enum_in_arm_body_does_not_taint_the_match() {
        // The enum appears only on the *result* side; the match itself is
        // over a tuple of integers.
        let src = "fn f(i: u32, t: u32) -> PacketKind {\n    match (i, t) {\n        \
                   (0, _) => PacketKind::Ack,\n        _ => PacketKind::Ack,\n    }\n}\n";
        assert!(run(src, Policy::all()).is_empty());
    }

    #[test]
    fn nested_match_in_arm_body_is_scanned() {
        let src = "fn f(a: QpState, b: QpState) -> u32 {\n    match a {\n        \
                   QpState::Rts => match b {\n            QpState::Rts => 1,\n            \
                   _ => 0,\n        },\n        QpState::Error => 9,\n    }\n}\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].col), (5, 13));
    }

    #[test]
    fn wildcard_with_guard_is_flagged() {
        let src = "fn f(k: TimerFamily, n: u32) -> u32 {\n    match k {\n        \
                   TimerFamily::Ack => 1,\n        _ if n > 0 => 2,\n        _ => 0,\n    }\n}\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn wildcard_over_cluster_events_is_flagged() {
        // A later event variant must not be able to fall into a `_` arm
        // of `ClusterEvent::fire`.
        let src = "fn fire(ev: ClusterEvent) {\n    match ev {\n        \
                   ClusterEvent::Deliver { host, pkt } => deliver(host, pkt),\n        \
                   ClusterEvent::Call(f) => f(),\n        _ => {}\n    }\n}\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::NoWildcardMatchOnProtocolEnums);
        assert_eq!((diags[0].line, diags[0].col), (5, 9));
    }

    #[test]
    fn wildcard_over_recovery_kinds_is_flagged() {
        // The set of backends is closed so that a fourth one breaks the
        // build at every decision site; a `_` arm would swallow it.
        let src = "fn blind(k: RecoveryKind) -> bool {\n    match k {\n        \
                   RecoveryKind::SelectiveRepeat => false,\n        _ => true,\n    }\n}\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::NoWildcardMatchOnProtocolEnums);
        assert_eq!((diags[0].line, diags[0].col), (4, 9));
    }

    #[test]
    fn direct_retransmit_literal_is_flagged() {
        let diags = run(
            "fn f() { let p = Packet { psn, retransmit: true }; }",
            Policy::all(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::NoDirectRetransmit);
    }

    #[test]
    fn lawful_retransmit_spellings_stay_clean() {
        // Field shorthand: the value came from somewhere with authority.
        assert!(run("fn f() { let p = Packet { retransmit }; }", Policy::all()).is_empty());
        // A computed flag is the backend's decision, not a forged one.
        assert!(run(
            "fn f() { let p = Packet { retransmit: is_retx }; }",
            Policy::all()
        )
        .is_empty());
        // The field declaration itself.
        assert!(run("struct Packet { retransmit: bool }", Policy::all()).is_empty());
        // Turning the flag *off* is always fine.
        assert!(run(
            "fn f() { let p = Packet { retransmit: false }; }",
            Policy::all()
        )
        .is_empty());
        // Mentions in comments and strings never fire.
        assert!(run(
            "// retransmit: true\nfn f() { let s = \"retransmit: true\"; }",
            Policy::all()
        )
        .is_empty());
    }

    #[test]
    fn test_mod_is_exempt_from_all_rules() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    \
                   fn t() { x.unwrap(); let f = 1.5f64; }\n}\n";
        assert!(run(src, Policy::all()).is_empty());
    }

    #[test]
    fn cfg_test_on_imports_does_not_end_linting() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn bad() { x.unwrap(); }\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn policy_gates_rules() {
        let src = "fn f() { x.unwrap(); let h: HashMap<u32, u32> = HashMap::new(); }";
        let only_unwrap = Policy {
            no_unwrap: true,
            ..Policy::default()
        };
        let diags = run(src, only_unwrap);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::NoUnwrap);
    }

    #[test]
    fn match_in_scrutinee_is_scanned() {
        let src =
            "fn f(v: Vec<QpState>) -> usize {\n    match v.iter().map(|s| match s {\n        \
                   QpState::Rts => 1,\n        _ => 0,\n    }).sum::<usize>() {\n        \
                   0 => 0,\n        n => n,\n    }\n}\n";
        let diags = run(src, Policy::all());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }
}
