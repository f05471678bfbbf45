//! A seeded byte-level fuzz of [`Scenario::parse`]. Every paper-corpus
//! spec string is mutated — `interval_ns` stretched to where the clock
//! runs out, `slot` to where the address space does, numbers swapped for
//! the edges of their types, bytes overwritten, inserted and removed —
//! and the parser must answer each with an error or with a scenario that
//! re-validates, round-trips through [`Scenario::to_spec_string`], keeps
//! every span and its post schedule inside `u64` without wrapping and
//! its region below the address ceiling. It must never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ibsim_event::SplitMix64;
use ibsim_scenario::{paper_corpus, Layout, Scenario};
use ibsim_verbs::{Memory, PAGE_SIZE};

/// Replacement numbers: zero, `u32::MAX`, `u64::MAX` and `u64::MAX - 7`.
const EDGES: [&str; 4] = [
    "0",
    "4294967295",
    "18446744073709551615",
    "18446744073709551608",
];

/// The drain budget a run grants past its last post, in nanoseconds.
const DRAIN_NS: u64 = 30_000_000_000;

/// `spec` with its `interval_ns` redrawn at the edge of the clock: the
/// largest interval whose posts and drain budget fit in `u64`, or one
/// more.
fn stretch_interval(spec: &str, rng: &mut SplitMix64) -> String {
    let posts = spec.matches("\nwr=").count().max(1) as u64;
    let interval = (u64::MAX - DRAIN_NS) / posts + rng.next_below(2);
    spec.lines()
        .map(|line| match line.strip_prefix("interval_ns=") {
            Some(_) => format!("interval_ns={interval}\n"),
            None => format!("{line}\n"),
        })
        .collect()
}

/// The largest region a host can allocate: its first buffer starts
/// above the zero page.
const REGION_CEILING: u64 = Memory::ADDR_LIMIT - PAGE_SIZE;

/// `spec` with its `slot` redrawn at the address ceiling: the largest
/// slot whose `qps` windows fit below it, or one more.
fn stretch_region(spec: &str, rng: &mut SplitMix64) -> String {
    let qps = spec
        .lines()
        .find_map(|l| l.strip_prefix("qps=")?.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    let slot = REGION_CEILING / qps + rng.next_below(2);
    spec.lines()
        .map(|line| match line.strip_prefix("slot=") {
            Some(_) => format!("slot={slot}\n"),
            None => format!("{line}\n"),
        })
        .collect()
}

/// The byte ranges of `text`'s decimal numbers.
fn numbers(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, b) in text.iter().chain([&b' ']).enumerate() {
        match (start, b.is_ascii_digit()) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// `spec` with up to three numbers replaced by edge values, then up to
/// three bytes overwritten, inserted or removed.
fn mutate(spec: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = spec.as_bytes().to_vec();
    let spans = numbers(&bytes);
    let mut picks: Vec<(usize, usize)> = (0..rng.next_below(4))
        .map(|_| spans[rng.next_below(spans.len() as u64) as usize])
        .collect();
    // Back to front, so an earlier range stays where it was.
    picks.sort_unstable();
    picks.dedup();
    for &(s, e) in picks.iter().rev() {
        let edge = EDGES[rng.next_below(EDGES.len() as u64) as usize];
        bytes.splice(s..e, edge.bytes());
    }
    for _ in 0..rng.next_below(4) {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        let byte = rng.next_u64() as u8;
        match rng.next_below(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What every accepted scenario must satisfy, checked without trusting
/// `validate`'s arithmetic.
fn assert_accepted_is_sound(sc: &Scenario, text: &str) {
    assert_eq!(sc.validate(), Ok(()), "{text:?}");
    let region = match sc.layout {
        Layout::Disjoint => (sc.qps as u64).checked_mul(sc.slot),
        Layout::Shared => Some(sc.slot),
    };
    assert!(
        region.is_some_and(|r| r <= REGION_CEILING),
        "region past the ceiling: {text:?}"
    );
    for &(_, wr) in &sc.wrs {
        let (off, len) = wr.footprint();
        let end = off.checked_add(len);
        assert!(
            end.is_some_and(|e| e <= sc.slot),
            "{wr:?} escapes: {text:?}"
        );
    }
    let deadline = (sc.wrs.len() as u64)
        .checked_mul(sc.post_interval_ns)
        .and_then(|posts| posts.checked_add(DRAIN_NS));
    assert!(deadline.is_some(), "post schedule overflows: {text:?}");
    let again = Scenario::parse(&sc.to_spec_string());
    assert_eq!(again.as_ref(), Ok(sc), "no round trip: {text:?}");
}

#[test]
fn parsing_mutated_corpus_specs_never_panics_and_every_ok_round_trips() {
    let specs: Vec<String> = paper_corpus()
        .iter()
        .map(Scenario::to_spec_string)
        .collect();
    let mut rng = SplitMix64::new(0x5ce7);
    let (mut accepted, mut stretched, mut widened) = (0, [0; 2], [0; 2]);
    for _ in 0..4096 {
        let mut spec = specs[rng.next_below(specs.len() as u64) as usize].clone();
        let stretch = rng.next_below(4) == 0;
        if stretch {
            spec = stretch_interval(&spec, &mut rng);
        }
        let widen = rng.next_below(4) == 0;
        if widen {
            spec = stretch_region(&spec, &mut rng);
        }
        let text = mutate(&spec, &mut rng);
        let parsed = catch_unwind(AssertUnwindSafe(|| Scenario::parse(&text)));
        let Ok(parsed) = parsed else {
            panic!("Scenario::parse panicked on {text:?}");
        };
        if stretch {
            stretched[usize::from(parsed.is_ok())] += 1;
        }
        if widen {
            widened[usize::from(parsed.is_ok())] += 1;
        }
        if let Ok(sc) = parsed {
            accepted += 1;
            assert_accepted_is_sound(&sc, &text);
        }
    }
    assert!(
        accepted > 200,
        "the fuzz must reach the Ok side: {accepted}"
    );
    assert!(
        stretched.iter().all(|&n| n > 50),
        "stretched intervals must land on both sides: {stretched:?}"
    );
    assert!(
        widened.iter().all(|&n| n > 50),
        "stretched regions must land on both sides: {widened:?}"
    );
}
