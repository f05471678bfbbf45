//! End-to-end conformance: every paper-derived corpus scenario must
//! pass the differential oracle, and the parallel runner must produce
//! identical hashes for different worker counts on the real corpus.

use ibsim_event::fnv1a;
use ibsim_scenario::{paper_corpus, random_scenario, run_corpus, run_scenario};

#[test]
fn corpus_is_oracle_clean() {
    let corpus = paper_corpus();
    let out = run_corpus(&corpus, 4);
    assert_eq!(out.len(), corpus.len());
    let failing: Vec<String> = out
        .iter()
        .filter(|o| o.violations > 0)
        .map(|o| format!("{}:\n{}", o.name, o.report))
        .collect();
    assert!(failing.is_empty(), "{}", failing.join("\n"));
}

#[test]
fn corpus_hashes_are_worker_count_independent() {
    let corpus = paper_corpus();
    let one = run_corpus(&corpus, 1);
    let four = run_corpus(&corpus, 4);
    assert_eq!(one, four);
}

/// `trace_hash` is streamed into the hasher; it must equal FNV-1a over
/// the preimage rendered out: `timeline()`, then the client and the
/// server memory image.
#[test]
fn trace_hash_is_fnv1a_of_the_rendered_preimage() {
    let fuzz = (0..64).map(random_scenario);
    for sc in paper_corpus().into_iter().chain(fuzz) {
        let run = run_scenario(&sc);
        let mut preimage = run.timeline().into_bytes();
        preimage.extend_from_slice(&run.client_mem);
        preimage.extend_from_slice(&run.server_mem);
        assert_eq!(run.trace_hash, fnv1a(&preimage), "{}", sc.name);
    }
}
