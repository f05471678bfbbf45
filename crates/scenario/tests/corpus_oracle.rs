//! End-to-end conformance: every paper-derived corpus scenario must
//! pass the differential oracle, and the parallel runner must produce
//! identical hashes for different worker counts on the real corpus.

use ibsim_bench::perftest::{PerfConfig, PerfTest};
use ibsim_event::{fnv1a, SimTime};
use ibsim_scenario::{paper_corpus, random_scenario, run_corpus, run_scenario, Scenario, WrSpec};
use ibsim_verbs::PAGE_SIZE;

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
/// server memory image. Besides the corpus and 64 fuzz seeds (every
/// region under a page), two multi-page cases walk the page view: a
/// `perftest` WRITE bandwidth cell of whole pages, and a Fig. 3 loop
/// over two whole pages and a tail, with a READ and a WRITE landing
/// on each.
#[test]
fn trace_hash_is_fnv1a_of_the_rendered_preimage() {
    let fuzz = (0..64).map(random_scenario);
    let perf = PerfConfig {
        size: PAGE_SIZE as u32,
        iterations: 4,
        warmup: 1,
        ..PerfConfig::default()
    };
    let mut fig3 = Scenario::fig3_loop(3, 1, 3000, SimTime::ZERO);
    fig3.wrs[1].1 = WrSpec::Write {
        off: 3000,
        len: 3000,
    };
    let multi_page = [perf.cell(PerfTest::WriteBw), fig3];
    for sc in &multi_page {
        sc.validate().expect("a valid multi-page case");
        assert!(sc.region_len() >= 2 * PAGE_SIZE, "{}", sc.name);
    }
    assert_ne!(multi_page[1].region_len() % PAGE_SIZE, 0, "a partial tail");
    for sc in paper_corpus().into_iter().chain(fuzz).chain(multi_page) {
        let run = run_scenario(&sc);
        let mut preimage = run.timeline().into_bytes();
        for page in run.client_mem.iter().chain(&run.server_mem) {
            preimage.extend(page.iter());
        }
        assert_eq!(
            preimage.len(),
            run.timeline().len() + 2 * sc.region_len() as usize
        );
        assert_eq!(run.trace_hash, fnv1a(&preimage), "{}", sc.name);
    }
}
