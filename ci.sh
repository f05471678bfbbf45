#!/usr/bin/env bash
# Repository CI: static checks, full test suite, and the pitfall-probe
# golden runs. Everything is offline.
set -euo pipefail
cd "$(dirname "$0")"

# The value GOLDENS pins under the name $1: the rest of its line.
golden() { awk -v n="$1" '$1 == n { sub(/^[^ ]+ /, ""); print }' GOLDENS; }

# Prints the cksum of the file $2 beside the GOLDENS entry $1; a drift
# fails ci.sh at the end, once every pin has reported.
drifted=""
pin() {
    local got want
    got=$(cksum < "$2") want=$(golden "$1")
    echo "    pin $1: $got (GOLDENS: $want)"
    [ "$got" = "$want" ] || drifted+=" $1"
}

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> legible: DESIGN.md at most 25 600 B and README.md at most 12 288 B;"
echo "    every numbered DESIGN section reference in Rust, TOML and shell"
echo "    files, README, EXPERIMENTS and SKILL.md, and every numbered §"
echo "    reference inside DESIGN.md, names a heading"
design_bytes=$(wc -c < DESIGN.md)
readme_bytes=$(wc -c < README.md)
if [ "$design_bytes" -gt 25600 ] || [ "$readme_bytes" -gt 12288 ]; then
    echo "ci: DESIGN.md is $design_bytes B (limit 25600), README.md $readme_bytes B (limit 12288)" >&2
    exit 1
fi
design_headings=$(grep -oE '^#+ [0-9]+(\.[0-9]+)*' DESIGN.md | grep -oE '[0-9]+(\.[0-9]+)*$')
design_refs=$(
    {
        grep -rnoE --include='*.rs' --include='*.toml' --include='*.sh' --include=SKILL.md \
            --include=README.md --include=EXPERIMENTS.md --exclude-dir=target --exclude-dir=.git \
            'DESIGN(\.md)?`? (§)?[0-9]+(\.[0-9]+)*' . || true
        grep -noE '§[0-9]+(\.[0-9]+)*' DESIGN.md | sed 's/^/DESIGN.md:/' || true
    }
)
dangling=0
while IFS= read -r ref; do
    [ -n "$ref" ] || continue
    number=$(grep -oE '[0-9]+(\.[0-9]+)*$' <<< "$ref")
    if ! grep -qxF "$number" <<< "$design_headings"; then
        echo "ci: $ref names no DESIGN.md heading" >&2
        dangling=1
    fi
done <<< "$design_refs"
if [ "$dangling" -ne 0 ]; then
    exit 1
fi

echo "==> goldens: each GOLDENS name is unique and quoted by ci.sh or a Rust file"
golden_names=$(grep -vE '^(#|$)' GOLDENS | cut -d' ' -f1)
for name in $golden_names; do
    if [ "$(grep -cxF "$name" <<< "$golden_names")" -ne 1 ] ||
        ! grep -rqF --include='*.rs' --include=ci.sh --exclude-dir=target "\"$name\"" .; then
        echo "ci: the GOLDENS entry $name is named twice or read by nothing" >&2
        exit 1
    fi
done

echo "==> one world language: only core/src/microbench.rs names the wrapper"
echo "    benchmark/'s flood still runs. Scenario describes every other two-host"
echo "    world but three still built by hand, which ROADMAP item 11 moves:"
echo "    fig2_curve, bin/ablation.rs and perftest/runner.rs"
if grep -rlE 'MicrobenchConfig|run_microbench' crates src tests examples | grep -vx crates/core/src/microbench.rs; then
    echo "ci: the files above name the wrapper's world (use Scenario::fig3_loop)" >&2
    exit 1
fi

echo "==> no new PDES caller: only verbs' sharded.rs, cluster.rs, lib.rs and"
echo "    tests/run_plan.rs name the epoch loop; benchmark/'s wide is its one"
echo "    caller until ROADMAP item 1 deletes it"
if grep -rlE 'run_sharded|ShardPlan|enable_sharding|merge_queue_stats|shard_global_counters' \
    crates src tests examples |
    grep -vxE 'crates/verbs/src/(sharded|cluster|lib)\.rs|crates/verbs/tests/run_plan\.rs'; then
    echo "ci: the files above name the PDES executor (run one engine instead)" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings (the"
echo "    determinism rules: no bare unwrap, no Instant/SystemTime::now, no"
echo "    std HashMap/HashSet, no float arithmetic in sim time, no wildcard"
echo "    enum arm, # Panics docs; an unfulfilled #[expect] fails)"
# CLIPPY_CONF_DIR carries crates/clippy.toml to the root package too
# (src/, tests/, examples/); benchmark/ runs its own clippy without it.
CLIPPY_CONF_DIR=crates cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps --document-private-items (rustdoc"
echo "    warnings are errors, so a link to a deleted private item fails too)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items --offline -q

echo "==> cargo build --release"
cargo build --release --offline

# Both test stages run under a 900 s limit, so a world stepped in a loop
# that never ends fails its stage (exit 124) instead of stalling CI.
echo "==> cargo test --workspace (at most 900 s)"
timeout 900 cargo test -q --offline --workspace

echo "==> fabric, event, telemetry, ucp, shuffle, verbs and scenario tests in"
echo "    release, the profile every bench bin and the benchmark run: integer"
echo "    overflow panics in debug but wraps here and debug_asserts vanish."
echo "    fabric: the hostile-size and route-contract tests gate both profiles;"
echo "    event: the key index masks and wraps its probe, ranks pack into a"
echo "    u128, slot numbers stay below u32::MAX, which ends a lane,"
echo "    and a position word's top bit tags a timer waiting in a lane, so a"
echo "    heap index must stay below that bit (asserted where a heap grows;"
echo "    the model test, the allocation test and the seeded tier-invariant"
echo "    mix); telemetry: the"
echo "    per-QP clock table, the registry rows and the span waiter counts"
echo "    cast u64/u32 ids to indices (the model and id-space tests); ucp"
echo "    and shuffle:"
echo "    a request id is a table slot plus one, so the subtraction and the"
echo "    narrowing to an index wrap silently (the foreign-id and slot-reuse"
echo "    tests), and the wire-identity test pins a mesh's packets, counters and"
echo "    completions, which a ring built on first use must leave as they were;"
echo "    verbs multiplies segment and page offsets in u32 (the page-gate"
echo "    replay and the transport suites) and must refuse, not wrap, an"
echo "    allocation or registration past the address ceiling (the mem tests),"
echo "    and a page it adopts whole must count as resident once and replace"
echo "    only a page held elsewhere too (the two-memory model test);"
echo "    scenario: a spec's span, region or"
echo "    post schedule past u64 would wrap into one that passes validation"
echo "    (the parse fuzz)"
timeout 900 cargo test -q --offline --release \
    -p ibsim-fabric -p ibsim-event -p ibsim-telemetry -p ibsim-ucp -p ibsim-shuffle -p ibsim-verbs \
    -p ibsim-scenario

echo "==> pitfall probes (linter must flag each probe's own signature;"
echo "    flood probe exits nonzero if telemetry records zero fault spans;"
echo "    their concatenated stdout, render_summary and the span table"
echo "    included, is pinned)"
for probe in damming_probe flood_probe; do
    cargo run -q --offline --release --example "$probe"
done > target/probes.out
pin "probes.stdout" target/probes.out

echo "==> the other five examples (they drive payloads through dsm and ucp;"
echo "    dsm's barrier and lock messages build each eager ring on first use;"
echo "    their concatenated stdout is pinned)"
for example in quickstart atomic_counter dsm_counter dsm_stencil shuffle_wordcount; do
    cargo run -q --offline --release --example "$example"
done > target/examples.out
pin "examples.stdout" target/examples.out

echo "==> the Fig. 1/5/8 timelines (the capture walk renders them; their"
echo "    concatenated stdout is pinned)"
for fig in fig1 fig5 fig8; do
    cargo run -q --offline --release -p ibsim-bench --bin "$fig"
done > target/figures.out
pin "figures.stdout" target/figures.out

echo "==> the full Fig. 9 sweep (40 flood cells, ~15 s: the timer storm whose"
echo "    one-delay ticks the event queue's lanes keep off its heaps; its"
echo "    stdout is pinned)"
cargo run -q --offline --release -p ibsim-bench --bin fig9 > target/fig9.out
pin "fig9.stdout" target/fig9.out

echo "==> benchmark gate (the one stage that reads a host clock: the"
echo "    benchmark package's own fmt, clippy, tests and run/trace --quick;"
echo "    then one short full-size run of all five workloads, whose"
echo "    sim_digests must equal benchmark/digests.txt)"
benchmark/check.sh
cargo run -q --offline --release --manifest-path benchmark/Cargo.toml -- run --seconds 0 \
    2>&1 | tee target/benchmark_digests.out
if [ "$(grep -c 'matches the recorded digest' target/benchmark_digests.out)" -ne 5 ]; then
    echo "ci: a sim_digest drifted from benchmark/digests.txt" >&2
    exit 1
fi

echo "==> recovery-backend ablation (go-back-N timelines must match the"
echo "    pinned goldens; IRN must cut the flood's retransmissions; pinning"
echo "    must never fault)"
cargo run -q --offline --release -p ibsim-bench --bin recovery

echo "==> scenario conformance (paper corpus + 256-seed fuzz through the"
echo "    differential oracle, 1-vs-4-worker hash identity, minimizer demo;"
echo "    the crossbar default must keep the pre-topology damming golden"
echo "    hash identical — zero re-pinning; the stdout, 271 trace hashes and"
echo "    sim end times with no host clock, is pinned)"
cargo run -q --offline --release -p ibsim-bench --bin scenario -- --workers 4 --fuzz 256 --minimize-demo \
    | tee target/scenario_seq.out
grep -qF "$(golden "corpus.damming")" target/scenario_seq.out || drifted+=" corpus.damming"
pin "scenario.stdout" target/scenario_seq.out

echo "==> 2048-seed fuzz report (its 20 known violations on 9 scenarios make"
echo "    the run exit 1; its stdout, whose finding texts quote rendered times"
echo "    and packets, is pinned: exit 1 with this cksum passes, any other"
echo "    exit code or cksum fails; fixing those seeds re-pins it)"
fuzz_status=0
cargo run -q --offline --release -p ibsim-bench --bin scenario -- --workers 2 --fuzz 2048 \
    > target/scenario_fuzz2048.out || fuzz_status=$?
pin "fuzz2048.stdout" target/scenario_fuzz2048.out
[ "$fuzz_status" -eq 1 ] || drifted+=" fuzz2048-exit-$fuzz_status"

echo "==> congestion smoke (fat-tree shared-uplink study: the flood must"
echo "    inflate the victim p99 and selective repeat must beat go-back-N)"
cargo run -q --offline --release -p ibsim-bench --bin congestion -- --quick

if [ -n "$drifted" ]; then
    echo "ci: drifted from GOLDENS:$drifted" >&2
    exit 1
fi
echo "==> ci: all green"
