#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting, API docs, the
# experiments counter baseline, and the trace-overhead smoke check.
# Run from the repository root.
#
#   bash scripts/check.sh                    run every gate
#   bash scripts/check.sh --record-baseline  re-record
#                                            scripts/experiments.baseline
#                                            after an intended counter or
#                                            answer change, then exit
set -euo pipefail
cd "$(dirname "$0")/.."

# Timing legitimately varies run to run: blank the ms column, normalize
# wall times quoted inside Measured cells (E3), and keep everything
# else — ids, measured values, counters, pass marks. Cells may contain
# escaped \| so count columns from the end of the row, where ms is
# second-from-last.
strip_timing() {
    awk -F'|' 'BEGIN{OFS="|"} NF>=8 {$(NF-2)=""}
        {gsub(/[0-9]+\.[0-9]+ ms/, "_ ms"); print}'
}
experiments_table() {
    cargo run --release -q -p presburger-bench --bin experiments | strip_timing
}
baseline=scripts/experiments.baseline

if [ "${1:-}" = "--record-baseline" ]; then
    experiments_table > "$baseline"
    echo "recorded $baseline"
    exit 0
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The benchmark (BENCHMARK.json) is a standalone package that compiles
# against the serving API (`wire::Reply`, `ServeConfig`,
# `ShardPoolConfig`); a change to that API must keep it building.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# perfbench checks every answer it gets against brute force and exits
# non-zero on a wrong one; one short smoke-scale run per engine-bound
# workload (~2 s each) runs that check on the current engine.
for workload in paper-cold splinter-cold; do
    echo "==> perfbench answer check: $workload"
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --scale smoke --trace 0 > /dev/null
done
# On the serving workloads perfbench compares every reply byte for byte
# with the library's answer to the same text: one short run per codec
# checks the pool's front door, cache hits included.
for workload in serve-hot-binary serve-hot-text; do
    echo "==> perfbench answer check: $workload"
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 > /dev/null
done

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> experiments counters and answers match $baseline"
# The checked-in table is the counter baseline: any change to a
# counter, a measured answer or a pass mark on any E/A/S row fails
# here. Re-record with `bash scripts/check.sh --record-baseline` when
# the change is intended, and commit the new baseline with it.
if ! diff "$baseline" <(experiments_table) >&2; then
    echo "FAIL: experiments table differs from $baseline (diff above)" >&2
    exit 1
fi

echo "==> memo and threads shims stay unused"
# The sub-problem memo, the interning arena and the clause threads are
# gone. A few no-op symbols stay only because perfbench still uses them
# (`trace::memo::{clear_local, clear_shared, enable_shared}`,
# `intern::clear`, the `Memo*` counters, `CountOptions.memo` and
# `CountOptions.threads`), until the next benchmark change deletes them
# (ROADMAP item 4). Nothing else may name them, so they cannot become
# load-bearing again.
if git grep --untracked -nE \
    'trace::memo|intern::clear|Memo(Hit|Miss|Bytes)|(^|[^A-Za-z0-9_])(memo|threads)[[:space:]]*:([^:]|$)|\.(memo|threads)([^A-Za-z0-9_]|$)' \
    -- '*.rs' '*.sh' \
    ':!crates/trace/src/memo.rs' ':!crates/omega/src/intern.rs' \
    ':!crates/counting/src/lib.rs' ':!crates/trace/src/counters.rs' \
    ':!perfbench' ':!scripts/check.sh' >&2; then
    echo "FAIL: the lines above use a memo shim" >&2
    exit 1
fi

echo "==> the libraries read no environment"
# Settings reach the library through its options and configs only; the
# binaries and test harnesses map PRESBURGER_* variables onto them.
env_reads=$(git grep -nE 'env::var(_os)?[(]' -- src ':(glob)crates/*/src/**' \
    ':(exclude,glob)crates/*/src/bin/**' ':!crates/gen' ':!crates/bench' || true)
if [ -n "$env_reads" ]; then
    printf '%s\n' "$env_reads" >&2
    echo "FAIL: the library lines above read the environment" >&2
    exit 1
fi

echo "==> fault-injection matrix (every budget kind + cancellation + worker panic)"
# Each entry arms one fault site through PRESBURGER_FAULT, which the
# governed integration test maps onto `Governor::with_fault`; the test
# asserts the documented outcome for
# that site (DESIGN.md §9): counter sites degrade to §4.6 bounds (or
# surface the budget error when tripped in the DNF phase), deadline
# behaves like a budget, cancel errors with Cancelled, and :panic
# exercises panic isolation (caught, reported as Internal).
for fault in \
    splinters_generated:1 \
    dnf_work_clauses:2 \
    normalize_calls:1 \
    sum_depth:1 \
    convex_leaf_pieces:1 \
    max_coeff_bits:1 \
    deadline:8 \
    cancel:8 \
    splinters_generated:1:panic
do
    echo "    PRESBURGER_FAULT=$fault"
    PRESBURGER_FAULT=$fault cargo test --release -q --test governed fault_injection_from_env \
        > /dev/null
done

echo "==> fuzz smoke (generative differential harness, fixed seeds)"
# Four layers (see DESIGN.md §10):
#   1. the seed corpus must exist and replay clean;
#   2. 200 generated cases for each of seeds 1, 2 and 3 must pass all
#      four oracle families (brute force, inclusion–exclusion +
#      invariances, governed bracketing, baselines);
#   3.+4. with each deliberate engine bug armed, the harness must
#      CATCH it and shrink it to a ≤3-constraint counterexample (the
#      test inverts its expectation when PRESBURGER_GEN_FAULT is set).
corpus_count=$(find tests/corpus -name '*.pres' | wc -l)
if [ "$corpus_count" -lt 3 ]; then
    echo "FAIL: seed corpus has only $corpus_count cases (< 3)" >&2
    exit 1
fi
for seed in 1 2 3; do
    echo "    corpus replay + 200 clean cases (PRESBURGER_GEN_SEED=$seed)"
    PRESBURGER_GEN_SEED=$seed PRESBURGER_GEN_CASES=200 \
        cargo test --release -q --test fuzz_differential > /dev/null
done
for fault in count_off_by_one miscount_stride; do
    echo "    PRESBURGER_GEN_FAULT=$fault (must be caught and shrunk)"
    PRESBURGER_GEN_FAULT=$fault PRESBURGER_GEN_SEED=1 PRESBURGER_GEN_CASES=40 \
        cargo test --release -q --test fuzz_differential \
        generated_formulas_agree_with_all_oracles > /dev/null
done

echo "==> serve smoke (admission, shedding, breaker, drain, replay determinism)"
# serve_stress drives the hardened serving layer end to end (DESIGN.md
# §11): 200 concurrent mixed requests over 4 connections at 1 and 4
# workers with zero lost/duplicated/misordered responses and
# byte-identical transcripts across runs; deterministic shedding under
# a tiny queue; a fault drill (worker panics → breaker opens → degraded
# bounds → half-open probe → recovery); graceful and zero-deadline
# drain; the supervised shard-pool chaos drills (phase 6, DESIGN.md
# §14); the binary-codec equality and batched-throughput phase (phase
# 7, DESIGN.md §15 — batched binary must strictly beat text); the
# admission-control phase (phase 8, DESIGN.md §16); and a
# latency/throughput recording to BENCH_serve.json (schema v5).
echo "    clean run (records BENCH_serve.json)"
cargo run --release -q -p presburger-serve --bin serve_stress > /dev/null
# The same suite must hold with a panic fault armed on every pool
# (serve_stress maps PRESBURGER_FAULT onto `fault_spec`): the fault
# only fires inside governed exact regions, so phase 1's replay
# determinism now covers panic isolation on every splintery request,
# and phase 1 asserts that the fault fired.
echo "    PRESBURGER_FAULT=splinters_generated:1:panic (panic isolation under load)"
PRESBURGER_FAULT=splinters_generated:1:panic PRESBURGER_SERVE_BENCH_OUT="" \
    cargo run --release -q -p presburger-serve --bin serve_stress > /dev/null

echo "==> chaos gate (supervised shard pool: operator-style kill/wedge drills)"
# The shard supervisor's own gate (DESIGN.md §14). The clean serve run
# above already exercises the built-in drill matrix (kill at 1/2/4
# shards, wedge and delay); here the *env*
# drill path is driven the way an operator would use it:
# PRESBURGER_CHAOS arms one deterministic fault at a named site, shard
# and occurrence, and the chaos phase must still deliver exactly one
# reply per admitted request, with transcripts byte-identical to the
# chaos-off baseline, at both 2 and 4 shards — and at 1 shard, the pool
# that serves stdio and `calculator --serve`, where submissions racing
# the restart must wait for the replacement rather than degrade.
for drill in kill:1:3 wedge:0:3; do
    for shards in 2 4; do
        echo "    PRESBURGER_CHAOS=$drill PRESBURGER_SERVE_SHARDS=$shards"
        PRESBURGER_CHAOS=$drill PRESBURGER_SERVE_SHARDS=$shards \
            PRESBURGER_SERVE_CHAOS_ONLY=1 PRESBURGER_SERVE_BENCH_OUT="" \
            cargo run --release -q -p presburger-serve --bin serve_stress > /dev/null
    done
done
echo "    PRESBURGER_CHAOS=kill:0:3 PRESBURGER_SERVE_SHARDS=1"
PRESBURGER_CHAOS=kill:0:3 PRESBURGER_SERVE_SHARDS=1 \
    PRESBURGER_SERVE_CHAOS_ONLY=1 PRESBURGER_SERVE_BENCH_OUT="" \
    cargo run --release -q -p presburger-serve --bin serve_stress > /dev/null

echo "==> admission gate (priority lanes, eviction, determinism)"
# The deadline-aware admission layer's own gate (DESIGN.md §16), run
# as its own process twice so the soak's telemetry is not polluted by
# the other phases:
#   1. the phase-8 soak floods the background lane at 4× queue
#      capacity and asserts the interactive lane's p99 stays within
#      max(3× its unloaded value, 20 ms) with zero lost replies (every
#      flood slot answers: served or a reasoned queue_full shed; the
#      run prints which of the two terms bound it); the eviction drill
#      must answer expired requests with §4.6 bounds at admission and
#      pop time; and the prio=-optioned stream must replay
#      byte-identically at 1/2/4 shards, chaos off and under a kill
#      drill.
#   2. the same phase with a panic fault armed on every pool: admission
#      decisions are made before the engine runs, so they must be
#      untouched by panic isolation inside governed regions.
echo "    PRESBURGER_SERVE_ADMISSION_ONLY=1 (lanes / eviction / determinism)"
PRESBURGER_SERVE_ADMISSION_ONLY=1 PRESBURGER_SERVE_BENCH_OUT="" \
    cargo run --release -q -p presburger-serve --bin serve_stress > /dev/null
echo "    PRESBURGER_FAULT=splinters_generated:1:panic (admission under panic isolation)"
PRESBURGER_FAULT=splinters_generated:1:panic PRESBURGER_SERVE_ADMISSION_ONLY=1 \
    PRESBURGER_SERVE_BENCH_OUT="" \
    cargo run --release -q -p presburger-serve --bin serve_stress > /dev/null

echo "==> wire gate (binary codec: round-trips, byte-soup fuzz, text differential)"
# The binary wire codec's own gate (DESIGN.md §15). The hard guarantee
# is semantic byte-identity: every binary reply must decode to exactly
# the text the text codec would have produced. Three layers:
#   1. canonical round-trip properties plus a raised-volume byte-soup
#      fuzz pass (truncations, bit flips, oversized length prefixes —
#      decoders must stay total, never over-read, and always fail with
#      a typed wire error);
#   2. the differential replay of the golden serving sessions (normal,
#      shed, breaker, kill-failover, wedge-restart) and the generated
#      request stream, text vs binary, at 1 and 4 shards;
#   3. the calculator's --connect client, text vs --binary --batch,
#      end to end over a real socket.
echo "    codec properties + fuzz smoke (PRESBURGER_WIRE_FUZZ_CASES=500)"
PRESBURGER_WIRE_FUZZ_CASES=500 cargo test --release -q -p presburger-serve \
    --test wire > /dev/null
for shards in 1 4; do
    echo "    differential gen-stream replay (PRESBURGER_WIRE_SHARDS=$shards)"
    PRESBURGER_WIRE_SHARDS=$shards cargo test --release -q -p presburger-serve \
        --test wire differential_gen_stream_over_pool > /dev/null
done
echo "    calculator --connect client differential (text vs binary)"
cargo test --release -q --test calculator_client > /dev/null

echo "==> metrics gate (exposition golden, flight-recorder drill, event log)"
# The telemetry layer's own gate (DESIGN.md §12): the full metrics test
# suite, including the golden Prometheus exposition (stable label
# ordering, all cumulative bucket lines, pinned in
# crates/serve/tests/golden/metrics.prom), the flight-recorder drill
# (a faulted splintery request lands in the recorder with its counter
# deltas, span tree and formula intact) and the JSONL event-log
# sampling/backpressure behavior.
cargo test --release -q -p presburger-serve --test metrics > /dev/null

echo "==> trace overhead smoke (disabled collector, governor, telemetry & admission < 5% of E3)"
cargo run --release -p presburger-bench --bin overhead_smoke

echo "All checks passed."
