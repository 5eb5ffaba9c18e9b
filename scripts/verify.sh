#!/usr/bin/env sh
# Pre-merge gate: tier-1 verify plus the fast engine-equivalence tests.
#
# Everything here runs offline — the workspace has no external
# dependencies, so a vendored registry or network access is never needed.
# Run from the repository root:
#
#   ./scripts/verify.sh
#
# Set VERIFY_SKIP_BUILD=1 to reuse existing build artifacts (e.g. when
# iterating on tests only, or in CI right after a build step). Set
# PAD_QUICK=1 for the trimmed workloads the throughput and telemetry
# gates use in CI.
#
# Every gate runs even after an earlier one fails. The run ends with a
# machine-readable summary, one line per gate:
#
#   GATE <name> <pass|fail|skip> <seconds>
#
# and exits nonzero — listing the failing gates — if any gate failed.
set -u

cd "$(dirname "$0")/.."

SUMMARY=""
FAILED=0

# run_gate <name> <command...> — runs the command, times it, and files
# the outcome under <name> in the end-of-run summary. Multi-step gates
# go through a helper function whose body is one `&&` chain: `set -e`
# is inert inside an `if` condition, so an unchained middle step could
# otherwise fail without failing the gate.
run_gate() {
    gate_name="$1"
    shift
    echo "== gate: $gate_name =="
    gate_start=$(date +%s)
    if "$@"; then
        gate_status=pass
    else
        gate_status=fail
        FAILED=1
    fi
    SUMMARY="${SUMMARY}GATE $gate_name $gate_status $(($(date +%s) - gate_start))
"
}

skip_gate() {
    echo "== gate: $1 (skipped: $2) =="
    SUMMARY="${SUMMARY}GATE $1 skip 0
"
}

# Binaries that write `results/` (bench history, figure CSVs and
# journals) run with their working directory in the untracked
# VERIFY_OUT, so a run leaves the tracked results/ untouched.
# Cargo still finds the workspace, and its target dir, from there.
VERIFY_OUT=target/verify
mkdir -p "$VERIFY_OUT"
in_verify_out() {
    (cd "$VERIFY_OUT" && "$@")
}

if [ "${VERIFY_SKIP_BUILD:-0}" != "1" ]; then
    run_gate build cargo build --workspace --release
else
    skip_gate build "VERIFY_SKIP_BUILD=1"
fi

run_gate test cargo test --workspace -q

run_gate clippy cargo clippy --workspace --all-targets -- -D warnings

# API docs: every rustdoc warning, such as a broken intra-doc link or one
# that points at a private item, fails the gate.
gate_docs() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}
run_gate docs gate_docs

# Isolation, resume, determinism under injected faults, plus the pool's
# own unit tests (nested cells keep the outer clock and panic capture)
# and the RIVERA_CELL_TIMEOUT parser.
gate_fault_injection() {
    cargo test -q -p pad-bench --test fault_injection &&
        cargo test -q -p pad-bench --lib pool &&
        cargo test -q -p pad-bench --test policy_env
}
run_gate fault-injection gate_fault_injection

# Flat cache vs seed model, the run_slice kernels, batched vs
# per-config, W+1-line conflict sets against analytic miss counts, every
# sink against a naive model over seeded geometries and streams, and the
# compiled walker against the interpreter (streams and counts).
gate_engine_equivalence() {
    cargo test -q -p pad-cache-sim --test flat_equivalence &&
        cargo test -q -p pad-cache-sim --test lane_differential &&
        cargo test -q -p pad-cache-sim --test geometry_conformance &&
        cargo test -q -p pad-trace batch &&
        cargo test -q -p pad-trace --test sink_differential &&
        cargo test -q -p pad-trace compiled
}
run_gate engine-equivalence gate_engine_equivalence

# Reuse engine: unit tests (sparse input, table switching, compaction,
# the hot window, log2 buckets, the 3C shadow), differential vs
# fully-assoc sim and a naive stack (reuses either side of every bucket
# boundary to 2^12 lines), 3C bit-identity of the one-boundary shadow
# (sweeps of C-1/C/C+1 lines, C above the lines touched, a hashed
# table), MRC goldens, and every suite kernel's walk keeping a paged
# last-use table.
gate_reuse() {
    cargo test -q -p pad-cache-sim --lib &&
        cargo test -q -p pad-cache-sim --test reuse_differential &&
        cargo test -q -p pad-bench --test mrc_golden &&
        cargo test -q -p pad-trace --test reuse_table
}
run_gate reuse gate_reuse

# Trace ingestion: typed truncation/garbage errors, chunk-boundary
# replay, kernel-trace bit-identity, SHARDS-sampled MRC error bound,
# and the canonical NDJSON fast path against the JSON-tree decode.
gate_trace_ingest() {
    cargo test -q -p pad-trace-ingest --test ingest_edge &&
        cargo test -q -p pad-trace-ingest --lib ndjson
}
run_gate trace-ingest gate_trace_ingest

# padtool record/ingest roundtrip, in-process and as real processes.
run_gate cli-roundtrip cargo test -q -p pad-cli --test cli

# Tables + merged histograms identical at any pool width.
run_gate determinism cargo test -q -p pad-bench --test determinism

# Engine agreement + throughput gates (quick smoke workload).
run_gate throughput in_verify_out \
    cargo run --release -q -p pad-bench --bin bench_simulator -- --quick

# Instrumentation: in the same interleaved rounds, the engine with
# telemetry and metrics off within 2% of a hand-rolled loop and with
# metrics on within 2% of off; miss counts equal and tables byte-identical
# in events mode and with metrics on; and the walk, engine, search,
# ingest and pool families of a real advisor session read back exactly
# through the `metrics` op.
gate_telemetry() {
    PAD_QUICK=1 cargo test -q -p pad-bench --test telemetry &&
        in_verify_out env PAD_QUICK=1 \
            cargo run --release -q -p pad-bench --bin bench_telemetry &&
        timeout 300 cargo test -q -p pad-advisor --test metrics_families
}
run_gate telemetry gate_telemetry

# Advisor: fault-injection matrix (panics, deadlines, wire corruption,
# degradation, pricing astronomic rectangular/triangular/LU nests inside
# a quarter deadline), admission control, exact answers equal to direct
# walks of both layouts (an unchanged layout walked once; a search's
# counts, taken from its confirmations, equal to plain walks), each of
# two concurrent servers tallying exactly its own traffic, and programs
# whose addresses would wrap 64 bits refused as `parse` errors.
gate_advisor_faults() {
    timeout 300 cargo test -q -p pad-advisor --test fault_injection &&
        timeout 300 cargo test -q -p pad-advisor --test admission &&
        timeout 300 cargo test -q -p pad-advisor --test answer_equivalence &&
        timeout 300 cargo test -q -p pad-advisor --test search_answers &&
        timeout 300 cargo test -q -p pad-advisor --test walk_count &&
        timeout 300 cargo test -q -p pad-advisor --test server_tally &&
        timeout 300 cargo test -q -p pad-advisor --test address_bounds
}
run_gate advisor-faults gate_advisor_faults

# Advisor: kill-and-restart replay (in-process torn journal + real
# SIGKILL against the padtool binary).
gate_advisor_restart() {
    timeout 300 cargo test -q -p pad-advisor --test kill_restart &&
        timeout 300 cargo test -q -p pad-cli --test serve_process
}
run_gate advisor-restart gate_advisor_restart

# Search optimizer: pad-core's own tests (the heuristics, the miss
# model and the compiled loop nest they share), the compiled fast rung
# (from layouts and from pad vectors) bit-identical to the interpreted
# model and the nest bound to every scored layout equal to the
# name-keyed linearization, pair distances past i64 taken exactly,
# fast/exact rank-concordance differential, the property suite
# (never-worse, seeded determinism, move-order independence) and fault
# equivalence.
gate_search_differential() {
    cargo test -q -p pad-core &&
        cargo test -q -p pad-search --test model_differential &&
        cargo test -q -p pad-search --test pair_overflow &&
        cargo test -q -p pad-search --test search_differential &&
        cargo test -q -p pad-search --test search_properties &&
        cargo test -q -p pad-search --test search_faults
}
run_gate search-differential gate_search_differential

# Search frontier goldens: JACOBI/EXPL cost/quality CSVs byte-pinned
# under the environment-independent golden config (PAD_QUICK immune).
run_gate fig-search-golden cargo test -q -p pad-search --test search_golden

# Telemetry events mode must leave the fig08 CSV byte-identical.
telemetry_tmp="$(mktemp -d)"
figures_tmp="$(mktemp -d)"
trap 'rm -rf "$telemetry_tmp" "$figures_tmp"' EXIT
gate_telemetry_csv() {
    in_verify_out env PAD_QUICK=1 RIVERA_TELEMETRY=off \
        cargo run --release -q -p pad-bench --bin fig08 &&
        cp "$VERIFY_OUT/results/fig08.csv" "$telemetry_tmp/fig08.off.csv" &&
        in_verify_out env PAD_QUICK=1 RIVERA_TELEMETRY=events \
            RIVERA_TRACE_OUT="$telemetry_tmp/trace.json" \
            cargo run --release -q -p pad-bench --bin fig08 &&
        cmp "$VERIFY_OUT/results/fig08.csv" "$telemetry_tmp/fig08.off.csv" &&
        test -s "$telemetry_tmp/trace.json" &&
        test -s "$telemetry_tmp/trace.ndjson"
}
run_gate telemetry-csv gate_telemetry_csv

# The paper's tables, byte for byte: `all` and `fig_search` at full size
# (PAD_QUICK unset, even in a quick run) in a fresh directory, then every
# tracked results/*.csv compared with its regenerated copy — all but the
# wall-clock tables fig15.csv and bench_search.csv.
repo_root="$(pwd)"
gate_figures() {
    (
        unset PAD_QUICK
        cd "$figures_tmp" &&
            cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
                -p pad-bench --bin all >all.out &&
            cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
                -p pad-search --bin fig_search >fig_search.out
    ) && compare_figures
}
compare_figures() {
    figures_status=0
    for csv in $(git ls-files 'results/*.csv'); do
        case "$csv" in
        results/fig15.csv | results/bench_search.csv) ;;
        *) cmp "$csv" "$figures_tmp/$csv" || figures_status=1 ;;
        esac
    done
    return $figures_status
}
run_gate figures gate_figures

# Benchmark smoke: perfbench builds against this checkout's APIs and
# passes its own output checks (oracle re-simulation, repeat
# byte-identity, digest match); it exits 1 when a run reads
# `correct: false`. Timings stay ungated here.
run_gate perfbench-smoke cargo run --release --quiet \
    --manifest-path perfbench/Cargo.toml -- --workload all --seed 1 --seconds 2

echo ""
echo "== verify summary =="
printf '%s' "$SUMMARY"
if [ "$FAILED" -ne 0 ]; then
    echo "verify: FAILED"
    printf '%s' "$SUMMARY" | awk '$3 == "fail" { print "  failing gate: " $2 }'
    exit 1
fi
echo "verify: OK"
