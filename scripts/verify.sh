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

if [ "${VERIFY_SKIP_BUILD:-0}" != "1" ]; then
    run_gate build cargo build --workspace --release
else
    skip_gate build "VERIFY_SKIP_BUILD=1"
fi

run_gate test cargo test --workspace -q

run_gate clippy cargo clippy --workspace --all-targets -- -D warnings

# Isolation, retries, resume, determinism under injected faults.
run_gate fault-injection cargo test -q -p pad-bench --test fault_injection

# Flat cache vs seed model, lane kernels, batched vs per-config.
gate_engine_equivalence() {
    cargo test -q -p pad-cache-sim --test flat_equivalence &&
        cargo test -q -p pad-cache-sim --test lane_differential &&
        cargo test -q -p pad-trace batch
}
run_gate engine-equivalence gate_engine_equivalence

# Reuse engine: unit tests (sparse input, table switching, compaction),
# differential vs fully-assoc sim and a naive stack, 3C bit-identity,
# MRC goldens.
gate_reuse() {
    cargo test -q -p pad-cache-sim --lib &&
        cargo test -q -p pad-cache-sim --test reuse_differential &&
        cargo test -q -p pad-bench --test mrc_golden
}
run_gate reuse gate_reuse

# Trace ingestion: typed truncation/garbage errors, lane-boundary
# replay, kernel-trace bit-identity, SHARDS-sampled MRC error bound.
run_gate trace-ingest cargo test -q -p pad-trace-ingest --test ingest_edge

# padtool record/ingest roundtrip, in-process and as real processes.
run_gate cli-roundtrip cargo test -q -p pad-cli --test cli

# Tables + merged histograms identical at any pool width.
run_gate determinism cargo test -q -p pad-bench --test determinism

# Engine agreement + throughput gates (quick smoke workload).
run_gate throughput cargo run --release -q -p pad-bench --bin bench_simulator -- --quick

# Telemetry: off-mode overhead gate + events-mode determinism.
gate_telemetry() {
    PAD_QUICK=1 cargo test -q -p pad-bench --test telemetry &&
        PAD_QUICK=1 cargo run --release -q -p pad-bench --bin bench_telemetry
}
run_gate telemetry gate_telemetry

# Live metrics: metrics-on engine overhead < 2%, simulation results and
# tables byte-identical in both metrics states, Prometheus exposition
# byte-stable (written to results/metrics.prom for the CI artifact).
gate_metrics_overhead() {
    PAD_QUICK=1 cargo run --release -q -p pad-bench --bin bench_telemetry -- --metrics &&
        test -s results/metrics.prom
}
run_gate metrics-overhead gate_metrics_overhead

# Advisor: fault-injection matrix (panics, deadlines, wire corruption,
# degradation, pricing astronomic rectangular/triangular/LU nests inside
# a quarter deadline) and admission control.
gate_advisor_faults() {
    timeout 300 cargo test -q -p pad-advisor --test fault_injection &&
        timeout 300 cargo test -q -p pad-advisor --test admission
}
run_gate advisor-faults gate_advisor_faults

# Advisor: kill-and-restart replay (in-process torn journal + real
# SIGKILL against the padtool binary).
gate_advisor_restart() {
    timeout 300 cargo test -q -p pad-advisor --test kill_restart &&
        timeout 300 cargo test -q -p pad-cli --test serve_process
}
run_gate advisor-restart gate_advisor_restart

# Search optimizer: the compiled fast rung bit-identical to the
# interpreted model, fast/exact rank-concordance differential, the
# property suite (never-worse, seeded determinism, move-order
# independence) and fault equivalence.
gate_search_differential() {
    cargo test -q -p pad-search --test model_differential &&
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
trap 'rm -rf "$telemetry_tmp"' EXIT
gate_telemetry_csv() {
    PAD_QUICK=1 RIVERA_TELEMETRY=off \
        cargo run --release -q -p pad-bench --bin fig08 &&
        cp results/fig08.csv "$telemetry_tmp/fig08.off.csv" &&
        PAD_QUICK=1 RIVERA_TELEMETRY=events \
            RIVERA_TRACE_OUT="$telemetry_tmp/trace.json" \
            cargo run --release -q -p pad-bench --bin fig08 &&
        cmp results/fig08.csv "$telemetry_tmp/fig08.off.csv" &&
        test -s "$telemetry_tmp/trace.json" &&
        test -s "$telemetry_tmp/trace.ndjson"
}
run_gate telemetry-csv gate_telemetry_csv

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
