#!/usr/bin/env bash
# The one command: build offline, run each workload in its own process with
# its output checks, print every metric as `name value unit (n=samples)` and
# write benchmark/out/results.json.
#
#   benchmark/run.sh [--workload <name>] [--seed <u64>] [--seconds <s>]
#                    [--runs <n>] [--trace] [--smoke]
#
#   --workload  run one workload instead of all five
#   --seed      seed of the request/delta/trial streams (default 7)
#   --seconds   seconds each timed phase measures (default: run_seconds of
#               BENCHMARK.json; 1 with --smoke)
#   --runs      repeat the whole set n times into one results.json, so that
#               `im-benchmark compare` has a spread to judge by (default 1)
#   --trace     after each untraced run, a traced run: spans to
#               benchmark/out/trace.<workload>.json, stage budgets, every
#               per-layer metric
#   --smoke     the cl-20k fixture and the package's own tests, whole set
#               under 30 s; for self-tests only, never for committed numbers
#
# Compare two result files with
#   target/release/im-benchmark compare <a.json> <b.json>
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(read_remote select_tiered select_sharded write_mixed paper_sweep)
seed=7
seconds=""
runs=1
trace=0
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --smoke) smoke=(--smoke); shift ;;
        -h|--help) sed -n '2,23p' "$0"; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/im-benchmark"
if [ ${#smoke[@]} -gt 0 ]; then
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
    seconds="${seconds:-1}"
fi
seconds="${seconds:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"

out=benchmark/out/results.json
rm -f "$out"
status=0
for _ in $(seq "$runs"); do
    for workload in "${workloads[@]}"; do
        for traced in $(seq 0 "$trace"); do
            echo "== $workload (trace $traced)"
            # The last line is the driver's JSON; results.json holds the same.
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$traced" "${smoke[@]}" --out "$out" | sed '$d' || status=1
            # One trace per workload: the binary always writes trace.json.
            if [ "$traced" = 1 ] && [ -f benchmark/out/trace.json ]; then
                mv benchmark/out/trace.json "benchmark/out/trace.$workload.json"
            fi
        done
    done
done
echo "results: $out"
exit "$status"
