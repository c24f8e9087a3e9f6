#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is the result
#       object BENCHMARK.json's contract asks for. Any other argument list
#       (--check, --list, --traced ...) goes to the binary the same way.
#   run.sh suite [--seed <n>] [--rounds <r>] [--seconds <s>]
#       the noise protocol: <r> untraced rounds interleaved round-robin
#       over the five workloads (a noisy spell hits all of them), then one
#       traced run each; prints median, quartiles and sample count per
#       metric and writes benchmark/out/suite-<seed>.json.
#   run.sh --compare A.json B.json
#       applies each end-to-end metric's bound to two suite files.
#
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target without it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--compare" ]]; then
    shift
    exec python3 benchmark/report.py compare "$@"
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ioc-benchmark"

if [[ "${1:-suite}" != "suite" ]]; then
    exec "$bin" "$@"
fi

seed=1 rounds=5 seconds=4
shift || true
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2" ;;
        --rounds) rounds="$2" ;;
        --seconds) seconds="$2" ;;
        *) echo "suite: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

out="benchmark/out/suite-$seed"
rm -rf "$out"
mkdir -p "$out"
mapfile -t workloads < <("$bin" --list)
# Each run is its own process, so peak_rss_mb is per workload.
for ((round = 0; round < rounds; round++)); do
    for w in "${workloads[@]}"; do
        echo "== round $round: $w" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1 > "$out/$w.e2e.$round.json"
    done
done
for w in "${workloads[@]}"; do
    echo "== traced: $w" >&2
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
        | tail -n 1 > "$out/$w.layers.json"
done
python3 benchmark/report.py summarize "$out" --seed "$seed" --seconds "$seconds" \
    > "benchmark/out/suite-$seed.json"
python3 benchmark/report.py show "benchmark/out/suite-$seed.json"
