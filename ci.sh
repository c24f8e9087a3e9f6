#!/usr/bin/env bash
# CI gate: build, tests, clippy, the simlint static pass (plus its JSON
# artifact), the loom model-check job, a Miri pass over the core crates,
# the bench artifacts and the benchmark's self-check. Every step must pass; the script stops at the first failure.
#
# Knobs:
#   CI_SKIP_MIRI=1  skip the Miri step explicitly (it also auto-skips
#                   when the nightly Miri component is unavailable, e.g.
#                   in offline containers).
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== public-API snapshot: iocontainers facade vs committed baseline =="
cargo xtask api

echo "== simlint v3 static pass (call-graph stats, baseline gate, JSON artifact) =="
cargo xtask lint --stats
mkdir -p target/ci
# Gate on the committed (empty) baseline: any unescaped finding is new
# and fails the build. Regenerate with `cargo xtask lint --write-baseline
# SIMLINT_BASELINE.json` and commit the file when the surface moves.
cargo xtask lint --format json --baseline SIMLINT_BASELINE.json > target/ci/simlint-findings.json
echo "simlint: artifact at target/ci/simlint-findings.json"

echo "== loom model check: datatap channel pause/resume protocol, stream engine gates =="
# Swaps each transport's mutex/condvar for the loom stand-in (bounded seeded
# preemption search — failures are real, passes are probabilistic). The
# stream models print the interleavings they explored and fail if the
# count drops.
RUSTFLAGS="--cfg loom" cargo test -q -p datatap --test loom_channel
RUSTFLAGS="--cfg loom" cargo test -q -p stream --test loom_gate -- --nocapture

echo "== miri: sim-core + simpar + datatap + stream (undefined-behaviour pass) =="
if [[ "${CI_SKIP_MIRI:-0}" == "1" ]]; then
    echo "miri: skipped (CI_SKIP_MIRI=1)"
elif cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -q -p sim-core -p simpar -p datatap
    # The stream engine's unit suite is Miri-friendly (no file I/O);
    # the lib filter keeps the FS-touching source tests out.
    cargo +nightly miri test -q -p stream --lib engine
else
    # Offline containers cannot `rustup component add miri`; the step
    # degrades to a loud skip rather than failing the gate.
    echo "miri: skipped (nightly Miri component unavailable)"
fi

echo "== benches compile =="
cargo bench --no-run

echo "== bench-baseline: kernel perf artifact emits and validates =="
# A tiny snapshot keeps this gate fast; the schema check (non-empty rows,
# serial speedup ~1 vs itself) is hardware-independent by design.
cargo run --release -p bench --bin baseline -- \
    --out target/BENCH_kernels.json --cells 3 --threads 1,2 --reps 2
cargo run --release -p bench --bin baseline -- --check target/BENCH_kernels.json
cargo run --release -p bench --bin baseline -- --check BENCH_kernels.json

echo "== bench-events: event-kernel throughput artifact emits and validates =="
# Same shape for the event-kernel artifact: emit at tiny sizes to prove
# the emitter works, schema-check both the fresh and the committed file.
cargo run --release -p bench --bin events -- \
    --out target/BENCH_events.json --sizes 1000,10000 --reps 2
cargo run --release -p bench --bin events -- --check target/BENCH_events.json
cargo run --release -p bench --bin events -- --check BENCH_events.json

echo "== bench-diff: events/sec vs the committed baseline (auto-skips when throttled) =="
cargo xtask bench-diff

echo "== benchmark: every workload runs small, correct, with every declared metric =="
bash benchmark/run.sh --check

echo "== quickstart example (headless) =="
cargo run --release --example quickstart

echo "== fault recovery example (headless, asserts the recovery invariants) =="
cargo run --release --example fault_recovery

echo "== multi-tenant example (24 tenants, managed vs unmanaged) =="
cargo run --release --example multi_tenant

echo "== stream fan-out example (N-to-M streaming, restart rejoin, file parity) =="
cargo run --release --example stream_fanout

echo "ci: all gates passed"
