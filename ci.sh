#!/usr/bin/env bash
# CI gate: build, tests (the threaded runtime's again in release), clippy,
# the public-API snapshot, the simlint static pass (plus its JSON
# artifact), the loom model-check job, a Miri pass over the core crates,
# the benchmark's self-check (with its frozen lock file) and the asserted
# examples. Every step must pass; the script stops at the
# first failure.
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

echo "== threaded runtime tests (release) =="
# The manager tests need one Bonds worker to fall behind the MD producer,
# a timing premise that optimised kernels can break while debug builds
# still pass; run them at the speed the benchmark runs them.
cargo test -q --release -p iocontainers --lib threaded::

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

echo "== loom model check: the one gate, under the staged channel and the stream engine =="
# Swaps the gate's mutex/condvar (datatap::gate, the only seam) for the loom
# stand-in: bounded seeded preemption search — failures are real, passes
# are probabilistic. Every model file of both crates runs, one model at a
# time (the stand-in's schedule seed is process-wide); each model prints the
# interleavings it explored and fails if the count drops.
RUSTFLAGS="--cfg loom" cargo test -q -p datatap -p stream --test 'loom_*' -- --nocapture --test-threads=1

echo "== miri: sim-core + simpar + datatap + stream + adios (undefined-behaviour pass) =="
if [[ "${CI_SKIP_MIRI:-0}" == "1" ]]; then
    echo "miri: skipped (CI_SKIP_MIRI=1)"
elif cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test -q -p sim-core -p simpar -p datatap
    # The stream engine's unit suite is Miri-friendly (no file I/O);
    # the lib filter keeps the FS-touching source tests out.
    cargo +nightly miri test -q -p stream --lib engine
    # adios holds the typed-view casts, `aligned_bytes` and the recycling
    # blob owner; the filters keep the file-writing bpfile/method tests out.
    cargo +nightly miri test -q -p adios --lib -- bp:: types:: group::
else
    # Offline containers cannot `rustup component add miri`; the step
    # degrades to a loud skip rather than failing the gate.
    echo "miri: skipped (nightly Miri component unavailable)"
fi

echo "== benchmark: every workload runs small, correct, with every declared metric =="
bash benchmark/run.sh --check
# benchmark/ is a package of its own with a committed Cargo.lock that pins
# every crate it links. Building it just now rewrote that file if any of
# those crates' dependency lists changed.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --quiet -- benchmark/Cargo.lock || {
        echo "ci: benchmark/Cargo.lock changed: a dependency edit in a crate the benchmark links" >&2
        echo "    (see benchmark/Cargo.toml) rewrites the benchmark's frozen lock file. Revert the" >&2
        echo "    dependency edit, or land the lock-file change as a benchmark-only change." >&2
        exit 1
    }
else
    echo "benchmark lock check: skipped (not a git checkout)"
fi

echo "== quickstart example (headless) =="
cargo run --release --example quickstart

echo "== fault recovery example (headless, asserts the recovery invariants) =="
cargo run --release --example fault_recovery

echo "== managed staging example (Fig. 7/8/9 outcomes, full telemetry on Fig. 7) =="
cargo run --release --example managed_staging

echo "== resilient trade example (D2T commits clean, aborts on a no vote or a lost vote) =="
cargo run --release --example resilient_trade

echo "== multi-tenant example (24 tenants, managed vs unmanaged) =="
cargo run --release --example multi_tenant

echo "== stream fan-out example (N-to-M streaming, restart rejoin, file parity) =="
cargo run --release --example stream_fanout

echo "== crack detection example (threaded runtime, CSym-to-CNA branch, asserts the crack) =="
cargo run --release --example crack_detection

echo "== post-processing example (BP container round trip, provenance-owed replay) =="
cargo run --release --example post_processing

echo "ci: all gates passed"
