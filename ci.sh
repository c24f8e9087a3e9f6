#!/usr/bin/env bash
# CI gate: build, tests (the threaded runtime's again in release), clippy
# (with the determinism bans of clippy.toml) and a check that those bans
# catch every hazard of tools/clippy-fixture, the public-API snapshot, the
# simlint static pass, the loom model-check job, a Miri pass over the core
# crates, the benchmark's self-check (with its frozen lock file) and the
# asserted examples. Every step must pass; the script stops at the first
# failure. Each step prints its wall time, and the last line the total.
#
# Knobs:
#   CI_SKIP_MIRI=1  skip the Miri step explicitly (it also auto-skips
#                   when the nightly Miri component is unavailable, e.g.
#                   in offline containers).
set -euo pipefail
cd "$(dirname "$0")"

# Wall time in ms, from bash's microsecond clock.
now_ms() { local us=${EPOCHREALTIME/./}; echo $((us / 1000)); }
fmt_s() { printf '%d.%03d s' $(($1 / 1000)) $(($1 % 1000)); }
ci_start=$(now_ms)
step_name=""
# Closes the running step (printing its wall time) and opens the next.
step() {
    local now
    now=$(now_ms)
    if [[ -n "$step_name" ]]; then
        echo "-- $step_name: $(fmt_s $((now - step_start)))"
    fi
    step_name="$1"
    step_start=$now
    if [[ -n "$step_name" ]]; then
        echo "== $step_name =="
    fi
}

step "build (release)"
cargo build --release

step "tests (workspace)"
cargo test -q --workspace

step "threaded runtime tests (release)"
# The manager tests need one Bonds worker to fall behind the MD producer,
# a timing premise that optimised kernels can break while debug builds
# still pass; run them at the speed the benchmark runs them.
cargo test -q --release -p iocontainers --lib threaded::

step "clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "clippy determinism bans: exactly the marked hazards of tools/clippy-fixture"
# The fixture is a package of its own (outside the workspace) that clippy
# lints under the root clippy.toml. Every line marked `// hazard` must draw
# a diagnostic and no other line may: a ban that stops firing, or one that
# fires on sanctioned code, fails here.
fixture=tools/clippy-fixture
want=$(grep -n '// hazard:' "$fixture/src/lib.rs" | cut -d: -f1)
got=$(cargo clippy -q --manifest-path "$fixture/Cargo.toml" --target-dir target/clippy-fixture \
        --message-format short 2>&1 | sed -n 's/^src\/lib\.rs:\([0-9]*\):.*/\1/p' | sort -nu)
if [[ "$got" != "$want" ]]; then
    echo "ci: clippy flagged lines [$(echo $got)] of $fixture/src/lib.rs," >&2
    echo "    the fixture marks [$(echo $want)] as hazards" >&2
    exit 1
fi
echo "clippy bans: $(echo "$want" | wc -l) hazard lines, all flagged, nothing else"

step "public-API snapshot: iocontainers facade vs committed baseline"
cargo xtask api

step "simlint v3 static pass (call-graph stats; any finding fails)"
cargo xtask lint --stats

step "loom model check: the one gate, under the staged channel and the stream engine"
# Swaps the gate's mutex/condvar (datatap::gate, the only seam) for the loom
# stand-in: bounded seeded preemption search — failures are real, passes
# are probabilistic. Every model file of both crates runs, one model at a
# time (the stand-in's schedule seed is process-wide); each model prints the
# interleavings it explored and fails if the count drops.
RUSTFLAGS="--cfg loom" cargo test -q -p datatap -p stream --test 'loom_*' -- --nocapture --test-threads=1

step "miri: sim-core + simpar + datatap + stream + adios (undefined-behaviour pass)"
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

step "benchmark: every workload runs small, correct, with every declared metric"
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

step "quickstart example (headless)"
cargo run --release --example quickstart

step "fault recovery example (headless, asserts the recovery invariants)"
cargo run --release --example fault_recovery

step "managed staging example (Fig. 7/8/9 outcomes, full telemetry on Fig. 7)"
cargo run --release --example managed_staging

step "resilient trade example (D2T commits clean, aborts on a no vote or a lost vote)"
cargo run --release --example resilient_trade

step "multi-tenant example (24 tenants, managed vs unmanaged)"
cargo run --release --example multi_tenant

step "stream fan-out example (N-to-M streaming, restart rejoin, file parity)"
cargo run --release --example stream_fanout

step "crack detection example (threaded runtime, CSym-to-CNA branch, asserts the crack)"
cargo run --release --example crack_detection

step "post-processing example (BP container round trip, provenance-owed replay)"
cargo run --release --example post_processing

step ""
echo "ci: all gates passed in $(fmt_s $(($(now_ms) - ci_start)))"
