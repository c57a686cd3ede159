#!/usr/bin/env bash
# Runs the suite twice on the same code and seed and compares the two runs
# against the benchmark's own bounds. Exits non-zero if any end-to-end
# median differs by more than its bound; a metric whose own spread exceeds
# its bound is printed as UNRESOLVED, not as agreeing. Extra arguments pass
# through to both runs (`--seed 7`, `--record`).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-bench/target}/perf_stack"
mkdir -p "$out"
perf_stack() {
    cargo run --offline --release --quiet --manifest-path bench/Cargo.toml \
        --bin perf_stack -- "$@"
}
perf_stack --all --trace "$@" > "$out/agree-1.json"
perf_stack --all --trace "$@" > "$out/agree-2.json"
perf_stack --compare "$out/agree-1.json" "$out/agree-2.json"
