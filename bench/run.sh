#!/usr/bin/env bash
# Builds perf_stack and runs the whole suite, traced pass included. The
# result document is the last stdout line; the table goes to stderr. Extra
# arguments pass through (`--seed 7`, `--seconds 18`, `--record`).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --offline --release --quiet --manifest-path bench/Cargo.toml \
    --bin perf_stack -- --all --trace "$@"
