#!/usr/bin/env bash
# Full local CI: format, lint, build, test, docs, quick experiments.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all --check

echo "== api surface =="
# Declaration-level snapshot of the public API; drift fails until the
# snapshot is refreshed with scripts/api_surface.sh --update.
scripts/api_surface.sh

echo "== size =="
# Rust lines, API declarations, lock packages and bench/ lines, tracked like
# throughput: the triple goes in the CHANGES.md line of any PR that moves
# it, and growth of the first two past docs/size.txt fails here until
# someone runs scripts/size.sh --update on purpose.
scripts/size.sh

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (all targets) =="
cargo build --workspace --all-targets

echo "== deprecation-free build =="
# The PR-5..PR-10 API redesign removed every #[deprecated] item; this leg
# keeps the workspace clean of both new deprecations and uses of any
# deprecated std/vendored API.
RUSTFLAGS="-D deprecated" cargo check --workspace --all-targets

echo "== tests =="
cargo test --workspace

echo "== store on one CPU (5x) =="
# One pinned CPU is where the store's PR 12 deadlock reproduced and where a
# missed release-then-recheck would show: callers drive the store, a
# descheduled driver holds what it holds until it runs again, and a lost
# wake-up has no second core to paper over it. The sequential oracle
# (check_store_conformance) runs pinned too, and so does the park pin
# (crates/store/tests/parks.rs), which asserts its bound on voluntary
# context switches per call only on one CPU.
if command -v taskset > /dev/null; then
    for round in 1 2 3 4 5; do
        taskset -c 0 cargo test --release -p mc-store
        taskset -c 0 cargo test --release --test store_properties
        taskset -c 0 cargo test --release -p mc-lab store_conforms
    done
    # A warm engine slot (checkout, decide, retirement by count: both
    # participants submit) allocates nothing, and neither does a simulated
    # step that enters no stage. The store's warm call, on its own slot
    # pool, is pinned by the five -p mc-store rounds above.
    taskset -c 0 cargo test --release -p mc-runtime --test allocations
    taskset -c 0 cargo test --release -p mc-sim --test allocations
else
    echo "taskset not found: skipping the one-CPU store leg"
fi

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== experiments (quick smoke) =="
cargo run -p mc-bench --release --bin experiments -- all --quick > /dev/null

echo "== telemetry smoke =="
# The simulate CLI's JSONL export, end to end: a recorder attached through
# the CLI must leave, byte for byte, the 55 lines tracked as the fixture
# (deterministic at the default seed), so a drift of the event schema or of
# the run behind it fails here. After an intended change, copy the new
# output over the fixture and review the diff.
cargo run -p mc-bench --release --bin simulate -- --protocol binary --n 4 --trials 2 --telemetry target/telemetry_smoke.jsonl > /dev/null
cmp target/telemetry_smoke.jsonl tests/fixtures/telemetry_smoke.jsonl

echo "== lab conformance (fixed-seed campaign) =="
# Sim engine vs real-thread lab runtime vs mc-check replay: 10^4 seeds per
# protocol over the bounded adversary matrix; any divergence exits nonzero.
cargo run -p mc-bench --release --bin lab_explore -- --seeds 10000

echo "== graph checker (n=3 sweep) =="
# Graph-based model checker over every composed protocol at n=3 (full
# adversary-choice tree, symmetry-reduced), the path engine as n=2
# cross-validation oracle, and the lab replaying the negative control's
# minimal counterexample. The state budget guards against state-space
# regressions: exhaustion fails the campaign.
cargo run -p mc-bench --release --bin check_campaign -- --state-budget 2000000 > /dev/null
test -s BENCH_check_campaign.json

echo "== chaos campaign (exactly-once under worker failure) =="
# Chaos plan x supervision policy sweep over the service: seeded worker
# panics at drain boundaries, mid-drain stalls, and register faults. Every
# submitted proposal must decide exactly once (zero lost, zero duplicate
# ledger entries, restarts within budget); recovery latency quantiles land
# in BENCH_chaos_recovery.json.
cargo run -p mc-bench --release --bin chaos_campaign -- --seeds 5 > chaos_campaign.jsonl
test -s chaos_campaign.jsonl
test -s BENCH_chaos_recovery.json

echo "== coin campaign (portfolio δ̂ reconciliation) =="
# Shared-coin portfolio x adversary-class matrix: every voting-coin cell's
# measured agreement rate must clear twice the per-side theory δ lower
# bound (Wilson 95%), the local coin must reproduce its exact 2^{1-n}
# agreement probability, and the graph engine must exhaustively certify
# CoinConciliator(voting coin) at n=3 plus the full coin-built chain at
# n=2 under pinned vote streams. Trials are bounded for CI wall-clock; the
# state budget must stay >= 2000000 so the n=3 certificates never truncate.
cargo run -p mc-bench --release --bin coin_campaign -- --trials 120 --state-budget 2000000
test -s BENCH_coin_campaign.json

echo "== fault campaign (degradation smoke) =="
# Fault class x rate x protocol sweep over fault-injected lab runs: safety
# must hold with zero violations in every cell, bounded consensus must
# terminate on every seed, and measured fallback rates must reconcile with
# theory::fallback_probability. One machine-readable JSON line per cell on
# stdout; nonzero exit on any violation.
cargo run -p mc-bench --release --bin fault_campaign -- --seeds 1000 > fault_campaign.jsonl
test -s fault_campaign.jsonl
# A faulted lab run is a pure function of (adversary, seed, plan), so a
# second campaign must print the same bytes; a fault decision taken outside
# the lab's schedule shows up here as a differing faults_injected.
cargo run -p mc-bench --release --bin fault_campaign -- --seeds 1000 > target/fault_campaign_rerun.jsonl
cmp fault_campaign.jsonl target/fault_campaign_rerun.jsonl

echo "== perf_stack (smoke + unit tests) =="
# The repo's one benchmark (bench/, BENCHMARK.json): a 1/20-size pass over
# all six workloads with the schema self-check, then the package's unit
# tests. Timing is gated by the benchmark driver against the parent commit,
# not here; this leg only keeps the surviving measurement path building,
# running and verifying its outputs on every push.
# bench/ is frozen outside benchmark PRs, but its tracked Cargo.lock still
# names a shim this workspace no longer has and lacks mc-store's rand and
# mc-model edges, so cargo rewrites it on every build: put the tracked
# bytes back however the leg ends (ROADMAP item 1 has the refresh as a
# follow-up for the next benchmark PR).
bench_lock=$(mktemp)
cp bench/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" bench/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo run --release --manifest-path bench/Cargo.toml --bin perf_stack -- --smoke > /dev/null
cargo test --release --manifest-path bench/Cargo.toml

echo "CI OK"
