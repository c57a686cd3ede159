#!/usr/bin/env bash
# Size of the tree, tracked like throughput (ROADMAP items 1 and 9): Rust
# lines under crates/ src/ tests/ examples/, public declarations in the API
# snapshot, packages in Cargo.lock, and Rust lines of the benchmark package
# (bench/src, read only). A simplification should lower them; a feature
# should be able to say what it cost.
#
# The default mode prints the figures and fails when any of them differs
# from the ones tracked in docs/size.txt, so every change in size, growth
# or shrinkage, is a reviewed diff like the API surface: a shrink left
# untracked would be slack a later change could grow back into unseen.
# After an intended change run `scripts/size.sh --update` and commit the
# result.
set -euo pipefail
cd "$(dirname "$0")/.."

TRACKED=docs/size.txt

rust_lines() {
    find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l
}

measure() {
    echo "rust_lines $(rust_lines crates src tests examples)"
    echo "api_declarations $(wc -l < docs/api-surface.txt)"
    echo "lock_packages $(grep -c '^\[\[package\]\]' Cargo.lock)"
    echo "bench_lines $(rust_lines bench/src)"
}

case "${1:-check}" in
--update)
    measure | tee "$TRACKED"
    ;;
check)
    if [[ ! -f "$TRACKED" ]]; then
        echo "size: $TRACKED missing — run scripts/size.sh --update" >&2
        exit 1
    fi
    now=$(measure)
    echo "$now"
    if ! diff -u "$TRACKED" <(echo "$now") >&2; then
        echo >&2
        echo "size: the tree no longer matches $TRACKED." >&2
        echo "If the change is intended, run scripts/size.sh --update and commit it." >&2
        exit 1
    fi
    ;;
*)
    echo "usage: scripts/size.sh [--update]" >&2
    exit 2
    ;;
esac
