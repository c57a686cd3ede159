#!/usr/bin/env bash
# Size of the tree, tracked like throughput (ROADMAP item 3): Rust lines
# under crates/ src/ tests/ examples/, public declarations in the API
# snapshot, and packages in Cargo.lock. A simplification should lower
# them; a feature should be able to say what it cost.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "rust_lines $(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "api_declarations $(wc -l < docs/api-surface.txt)"
echo "lock_packages $(grep -c '^\[\[package\]\]' Cargo.lock)"
