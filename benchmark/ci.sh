#!/usr/bin/env bash
# Build the standalone benchmark workspace, run its self-tests, and run
# the whole set once at smoke size with every check on (well under a
# minute after the build). Run from anywhere; works offline.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline -q
# .cargo/config.toml points the build at the repo's target/ unless
# CARGO_TARGET_DIR says otherwise.
bin="$(cd "${CARGO_TARGET_DIR:-../target}" && pwd)/release/lots-benchmark"
# From the repo root, so trace files land in benchmark/out/.
cd ..
exec "$bin" --quick
