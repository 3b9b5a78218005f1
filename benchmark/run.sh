#!/usr/bin/env bash
# Builds the benchmark harness and the xlda-serve daemon from this
# checkout's sources, then runs one benchmark invocation:
#
#   bash benchmark/run.sh --workload dse_grid --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/xlda-benchmark" "$@"
