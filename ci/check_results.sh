#!/usr/bin/env bash
# Re-runs every reproduction binary whose output is deterministic and
# diffs its standard output against the committed results/<name>.txt.
# ablations.txt is skipped: it prints a measured runtime ratio.
#
#   cargo build --release --locked -p xlda-bench --bins
#   bash ci/check_results.sh
#
# Exits non-zero, after printing a unified diff, if any output changed
# or any binary failed.
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="${CARGO_TARGET_DIR:-$root/target}/release"
status=0
for expected in "$root"/results/*.txt; do
    name="$(basename "$expected" .txt)"
    [ "$name" = ablations ] && continue
    if "$bin/$name" | diff -u "$expected" -; then
        echo "same     results/$name.txt"
    else
        echo "CHANGED  results/$name.txt"
        status=1
    fi
done
exit "$status"
