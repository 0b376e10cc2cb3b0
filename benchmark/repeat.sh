#!/usr/bin/env bash
# Runs the whole benchmark N times (default 2) and reports, per metric,
# the median, the quartiles and the spread over the N sets. Exits
# nonzero when two sets of runs of the same code disagree by more than
# a metric's bound, or when an exact count or a digest differs.
#
#   benchmark/repeat.sh [N] [extra harness arguments, e.g. --seed 7]
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-2}"
shift || true
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload all --repeat "$n" "$@"
