#!/usr/bin/env bash
# Builds the benchmark and the sygraph-cli binary it probes, from the
# sources of this checkout, then hands every argument to the benchmark:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]       every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one run (the driver's form)
#   benchmark/run.sh check [--sets K] [--seed N]              K untraced sets, compared cell by cell
#
# The last line of standard output of a single run is its result object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Build output goes to stderr. Both packages build in the benchmark's own
# workspace, so the crates under test are compiled once for the two of them.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p sygraph-benchmark -p sygraph-cli >&2
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
