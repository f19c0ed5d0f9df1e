#!/usr/bin/env sh
# Regenerates BENCH_10.json — the committed machine-readable summary of
# the partial-order-reduction benchmark: off vs stubborn state counts on
# the mine pump and three 10-task sweep shapes, at one and four workers.
# Run from the repository root:
#
#   scripts/bench-summary.sh [output.json]
#
# The numbers at jobs=1 are deterministic (state counts close a fixed
# reduced space); jobs=4 rows race workers and vary a few percent run to
# run — treat their states_visited as indicative, the verdicts as exact.
set -eu

out="${1:-BENCH_10.json}"

cargo build --release --example por_summary
target/release/examples/por_summary > "$out"
echo "bench-summary: wrote $out"
