#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of standard output is
#       the result object BENCHMARK.json's contract describes
#   benchmark/run.sh [suite] [--seed N] [--seconds S] [--quick] [--out FILE]
#       every workload, untraced then traced, merged into one results file
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh spec            # prints BENCHMARK.json
#
# Works from any directory; the build goes to $CARGO_TARGET_DIR when set,
# else benchmark/target. Traces and scratch files go to benchmark/out.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
# cargo's own output goes to standard error: standard output is the result
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
export NECTAR_BENCHMARK_OUT="$dir/out"
exec "${CARGO_TARGET_DIR:-$dir/target}/release/nectar-benchmark" "$@"
