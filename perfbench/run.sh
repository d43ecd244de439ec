#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# A fixed mmap threshold stops glibc from raising it after the first large
# free. Without it, whether a freed multi-MB PHY buffer returns to the
# kernel depends on allocation order across threads, and peak RSS of the
# same run varies by a third; with it, peak RSS is the live working set.
set -euo pipefail
export MALLOC_MMAP_THRESHOLD_=131072
exec cargo run --quiet --release --offline --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
