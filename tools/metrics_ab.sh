#!/usr/bin/env bash
# Bit-identity check of the working tree against a git revision.
#
# Builds `repro` from <rev> (extracted with `git archive` into a temp dir)
# and from the working tree. At each seed it runs
# `repro metrics all --quick --threads 2` with both, compares every
# METRICS_<id>.json byte for byte, and compares the stdout of
# `repro all --quick` (with its exit status). stderr is left out: thread
# interleaving reorders warnings there.
#
# Usage: tools/metrics_ab.sh <rev> [seed...]     (default seeds 7 11)
#
# Prints "seed S: N files, M differ: <ids>" per seed and exits 1 on any
# difference, 0 when everything is identical.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: tools/metrics_ab.sh <rev> [seed...]" >&2
  exit 2
fi
rev="$1"
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(7 11)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== building repro at $rev =="
mkdir "$work/rev"
git archive "$rev" | tar -x -C "$work/rev"
CARGO_TARGET_DIR="$work/target" cargo build -q --release --offline \
  --manifest-path "$work/rev/Cargo.toml" -p arachnet-experiments --bin repro
old="$work/target/release/repro"

echo "== building repro from the working tree =="
cargo build -q --release --offline -p arachnet-experiments --bin repro
new="$PWD/target/release/repro"

# run <repro> <dir> <seed>: METRICS files and `repro all` stdout into <dir>.
run() {
  mkdir -p "$2"
  (
    cd "$2"
    "$1" metrics all --quick --threads 2 --seed "$3" > /dev/null 2>&1 ||
      echo "exit $?" > metrics_exit.txt
    "$1" all --quick --seed "$3" > all.txt 2> /dev/null || echo "exit $?" >> all.txt
  )
}

status=0
for seed in "${seeds[@]}"; do
  a="$work/old-$seed"
  b="$work/new-$seed"
  run "$old" "$a" "$seed"
  run "$new" "$b" "$seed"
  files="$( (cd "$a" && ls METRICS_*.json; cd "$b" && ls METRICS_*.json) 2> /dev/null | sort -u)"
  n=0
  differ=()
  for f in $files; do
    n=$((n + 1))
    if ! cmp -s "$a/$f" "$b/$f"; then
      id="${f#METRICS_}"
      differ+=("${id%.json}")
    fi
  done
  echo "seed $seed: $n files, ${#differ[@]} differ: ${differ[*]:-}"
  [ ${#differ[@]} -eq 0 ] || status=1
  if [ -e "$a/metrics_exit.txt" ] || [ -e "$b/metrics_exit.txt" ]; then
    echo "seed $seed: repro metrics all failed: $(cat "$a/metrics_exit.txt" 2> /dev/null || echo "exit 0") at $rev," \
      "$(cat "$b/metrics_exit.txt" 2> /dev/null || echo "exit 0") in the working tree"
    status=1
  fi
  if cmp -s "$a/all.txt" "$b/all.txt"; then
    echo "seed $seed: repro all --quick stdout identical"
  else
    echo "seed $seed: repro all --quick stdout differs"
    status=1
  fi
done
exit "$status"
