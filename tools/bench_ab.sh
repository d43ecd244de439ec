#!/usr/bin/env bash
# A/B timing of the benchmark (perfbench/) against a git revision.
#
# Builds perfbench twice before any timed run: from <rev> (extracted with
# `git archive`) and from a copy of the working tree, each with its own
# target dir. Neither side builds or runs in this checkout's perfbench/:
# run.sh passes no --locked, so a run there could rewrite its Cargo.lock.
# Both builds pass --locked, so a stale lock fails here, before any run.
#
# It then runs `bash perfbench/run.sh --workload W --seed S --seconds N
# --trace 0` in alternating pairs: <rev> goes first in even pairs and the
# working tree in odd ones, and pair i runs at seed first-seed + i on both
# sides. Only pairs run back to back on one host are comparable: the same
# build drifts by tens of percent between sessions.
#
# Prints every run's end-to-end metrics (with its rounds, failed
# operations and digest verdict), then for each `end_to_end` metric of BENCHMARK.json: each
# side's median [q1, q3], the median per-pair ratio (change / rev),
# "change lower in k of n" and the spread of <rev>'s runs,
# (q3 - q1) / median. Quartiles interpolate linearly between order
# statistics.
#
# Usage: tools/bench_ab.sh <rev> <workload> [pairs] [seconds] [first-seed]
#        (defaults: 10 pairs, BENCHMARK.json's 20 s, first seed 1)
#
# Exits 1 when a run fails or does not end with "correct": true, or when
# perfbench/ differs from HEAD afterwards; 2 on a usage error. Builds go to
# a temp dir ($TMPDIR) that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: tools/bench_ab.sh <rev> <workload> [pairs] [seconds] [first-seed]" >&2
  exit 2
}
[ $# -ge 2 ] && [ $# -le 5 ] || usage
rev="$1" workload="$2" pairs="${3:-10}" seconds="${4:-20}" first_seed="${5:-1}"
for n in "$pairs" "$seconds" "$first_seed"; do
  [[ "$n" =~ ^[0-9]+$ ]] || usage
done
[ "$pairs" -ge 1 ] || usage
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "bench_ab: $rev is not a commit" >&2
  exit 2
}

# The end-to-end metric names, in BENCHMARK.json's order.
metrics="$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)"
[ -n "$metrics" ] || {
  echo "bench_ab: no end_to_end metrics in BENCHMARK.json" >&2
  exit 1
}

perfbench_clean() {
  if [ -n "$(git status --porcelain -- perfbench/)" ]; then
    echo "FAIL: perfbench/ differs from HEAD:" >&2
    git status --porcelain -- perfbench/ >&2
    return 1
  fi
}
perfbench_clean

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== extracting $rev and the working tree =="
mkdir "$work/rev" "$work/new"
git archive "$rev" | tar -x -C "$work/rev"
git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - 2> /dev/null | tar -x -C "$work/new"

for side in rev new; do
  echo "== building perfbench ($side) =="
  CARGO_TARGET_DIR="$work/target-$side" cargo build --quiet --release --offline --locked \
    --manifest-path "$work/$side/perfbench/Cargo.toml"
done

# run_one <side> <pair> <seed>: one timed run; appends "<side> <pair>
# <metric> <value>" lines to $work/results.
run_one() {
  local side="$1" pair="$2" seed="$3" out="$work/run.txt"
  if ! (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" bash perfbench/run.sh \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) > "$out" 2>&1; then
    echo "FAIL: $side run (pair $pair, seed $seed) exited non-zero:" >&2
    tail -5 "$out" >&2
    exit 1
  fi
  local last
  last="$(tail -1 "$out")"
  case "$last" in
    *'"correct": true'*) ;;
    *)
      echo "FAIL: $side run (pair $pair, seed $seed) is not correct:" >&2
      tail -5 "$out" >&2
      exit 1
      ;;
  esac
  local rounds digest ops line="" m v
  rounds="$(sed -nE 's/^rounds: ([0-9]+).*/\1/p' "$out" | head -1)"
  ops="$(printf '%s\n' "$last" | sed -nE 's/.*"attempted": ([0-9]+), "failed": ([0-9]+).*/\2 of \1 failed/p')"
  digest="$(sed -nE 's/^sim_digest .*\((.*)\)$/\1/p' "$out" | head -1)"
  for m in $metrics; do
    v="$(printf '%s\n' "$last" | sed -nE "s/.*\"$m\": \\{\"value\": ([^,]+),.*/\\1/p")"
    [ -n "$v" ] || v=nan
    echo "$side $pair $m $v" >> "$work/results"
    line="$line $m=$(printf '%.6g' "$v")"
  done
  printf 'pair %2d seed %-3d %-4s rounds %-3s%s; %s%s\n' "$pair" "$seed" "$side" \
    "${rounds:--}" "$line" "${ops:-ops ?}" "${digest:+ ($digest)}"
}

echo "== $pairs alternating pairs: $workload, $seconds s per run =="
: > "$work/results"
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    run_one rev "$i" "$seed"
    run_one new "$i" "$seed"
  else
    run_one new "$i" "$seed"
    run_one rev "$i" "$seed"
  fi
done

echo "== $workload: $rev (rev) vs the working tree (change), $pairs pairs =="
for m in $metrics; do
  awk -v m="$m" -v n="$pairs" '
    function sort(a, k,   i, j, t) {
      for (i = 2; i <= k; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Quantile p of the sorted a[1..k], linear between order statistics.
    function q(a, k, p,   h, lo) {
      h = 1 + (k - 1) * p
      lo = int(h)
      return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function stats(a, k) { return sprintf("%.4g [%.4g, %.4g]", q(a, k, 0.5), q(a, k, 0.25), q(a, k, 0.75)) }
    $3 == m && $4 != "nan" { val[$1, $2] = $4 + 0 }
    END {
      k = 0; lower = 0; r = 0
      for (i = 0; i < n; i++) {
        if (!(("rev", i) in val) || !(("new", i) in val)) continue
        k++
        a[k] = val["rev", i]; b[k] = val["new", i]
        if (b[k] < a[k]) lower++
        if (a[k] != 0) { r++; ratio[r] = b[k] / a[k] }
      }
      if (k == 0) { printf "%-14s no values\n", m; exit }
      sort(a, k); sort(b, k); sort(ratio, r)
      med = q(a, k, 0.5)
      printf "%-14s rev %s | change %s | ratio %s | change lower in %d of %d | rev spread %s\n",
        m, stats(a, k), stats(b, k), r ? sprintf("%.4f", q(ratio, r, 0.5)) : "n/a",
        lower, k, med != 0 ? sprintf("%.3f", (q(a, k, 0.75) - q(a, k, 0.25)) / med) : "n/a"
    }' "$work/results"
done

perfbench_clean
