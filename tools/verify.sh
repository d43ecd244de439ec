#!/usr/bin/env bash
# Repo verification: build, lint, full test suite, the benchmark's
# self-tests plus one short checked benchmark run, a quick pass over every
# registered experiment, the parallel-sweep determinism check
# (byte-identical `repro` output and METRICS exports at 1 vs 8 worker
# threads, gated by `repro diff --tolerance 0`), the checkpoint/resume
# gate (dyn-churn, fig12a12b and dyn-drift at 1/2/8 threads) and the rejection of
# sweep-only flags on a sweep-less experiment, the run-telemetry smoke
# (journal heartbeats parse, chrome trace loads), the serve smoke
# (admission control, structured errors, graceful drain over a real
# socket), hygiene (no tracked target/ artifacts), and the
# recorder-overhead + serve decode round-trip bench gates.
#
# Usage: tools/verify.sh [seed]     (default seed 7)
#
# Env knobs:
#   ARACHNET_BENCH_GATE_PCT   allowed % regression of phy/full_uplink_trial
#                             vs the committed BENCH_phy.json (default 2)
#   ARACHNET_SKIP_BENCH_GATE  set to 1 to skip the bench gate (noisy hosts)
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-7}"
repro=target/release/repro

echo "== hygiene: no build artifacts under version control =="
if git ls-files | grep -q '^target/'; then
  echo "FAIL: target/ files are tracked by git:" >&2
  git ls-files | grep '^target/' | head >&2
  exit 1
fi
echo "   clean"

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== benchmark (perfbench/): self-tests + one short checked run =="
# perfbench is a cargo workspace of its own, so the workspace build above
# never compiles it. Building it here makes removing or renaming a public
# item the benchmark uses fail verification instead of the benchmark. The
# run is pinned to seed 7, whatever seed this script was given, so its
# paper-shape checks see a seed whose outcome is on record.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
bench_out="$(mktemp)"
bash perfbench/run.sh --workload uplink-sweep --seed 7 --seconds 1 --trace 0 > "$bench_out"
if ! tail -1 "$bench_out" | grep -q '"correct": true'; then
  echo "FAIL: perfbench uplink-sweep run did not report \"correct\": true" >&2
  tail -5 "$bench_out" >&2
  rm -f "$bench_out"
  exit 1
fi
rm -f "$bench_out"
echo "   perfbench: self-tests pass, uplink-sweep seed 7 correct (re-checked against fig12::report)"

echo "== quick pass over every artifact =="
"$repro" all --quick --seed "$seed" > /dev/null

echo "== registry coverage: dynamic-scenario + multi-reader experiments =="
# Capture once and grep the file: `repro list | grep -q` can close the
# pipe before repro finishes writing, panicking it with EPIPE.
list_out="$(mktemp)"
"$repro" list > "$list_out"
for id in dyn-churn dyn-drift dyn-outage dyn-soak mr-fdma mr-interference mr-fleet-soak resilience; do
  if ! grep -q "^$id " "$list_out"; then
    echo "FAIL: registry does not list $id" >&2
    rm -f "$list_out"
    exit 1
  fi
done
rm -f "$list_out"
echo "   dyn-*, mr-*, and resilience experiments registered"

echo "== thread-count determinism (seed $seed) =="
tmp1="$(mktemp -d)" tmp8="$(mktemp -d)"
trap 'rm -rf "$tmp1" "$tmp8"' EXIT
for artifact in fig12a12b fig13a fig14b fig15a fig16 dyn-churn dyn-drift dyn-outage dyn-soak mr-fdma mr-interference mr-fleet-soak; do
  (cd "$tmp1" && "$OLDPWD/$repro" "$artifact" --quick --seed "$seed" --threads 1 --metrics > stdout.txt)
  (cd "$tmp8" && "$OLDPWD/$repro" "$artifact" --quick --seed "$seed" --threads 8 --metrics > stdout.txt)
  # `repro diff --tolerance 0` is the exact gate `cmp` used to be, but a
  # failure names the metric that moved instead of "files differ".
  if ! "$repro" diff "$tmp1/METRICS_$artifact.json" "$tmp8/METRICS_$artifact.json" --tolerance 0 > "$tmp1/diff.txt"; then
    echo "FAIL: METRICS_$artifact.json differs between --threads 1 and --threads 8" >&2
    cat "$tmp1/diff.txt" >&2
    exit 1
  fi
  echo "   $artifact: METRICS export byte-identical at 1 vs 8 threads"
done
# Report text too (sans the wall-domain diagnostics --metrics appends).
for artifact in fig12a12b fig13a fig14b; do
  "$repro" "$artifact" --quick --seed "$seed" --threads 1 > "$tmp1/r.txt"
  "$repro" "$artifact" --quick --seed "$seed" --threads 8 > "$tmp8/r.txt"
  if ! cmp -s "$tmp1/r.txt" "$tmp8/r.txt"; then
    echo "FAIL: $artifact differs between --threads 1 and --threads 8" >&2
    diff "$tmp1/r.txt" "$tmp8/r.txt" | head >&2
    exit 1
  fi
  echo "   $artifact: report byte-identical at 1 vs 8 threads"
done

echo "== checkpoint/resume determinism (seed $seed) =="
# An interrupted-then-resumed sweep must export byte-identical metrics to
# an uninterrupted run, at every thread count. `--halt-after N` plays the
# interruption deterministically; `--resume` picks the checkpoint up.
# dyn-drift has 3 trials, so it halts after 1: the resume then replays
# that trial off the worker pool (its packet fan-out runs inline) and
# runs the other 2, whose packets idle workers help finish.
for job in dyn-churn:3 fig12a12b:3 dyn-drift:1; do
  artifact="${job%%:*}" halt="${job##*:}"
  base="$(mktemp -d)"
  (cd "$base" && "$OLDPWD/$repro" metrics "$artifact" --quick --seed "$seed" --threads 2 > stdout.txt)
  for threads in 1 2 8; do
    rdir="$(mktemp -d)"
    (cd "$rdir" && "$OLDPWD/$repro" metrics "$artifact" --quick --seed "$seed" --threads "$threads" \
       --checkpoint-every 1 --halt-after "$halt" > run1.txt)
    if ! grep -q '"partial":true' "$rdir/METRICS_$artifact.json"; then
      echo "FAIL: halted $artifact run at --threads $threads is not flagged partial" >&2
      exit 1
    fi
    if [ ! -f "$rdir/CHECKPOINT_$artifact.bin" ]; then
      echo "FAIL: halted $artifact run at --threads $threads left no checkpoint" >&2
      exit 1
    fi
    (cd "$rdir" && "$OLDPWD/$repro" metrics "$artifact" --quick --seed "$seed" --threads "$threads" \
       --resume > run2.txt)
    if [ -f "$rdir/CHECKPOINT_$artifact.bin" ]; then
      echo "FAIL: completed $artifact resume at --threads $threads did not delete the checkpoint" >&2
      exit 1
    fi
    if ! cmp -s "$rdir/METRICS_$artifact.json" "$base/METRICS_$artifact.json"; then
      echo "FAIL: resumed METRICS_$artifact.json differs from an uninterrupted run at --threads $threads" >&2
      diff "$rdir/METRICS_$artifact.json" "$base/METRICS_$artifact.json" | head >&2
      exit 1
    fi
    echo "   $artifact: interrupt+resume at --threads $threads byte-identical to uninterrupted"
    rm -rf "$rdir"
  done
  rm -rf "$base"
done

echo "== sweep-only flags on an experiment without a sweep exit 2 =="
ndir="$(mktemp -d)"
code=0
(cd "$ndir" && "$OLDPWD/$repro" metrics table1 --quick --halt-after 1 > stdout.txt 2> stderr.txt) || code=$?
if [ "$code" != "2" ]; then
  echo "FAIL: repro metrics table1 --halt-after 1 exited $code, expected 2 (table1 runs no sweep)" >&2
  exit 1
fi
if [ -e "$ndir/METRICS_table1.json" ]; then
  echo "FAIL: a rejected table1 run wrote METRICS_table1.json" >&2
  exit 1
fi
echo "   table1 --halt-after 1: exit 2, nothing written"
rm -rf "$ndir"

echo "== run telemetry: journal heartbeats + chrome trace (seed $seed) =="
tdir="$(mktemp -d)"
(cd "$tdir" && "$OLDPWD/$repro" metrics dyn-soak --quick --seed "$seed" --threads 2 \
   --journal > stdout.txt 2> stderr.txt)
if [ ! -s "$tdir/JOURNAL_dyn-soak.jsonl" ]; then
  echo "FAIL: --journal produced no JOURNAL_dyn-soak.jsonl" >&2
  exit 1
fi
if ! grep -q '\[journal\]' "$tdir/stderr.txt"; then
  echo "FAIL: --journal did not stream a progress line to stderr" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tdir/JOURNAL_dyn-soak.jsonl" <<'PYEOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty journal"
for line in lines:
    beat = json.loads(line)
assert beat["done"] is True, beat
assert beat["completed"] == beat["trials"], beat
PYEOF
  echo "   dyn-soak: journal heartbeats parse line by line, final beat done"
else
  echo "   dyn-soak: journal written (python3 unavailable, line check skipped)"
fi
(cd "$tdir" && "$OLDPWD/$repro" trace dyn-churn --quick --seed "$seed" --threads 2 \
   --chrome > /dev/null)
if [ ! -s "$tdir/TRACE_dyn-churn.chrome.json" ]; then
  echo "FAIL: --chrome produced no TRACE_dyn-churn.chrome.json" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tdir/TRACE_dyn-churn.chrome.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert any(e.get("pid") == 1 and e.get("ph") == "X" for e in events), "no worker lanes"
assert any(e.get("pid") == 2 and e.get("ph") == "i" for e in events), "no sim events"
PYEOF
  echo "   dyn-churn: chrome trace loads as trace_event JSON (lanes + sim events)"
else
  echo "   dyn-churn: chrome trace written (python3 unavailable, load check skipped)"
fi
rm -rf "$tdir"

echo "== quarantine smoke: injected panic must not abort the run =="
qdir="$(mktemp -d)"
# `resilience` panics one trial by design; the sweep must quarantine it
# (exit 0 with sweep.quarantined=1), never exit 3 like a harness panic.
if ! (cd "$qdir" && RUST_BACKTRACE=0 "$OLDPWD/$repro" metrics resilience --quick --seed "$seed" \
       --threads 4 > stdout.txt 2> stderr.txt); then
  echo "FAIL: repro run resilience exited non-zero — quarantine did not contain the panic" >&2
  tail -5 "$qdir/stderr.txt" >&2
  exit 1
fi
if ! grep -q '"sweep.quarantined":1' "$qdir/METRICS_resilience.json"; then
  echo "FAIL: METRICS_resilience.json does not report sweep.quarantined=1" >&2
  grep -o '"sweep[^,}]*' "$qdir/METRICS_resilience.json" >&2 || true
  exit 1
fi
if ! grep -q '"partial":false' "$qdir/METRICS_resilience.json"; then
  echo "FAIL: a quarantined trial must not mark the report partial" >&2
  exit 1
fi
echo "   resilience: quarantined=1, exit 0, report complete"
rm -rf "$qdir"

echo "== serve smoke: admission control, structured errors, graceful drain =="
sdir="$(mktemp -d)"
"$repro" serve --port 0 --workers 1 --queue-depth 1 > "$sdir/serve.txt" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q '^serve: listening on ' "$sdir/serve.txt" 2>/dev/null && break
  sleep 0.1
done
port="$(sed -nE 's/^serve: listening on 127\.0\.0\.1:([0-9]+).*/\1/p' "$sdir/serve.txt" | head -1)"
if [ -z "$port" ]; then
  echo "FAIL: repro serve did not announce a listening address" >&2
  cat "$sdir/serve.txt" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# Reads one reply line from fd $1 and requires it to contain $2.
serve_expect() {
  local fd="$1" want="$2" label="$3" reply=""
  if ! IFS= read -t 30 -r reply <&"$fd"; then
    echo "FAIL: serve smoke: no reply for $label" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  case "$reply" in
    *"$want"*) ;;
    *)
      echo "FAIL: serve smoke: $label expected $want, got: $reply" >&2
      kill "$serve_pid" 2>/dev/null || true
      exit 1
      ;;
  esac
}
# Good query through the real PHY path, then a malformed one on the same
# connection: a structured error, not a disconnect.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf '{"op":"decode","tag":8,"ul_bps":2000,"packets":1,"seed":7}\n' >&3
serve_expect 3 '"ok":true' "decode"
printf '{not json\n' >&3
serve_expect 3 '"error":"malformed"' "malformed line"
exec 3<&- 3>&-
# Overload: park the single worker, fill the depth-1 queue; the next
# request must be shed immediately with a structured rejection.
exec 4<>"/dev/tcp/127.0.0.1/$port"
printf '{"op":"sleep","ms":2000}\n' >&4
sleep 0.3
exec 5<>"/dev/tcp/127.0.0.1/$port"
printf '{"op":"sleep","ms":10}\n' >&5
sleep 0.2
exec 6<>"/dev/tcp/127.0.0.1/$port"
printf '{"op":"decode","tag":1,"ul_bps":2000,"packets":1}\n' >&6
serve_expect 6 '"error":"overloaded"' "queue-full decode"
exec 6<&- 6>&-
# Graceful drain: shutdown acks, both admitted sleeps are still answered
# (admitted-means-answered across drain), and the process exits 0.
exec 7<>"/dev/tcp/127.0.0.1/$port"
printf '{"op":"shutdown"}\n' >&7
serve_expect 7 '"draining":true' "shutdown"
serve_expect 4 '"ok":true' "parked sleep across drain"
serve_expect 5 '"ok":true' "queued sleep across drain"
exec 4<&- 4>&- 5<&- 5>&- 7<&- 7>&-
if ! wait "$serve_pid"; then
  echo "FAIL: repro serve exited non-zero after a clean drain" >&2
  cat "$sdir/serve.txt" >&2
  exit 1
fi
echo "   serve: decode ok, malformed/overloaded structured, drained with exit 0"
rm -rf "$sdir"

if [ "${ARACHNET_SKIP_BENCH_GATE:-0}" = "1" ]; then
  echo "== recorder-overhead bench gate: SKIPPED (ARACHNET_SKIP_BENCH_GATE=1) =="
else
  echo "== recorder-overhead bench gate =="
  # The committed BENCH_phy.json median is the pre-observability baseline;
  # `uplink_trial` now runs through the instrumented path with a disabled
  # recorder — and the run-telemetry layer (journal/watchdog/lanes) is
  # compiled in but off — so a regression here means observability is not
  # free when unused. The serve tier rides the same gate: arachnet-serve
  # is linked into the workspace but must stay off the PHY hot path, so
  # the fresh-run median moving past the committed baseline also catches
  # the serving work leaking cost into the trial loop.
  gate_pct="${ARACHNET_BENCH_GATE_PCT:-2}"
  baseline="$(sed -nE 's/.*"name": "phy\/full_uplink_trial",.*"ns_median": ([0-9.]+).*/\1/p' BENCH_phy.json | head -1)"
  if [ -z "$baseline" ]; then
    echo "FAIL: no phy/full_uplink_trial entry in BENCH_phy.json" >&2
    exit 1
  fi
  cargo build --release -p bench --benches >/dev/null 2>&1
  phy_bin="$(ls -t target/release/deps/phy-* 2>/dev/null | grep -v '\.d$' | head -1)"
  # Noise on this gate is one-sided — scheduler/thermal pressure (e.g.
  # running right after the full test suite) only ever adds time — so the
  # gate is best-of-3: a real regression fails every attempt, a hot host
  # passes on a retry. Both checks must hold within the same attempt.
  gate_ok=0
  for attempt in 1 2 3; do
    ARACHNET_BENCH_DIR="$tmp1" ARACHNET_BENCH_SAMPLES="${ARACHNET_BENCH_SAMPLES:-15}" "$phy_bin" > "$tmp1/bench.txt"
    current="$(sed -nE 's/.*"name": "phy\/full_uplink_trial",.*"ns_median": ([0-9.]+).*/\1/p' "$tmp1/BENCH_phy.json" | head -1)"
    # TimeVaryingChannel must keep the static hot path: the identity-epoch
    # drifting trial is gated against the static trial from the SAME fresh
    # run, so host speed cancels out.
    tv="$(sed -nE 's/.*"name": "phy\/full_uplink_trial_timevarying",.*"ns_median": ([0-9.]+).*/\1/p' "$tmp1/BENCH_phy.json" | head -1)"
    if [ -z "$current" ] || [ -z "$tv" ]; then
      echo "FAIL: fresh bench run is missing phy/full_uplink_trial or _timevarying" >&2
      exit 1
    fi
    if awk -v cur="$current" -v base="$baseline" -v pct="$gate_pct" \
         'BEGIN { exit !(cur <= base * (1 + pct / 100)) }' \
       && awk -v cur="$tv" -v base="$current" -v pct="$gate_pct" \
         'BEGIN { exit !(cur <= base * (1 + pct / 100)) }'; then
      gate_ok=1
      break
    fi
    echo "   attempt $attempt: full_uplink_trial $current ns (baseline $baseline), timevarying $tv ns — retrying"
  done
  if [ "$gate_ok" = "1" ]; then
    echo "   phy/full_uplink_trial: $current ns vs baseline $baseline ns (gate: +$gate_pct%) — OK"
    echo "   phy/full_uplink_trial_timevarying: $tv ns vs static $current ns (gate: +$gate_pct%) — OK"
  else
    echo "FAIL: bench gate failed on all 3 attempts — last full_uplink_trial median $current ns vs baseline $baseline ns, timevarying $tv ns (gate: +$gate_pct%)" >&2
    echo "      (recorder-off instrumentation and epoch selection must be free; raise ARACHNET_BENCH_GATE_PCT on noisy hosts)" >&2
    exit 1
  fi

  echo "== serve bench gate: decode round trip =="
  # One uplink-decode request end to end over a real socket (parse,
  # admission, deadline arming, worker dispatch, PHY, reply) against the
  # committed BENCH_serve.json median, so serving overhead cannot creep
  # onto the request path unnoticed. Same best-of-3 / one-sided-noise
  # logic as the PHY gate above.
  serve_baseline="$(sed -nE 's/.*"name": "serve\/roundtrip_decode_1pkt",.*"ns_median": ([0-9.]+).*/\1/p' BENCH_serve.json | head -1)"
  if [ -z "$serve_baseline" ]; then
    echo "FAIL: no serve/roundtrip_decode_1pkt entry in BENCH_serve.json" >&2
    exit 1
  fi
  serve_bin="$(ls -t target/release/deps/serve-* 2>/dev/null | grep -v '\.d$' | head -1)"
  serve_gate_ok=0
  for attempt in 1 2 3; do
    ARACHNET_BENCH_DIR="$tmp1" ARACHNET_BENCH_SAMPLES="${ARACHNET_BENCH_SAMPLES:-15}" "$serve_bin" > "$tmp1/serve_bench.txt"
    serve_current="$(sed -nE 's/.*"name": "serve\/roundtrip_decode_1pkt",.*"ns_median": ([0-9.]+).*/\1/p' "$tmp1/BENCH_serve.json" | head -1)"
    if [ -z "$serve_current" ]; then
      echo "FAIL: fresh serve bench run is missing serve/roundtrip_decode_1pkt" >&2
      exit 1
    fi
    if awk -v cur="$serve_current" -v base="$serve_baseline" -v pct="$gate_pct" \
         'BEGIN { exit !(cur <= base * (1 + pct / 100)) }'; then
      serve_gate_ok=1
      break
    fi
    echo "   attempt $attempt: roundtrip_decode_1pkt $serve_current ns (baseline $serve_baseline ns) — retrying"
  done
  if [ "$serve_gate_ok" = "1" ]; then
    echo "   serve/roundtrip_decode_1pkt: $serve_current ns vs baseline $serve_baseline ns (gate: +$gate_pct%) — OK"
  else
    echo "FAIL: serve bench gate failed on all 3 attempts — last roundtrip_decode_1pkt median $serve_current ns vs baseline $serve_baseline ns (gate: +$gate_pct%)" >&2
    echo "      (the decode round trip must not get slower; raise ARACHNET_BENCH_GATE_PCT on noisy hosts)" >&2
    exit 1
  fi
fi

echo "verify: OK"
