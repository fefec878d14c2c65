#!/usr/bin/env bash
# Offline-safe CI gate for the near-stream suite.
#
# Runs the same checks the project expects before every merge:
#   1. release build of the whole workspace,
#   2. the full test suite (unit, integration, doc tests),
#   3. clippy with warnings promoted to errors,
#   4. a chaos smoke: the fault-injection sweep at --tiny, which asserts
#      bit-identical results under injected faults across 4 fixed seeds,
#   5. a perf smoke: NSC_JOBS=1 vs NSC_JOBS=8 must produce byte-identical
#      tables and JSON (modulo the host.* wall-clock object), and the
#      event-queue/substrate microbenches must run (criterion-bench
#      feature, hand-rolled harness, offline),
#   6. a cache smoke: the same harness twice under NSC_CACHE=1 — the
#      second run must be 100% cache hits (zero simulations) and emit a
#      byte-identical report once the host.* object is stripped,
#   7. an nscd smoke: daemon round trip over a Unix socket, including a
#      warm resubmission that must be served from the cache and show up
#      as a hit in `nsc-client inspect` and the nsc_cache_* Prometheus
#      series,
#   8. a trace smoke: request span trees, the log flight recorder, and
#      fig09 byte-identity with debug logging on,
#   9. an overload soak: a saturating nsc_load burst against a one-worker
#      daemon with fault injection armed — every request must get exactly
#      one terminal response (typed sheds allowed, lost responses not)
#      and the shed counters must surface in the Prometheus exporter;
#      the soak also runs a --sweep to find the saturation knee and
#      emits an nsc-perf-v1 serving summary (aggregate + per-phase
#      steady/burst series + knee_rps) that is gated against
#      results/BENCH_serving_baseline.json (toleranced series),
#  10. a timeline smoke: a one-worker daemon with a fast sampler under a
#      short burst must accumulate >=3 monotone telemetry frames, answer
#      `health` with a parseable verdict, and emit a dashboard HTML with
#      zero external http(s) references,
#  11. a compile smoke: fig09 at --tiny with NSC_COMPILE=0 (tree walker)
#      vs NSC_COMPILE=1 (register bytecode) must be byte-identical
#      (stdout and host-stripped JSON), and the expr_storm microbench
#      must run — it asserts tree/bytecode checksum equality internally.
#
# No network access is required: all dependencies are path dependencies
# inside this workspace, so everything runs with `--offline`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== tests =="
cargo test -q --workspace --offline

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== chaos (fault-injection smoke, 4 fixed seeds) =="
cargo run -q --release -p nsc-bench --offline --bin fig_fault_sweep -- --tiny

echo "== perf (parallel-vs-serial bit-identity) =="
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT
mkdir -p "$PERF_TMP/j1" "$PERF_TMP/j8"
NSC_JOBS=1 NSC_RESULTS_DIR="$PERF_TMP/j1" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/j1.txt"
NSC_JOBS=8 NSC_RESULTS_DIR="$PERF_TMP/j8" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/j8.txt"
diff "$PERF_TMP/j1.txt" "$PERF_TMP/j8.txt"
# The host object ({jobs, sim_runs, wall_ms, profile, ...}) is the one
# legitimate delta. It is the report's last key and carries nested
# braces (host.profile), so strip from its key to end of line.
diff <(sed 's/,"host":.*//' "$PERF_TMP/j1/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$PERF_TMP/j8/fig09_speedup.json")
echo "parallel output is bit-identical (jobs 1 vs 8)"

echo "== perf (substrate microbenches incl. event queue) =="
cargo bench -q -p nsc-bench --offline --features criterion-bench

echo "== cache (cold-vs-warm byte-identity, zero warm simulations) =="
CACHE_TMP="$PERF_TMP/cache"
mkdir -p "$CACHE_TMP/cold" "$CACHE_TMP/warm"
NSC_CACHE=1 NSC_CACHE_DIR="$CACHE_TMP/store" NSC_RESULTS_DIR="$CACHE_TMP/cold" \
  ./target/release/fig09_speedup --tiny > "$CACHE_TMP/cold.txt"
NSC_CACHE=1 NSC_CACHE_DIR="$CACHE_TMP/store" NSC_RESULTS_DIR="$CACHE_TMP/warm" \
  ./target/release/fig09_speedup --tiny > "$CACHE_TMP/warm.txt"
diff "$CACHE_TMP/cold.txt" "$CACHE_TMP/warm.txt"
diff <(sed 's/,"host":.*//' "$CACHE_TMP/cold/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$CACHE_TMP/warm/fig09_speedup.json")
grep -q '"cache_misses":0,' "$CACHE_TMP/warm/fig09_speedup.json" \
  || { echo "warm run simulated instead of replaying"; exit 1; }
grep -q '"cache_hits":0,' "$CACHE_TMP/cold/fig09_speedup.json" \
  || { echo "cold run hit a cache that should have been empty"; exit 1; }
echo "warm run replayed every point from the cache, byte-identical report"

echo "== nscd (daemon round trip + warm resubmission) =="
NSCD_SOCK="$PERF_TMP/nscd.sock"
NSC_CACHE_DIR="$PERF_TMP/nscd-cache" ./target/release/nscd --socket "$NSCD_SOCK" --jobs 2 &
NSCD_PID=$!
for _ in $(seq 50); do [ -S "$NSCD_SOCK" ] && break; sleep 0.1; done
[ -S "$NSCD_SOCK" ] || { echo "nscd never bound its socket"; exit 1; }
./target/release/nsc-client submit --socket "$NSCD_SOCK" --size tiny --mode NS histogram \
  > "$PERF_TMP/nscd-cold.txt"
./target/release/nsc-client submit --socket "$NSCD_SOCK" --size tiny --mode NS histogram \
  > "$PERF_TMP/nscd-warm.txt"
grep -q 'cached=false' "$PERF_TMP/nscd-cold.txt" \
  || { echo "first daemon run claimed to be cached"; cat "$PERF_TMP/nscd-cold.txt"; exit 1; }
grep -q 'cached=true' "$PERF_TMP/nscd-warm.txt" \
  || { echo "resubmission was not served from the cache"; cat "$PERF_TMP/nscd-warm.txt"; exit 1; }
diff <(sed 's/cached=.*//' "$PERF_TMP/nscd-cold.txt") \
     <(sed 's/cached=.*//' "$PERF_TMP/nscd-warm.txt")
./target/release/nsc-client status --socket "$NSCD_SOCK" | grep -q '"ok":true'
./target/release/nsc-client inspect --socket "$NSCD_SOCK" > "$PERF_TMP/nscd-inspect.txt" 2> /dev/null
grep -q '"hits":[1-9]' "$PERF_TMP/nscd-inspect.txt" \
  || { echo "inspect shows no cache hit after the warm resubmission"; cat "$PERF_TMP/nscd-inspect.txt"; exit 1; }
./target/release/nsc-client status --socket "$NSCD_SOCK" | grep -q '"uptime_ms":'
# Live metrics: the daemon's registry saw both runs (one cached), and
# the Prometheus rendering carries the counter with a TYPE line.
./target/release/nsc-client metrics --socket "$NSCD_SOCK" > "$PERF_TMP/nscd-metrics.txt"
grep -q 'serve.runs_cached[ =]*1' "$PERF_TMP/nscd-metrics.txt" \
  || { echo "daemon metrics missed the cached run"; cat "$PERF_TMP/nscd-metrics.txt"; exit 1; }
./target/release/nsc-client metrics --prom --socket "$NSCD_SOCK" > "$PERF_TMP/nscd-prom.txt"
grep -q '# TYPE nsc_serve_runs_total counter' "$PERF_TMP/nscd-prom.txt" \
  || { echo "prometheus rendering broken"; cat "$PERF_TMP/nscd-prom.txt"; exit 1; }
grep -q '# TYPE nsc_cache_cold_hits_total counter' "$PERF_TMP/nscd-prom.txt" \
  || { echo "cache.cold.hits missing from prometheus exporter"; cat "$PERF_TMP/nscd-prom.txt"; exit 1; }
./target/release/nsc-client shutdown --socket "$NSCD_SOCK" > /dev/null
wait "$NSCD_PID"
echo "daemon served, cached, reported metrics, and shut down cleanly"

echo "== trace (request spans, flight recorder, log-on bit-identity) =="
TRACE_SOCK="$PERF_TMP/nscd-trace.sock"
NSC_LOG=debug NSC_TRACE=1 NSC_CACHE_DIR="$PERF_TMP/nscd-trace-cache" \
  ./target/release/nscd --socket "$TRACE_SOCK" --jobs 2 &
TRACE_PID=$!
for _ in $(seq 50); do [ -S "$TRACE_SOCK" ] && break; sleep 0.1; done
[ -S "$TRACE_SOCK" ] || { echo "nscd (trace) never bound its socket"; exit 1; }
./target/release/nsc-client submit --socket "$TRACE_SOCK" --size tiny --mode NS histogram \
  > "$PERF_TMP/trace-submit.txt"
RID="$(sed -n 's/.*rid=\([0-9a-f]*\).*/\1/p' "$PERF_TMP/trace-submit.txt")"
[ -n "$RID" ] || { echo "submit printed no request id"; cat "$PERF_TMP/trace-submit.txt"; exit 1; }
./target/release/nsc-client trace "$RID" --socket "$TRACE_SOCK" > "$PERF_TMP/trace-tree.txt"
# Span rows are indented "  <name> <start>µs <dur>µs"; the header line
# carries the wall time. The spans are sequential slices of one request,
# so their durations must sum to within the reported wall time.
WALL="$(sed -n 's/^request .*: wall \([0-9]*\)µs.*/\1/p' "$PERF_TMP/trace-tree.txt")"
awk -v wall="$WALL" '
  /^  / { n++; gsub(/µs/, "", $3); sum += $3 }
  END {
    if (n < 6)      { printf "only %d spans, want >=6\n", n; exit 1 }
    if (sum > wall) { printf "span durations (%dus) exceed wall (%dus)\n", sum, wall; exit 1 }
    printf "%d spans, %dus of %dus wall accounted\n", n, sum, wall
  }' "$PERF_TMP/trace-tree.txt" \
  || { cat "$PERF_TMP/trace-tree.txt"; exit 1; }
# The flight recorder saw the request: `logs` drains structured records.
./target/release/nsc-client logs --socket "$TRACE_SOCK" > "$PERF_TMP/trace-logs.txt"
grep -q '"level":"debug"' "$PERF_TMP/trace-logs.txt" \
  || { echo "flight recorder empty at NSC_LOG=debug"; cat "$PERF_TMP/trace-logs.txt"; exit 1; }
./target/release/nsc-client shutdown --socket "$TRACE_SOCK" > /dev/null
wait "$TRACE_PID"
# Logging must not perturb simulation: fig09 under NSC_LOG=debug is
# byte-identical to the plain NSC_JOBS=1 run from the perf stage.
mkdir -p "$PERF_TMP/logdbg"
NSC_LOG=debug NSC_JOBS=1 NSC_RESULTS_DIR="$PERF_TMP/logdbg" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/logdbg.txt"
diff "$PERF_TMP/j1.txt" "$PERF_TMP/logdbg.txt"
diff <(sed 's/,"host":.*//' "$PERF_TMP/j1/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$PERF_TMP/logdbg/fig09_speedup.json")
echo "request traced end to end, logs drained, sim output unperturbed"

echo "== soak (nsc_load burst vs one-worker daemon, chaos armed) =="
# A saturating open-loop burst against a deliberately tiny daemon
# (one worker, queue_cap 8) with fault injection armed. The harness
# exits non-zero unless every accepted request got exactly one terminal
# response (lost=0, dup=0) and every completed run was bit-identical
# per key (mismatch=0); typed sheds must surface in the Prometheus
# exporter, and the daemon must drain and exit cleanly afterwards.
SOAK_SOCK="$PERF_TMP/nscd-soak.sock"
NSC_CACHE_DIR="$PERF_TMP/nscd-soak-cache" NSC_FAULT_RATE=1e-3 \
  NSC_QUEUE_CAP=8 NSC_MAX_CONNS=32 \
  ./target/release/nscd --socket "$SOAK_SOCK" --jobs 1 &
SOAK_PID=$!
for _ in $(seq 50); do [ -S "$SOAK_SOCK" ] && break; sleep 0.1; done
[ -S "$SOAK_SOCK" ] || { echo "nscd (soak) never bound its socket"; exit 1; }
./target/release/nsc_load --tiny --socket "$SOAK_SOCK" \
  --secs 10 --rate 300 --conns 4 --seed 7 --deadline-ms 2000 --burst 4 \
  --sweep 25,100,400 --sweep-secs 2 \
  --bench-out "$PERF_TMP/BENCH_serving.json" \
  | tee "$PERF_TMP/soak.txt"
grep -q ' lost=0 ' "$PERF_TMP/soak.txt" \
  || { echo "soak lost responses"; exit 1; }
# The sweep must have found a knee and put it in the bench-out series.
grep -q '^nsc_load: knee=' "$PERF_TMP/soak.txt" \
  || { echo "sweep printed no knee"; exit 1; }
grep -q '"knee_rps":' "$PERF_TMP/BENCH_serving.json" \
  || { echo "knee_rps missing from bench-out"; cat "$PERF_TMP/BENCH_serving.json"; exit 1; }
grep -q '"steady_p999_us":' "$PERF_TMP/BENCH_serving.json" \
  || { echo "per-phase series missing from bench-out"; cat "$PERF_TMP/BENCH_serving.json"; exit 1; }
# Serving perf rides the same regression gate as the simulator: the
# soak's throughput/p99/shed-rate series vs the committed baseline,
# with a generous factor band (CI hosts are noisy). Regenerate with:
#   scripts/ci.sh's soak recipe + nsc_load --bench-out (see README).
./target/release/nsc_perf --compare results/BENCH_serving_baseline.json \
  "$PERF_TMP/BENCH_serving.json" --serve-tol 5
./target/release/nsc-client metrics --prom --socket "$SOAK_SOCK" > "$PERF_TMP/soak-prom.txt"
grep -q '# TYPE nsc_serve_shed_total counter' "$PERF_TMP/soak-prom.txt" \
  || { echo "serve.shed missing from prometheus exporter"; cat "$PERF_TMP/soak-prom.txt"; exit 1; }
grep -q '# TYPE nsc_serve_deadline_exceeded_total counter' "$PERF_TMP/soak-prom.txt" \
  || { echo "serve.deadline_exceeded missing from prometheus exporter"; exit 1; }
./target/release/nsc-client shutdown --socket "$SOAK_SOCK" > /dev/null
wait "$SOAK_PID"
echo "soak survived: one terminal response per request, typed sheds observable"

echo "== timeline (sampler frames, health verdict, self-contained dashboard) =="
# A one-worker daemon with a fast sampler under a short nsc_load burst:
# the ring must accumulate frames with monotone timestamps, `health`
# must produce a parseable verdict, and the dashboard artifact must be
# fully self-contained (no external http(s) references).
TL_SOCK="$PERF_TMP/nscd-tl.sock"
NSC_CACHE_DIR="$PERF_TMP/nscd-tl-cache" NSC_SAMPLE_MS=100 NSC_QUEUE_CAP=16 \
  ./target/release/nscd --socket "$TL_SOCK" --jobs 1 &
TL_PID=$!
for _ in $(seq 50); do [ -S "$TL_SOCK" ] && break; sleep 0.1; done
[ -S "$TL_SOCK" ] || { echo "nscd (timeline) never bound its socket"; exit 1; }
./target/release/nsc_load --tiny --socket "$TL_SOCK" \
  --secs 2 --rate 100 --conns 2 --seed 3 > /dev/null
sleep 0.3
./target/release/nsc-client timeline --socket "$TL_SOCK" > "$PERF_TMP/tl-frames.txt"
awk -F'"t_ms":' '
  NF < 2            { print "frame missing t_ms: " $0; exit 1 }
  { split($2, a, ","); t = a[1] + 0
    if (t < prev) { printf "t_ms went backwards: %d after %d\n", t, prev; exit 1 }
    prev = t; n++ }
  END { if (n < 3) { printf "only %d frames, want >=3\n", n; exit 1 }
        printf "%d frames, timestamps monotone\n", n }' "$PERF_TMP/tl-frames.txt" \
  || { cat "$PERF_TMP/tl-frames.txt"; exit 1; }
grep -q '"schema":"nsc-timeline-v1"' "$PERF_TMP/tl-frames.txt" \
  || { echo "frames missing schema tag"; exit 1; }
./target/release/nsc-client health --socket "$TL_SOCK" \
  > "$PERF_TMP/tl-health.txt" 2> "$PERF_TMP/tl-verdict.txt"
grep -Eq '"verdict":"(ok|degraded|failing)"' "$PERF_TMP/tl-health.txt" \
  || { echo "health verdict unparseable"; cat "$PERF_TMP/tl-health.txt"; exit 1; }
./target/release/nsc-client dashboard --socket "$TL_SOCK" --out "$PERF_TMP/tl-dash.html"
grep -q '<html' "$PERF_TMP/tl-dash.html" \
  || { echo "dashboard is not HTML"; exit 1; }
if grep -Eq 'https?://' "$PERF_TMP/tl-dash.html"; then
  echo "dashboard references external assets"; grep -E 'https?://' "$PERF_TMP/tl-dash.html"
  exit 1
fi
./target/release/nsc-client shutdown --socket "$TL_SOCK" > /dev/null
wait "$TL_PID"
echo "timeline sampled live, health answered, dashboard self-contained"

echo "== compile (bytecode-vs-tree bit-identity + expr_storm microbench) =="
# The cost-guided plan pass lowers kernel expression trees to register
# bytecode; NSC_COMPILE=0 forces the tree walker everywhere. The two
# paths must be observationally identical: same stdout, same report
# bytes once the host-timing object is stripped.
mkdir -p "$PERF_TMP/nc0" "$PERF_TMP/nc1"
NSC_COMPILE=0 NSC_JOBS=1 NSC_RESULTS_DIR="$PERF_TMP/nc0" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/nc0.txt"
NSC_COMPILE=1 NSC_JOBS=1 NSC_RESULTS_DIR="$PERF_TMP/nc1" \
  ./target/release/fig09_speedup --tiny > "$PERF_TMP/nc1.txt"
diff "$PERF_TMP/nc0.txt" "$PERF_TMP/nc1.txt"
diff <(sed 's/,"host":.*//' "$PERF_TMP/nc0/fig09_speedup.json") \
     <(sed 's/,"host":.*//' "$PERF_TMP/nc1/fig09_speedup.json")
# expr_storm asserts tree/bytecode checksum equality over deep random
# expression trees and reports the compiled path's speedup.
NSC_RESULTS_DIR="$PERF_TMP" \
  ./target/release/nsc_perf --tiny --only expr_storm --label expr_storm
echo "bytecode and tree walker are bit-identical (NSC_COMPILE 0 vs 1)"

echo "== perf baseline (nsc_perf vs committed BENCH_baseline.json) =="
# Sim counters must match the committed baseline exactly; wall time gets
# a 2x tolerance (CI hosts are noisy). Regenerate after an intentional
# change with:
#   NSC_RESULTS_DIR=results ./target/release/nsc_perf --tiny --label baseline
NSC_RESULTS_DIR="$PERF_TMP" ./target/release/nsc_perf --tiny --label current
./target/release/nsc_perf --compare results/BENCH_baseline.json "$PERF_TMP/BENCH_current.json"
echo "no perf regressions vs results/BENCH_baseline.json"

echo "CI checks passed."
