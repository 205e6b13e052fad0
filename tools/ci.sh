#!/usr/bin/env bash
# CI entry point: the tier-1 gate (build + full ctest), an order-sensitivity
# pass that reruns the suites whose results depend on the simulated GPU
# being deterministic across host threads five times, unpinned, so that
# every host core runs thread blocks, a checked-execution
# pass that reruns the simt + core GPU suites with PROCLUS_SIMTCHECK=1 (the
# simulator's race & memory checker; see docs/simt.md), a clang-tidy lint
# stage over src/ (skipped when clang-tidy is not installed), the
# ThreadSanitizer pass over the concurrency-sensitive suites (same regex as
# check.sh, now including the obs tracing/metrics tests and the net/ serving
# suites), a trace smoke that runs the CLI with --trace-out and validates
# the emitted Chrome trace JSON parses, and two server smokes that start
# `proclus_cli serve` on a loopback port, run `proclus_loadgen` against it,
# and assert zero failed jobs plus a clean drain on SIGTERM — the second one
# drives all-sweep GPU traffic at a 2-device pool and asserts the sweeps
# actually sharded (service.sweep_shards_total non-zero). A third, chaos
# smoke serves under a deterministic fault plan (--fault-plan; net/fault.h)
# and runs the loadgen with retries: faults must actually fire, yet every
# job completes and the drain stays clean (docs/serving.md, "Failure
# semantics & retries"). A fourth, store smoke serves with a dataset store
# (--store-dir/--store-budget-mb), ships a dataset through the chunked
# binary upload path via `proclus_cli upload`, runs GPU sweeps against the
# uploaded id, and asserts the store counters registered the ingest
# (store.upload_bytes_total non-zero) plus a clean drain (docs/store.md).
# A fifth, cache smoke serves with the content-addressed result cache
# enabled (--result-cache-mb) and drives the loadgen with
# --repeat-fraction 0.5 (half the arrivals deterministically resubmit an
# earlier request): the report must show non-zero service.cache.hits and
# the drain must stay clean (docs/serving.md, "Result cache").
#
# An analyze stage (before the lint stage) enforces the project's static
# invariants: tools/prolint.py over src/ (always — python3 only), and a
# full-tree build with clang's -Wthread-safety capability analysis as
# errors (-DPROCLUS_THREAD_SAFETY=ON; see docs/concurrency.md) whenever a
# clang++ is installed — gcc has no such analysis, so like the clang-tidy
# gate it degrades to a skip message rather than a failure.
#
#   tools/ci.sh [--skip-tsan] [--skip-smoke] [--skip-lint] [--skip-analyze]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_SMOKE=0
SKIP_LINT=0
SKIP_ANALYZE=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-smoke) SKIP_SMOKE=1 ;;
    --skip-lint) SKIP_LINT=1 ;;
    --skip-analyze) SKIP_ANALYZE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier 1: build + full test suite =="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== order sensitivity: GPU / sweep / cache / serving suites, 5 repeats =="
# A result that depends on thread-block order (or a race around it) fails
# only sometimes on a multi-core host; repeating makes it show.
(cd build && ctest --output-on-failure -j"$(nproc)" --repeat until-fail:5 \
    -R '^(equivalence_test|gpu_backend_test|sweep_scheduler_test|result_cache_test|result_cache_stress_test|service_stress_test|net_chaos_test|net_upload_test)$')

echo "== checked execution: simt + core GPU suites under PROCLUS_SIMTCHECK=1 =="
# Every internally constructed simt::Device runs in simtcheck mode, so the
# production kernels must stay race- and memory-clean as the repo grows.
(cd build && PROCLUS_SIMTCHECK=1 ctest --output-on-failure -j"$(nproc)" \
    -R 'sanitizer_test|device_test|atomic_test|stream_test|primitives_test|perf_model_test|gpu_backend_test|gpu_config_test|equivalence_test|fast_strategy_test|multi_param_test|multi_param_rng_test|metamorphic_test|trace_export_test')

if [[ "$SKIP_ANALYZE" == 1 ]]; then
  echo "== skipping analyze =="
else
  echo "== analyze: prolint project invariants over src/ =="
  python3 tools/prolint.py

  if command -v clang++ >/dev/null 2>&1; then
    echo "== analyze: clang -Wthread-safety build (PROCLUS_THREAD_SAFETY=ON) =="
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DPROCLUS_THREAD_SAFETY=ON >/dev/null
    cmake --build build-tsa -j
  else
    echo "== analyze: clang++ not installed; skipping thread-safety build =="
  fi
fi

if [[ "$SKIP_LINT" == 1 ]]; then
  echo "== skipping lint =="
elif command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint: clang-tidy over src/ (.clang-tidy config) =="
  # shellcheck disable=SC2046
  clang-tidy -p build --quiet $(find src -name '*.cc' | sort)
else
  echo "== lint: clang-tidy not installed; skipping =="
fi

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "== skipping TSAN pass =="
else
  echo "== ThreadSanitizer build (PROCLUS_SANITIZE=thread) =="
  cmake -B build-tsan -S . -DPROCLUS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j
  echo "== TSAN: parallel / simt / obs / service / net / store suites =="
  (cd build-tsan && ctest --output-on-failure -j"$(nproc)" \
      -R 'thread_pool_test|cancellation_test|device_test|atomic_test|stream_test|primitives_test|obs_trace_test|obs_metrics_test|service_test|service_stress_test|device_pool_test|sweep_scheduler_test|result_cache_test|result_cache_stress_test|net_loopback_test|net_server_stress_test|net_frame_test|net_fault_test|net_retry_test|net_chaos_test|net_upload_test|dataset_store_test|store_stress_test')
fi

if [[ "$SKIP_SMOKE" == 1 ]]; then
  echo "== skipping trace smoke =="
  echo "== skipping server smoke =="
else
  echo "== trace smoke: proclus_cli --trace-out =="
  TRACE_DIR="$(mktemp -d)"
  trap 'rm -rf "$TRACE_DIR"' EXIT
  ./build/tools/proclus_cli --generate 4000,12,5 --k 5 --l 4 \
      --trace-out="$TRACE_DIR/trace.json" >/dev/null
  python3 - "$TRACE_DIR/trace.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert trace.get("displayTimeUnit") == "ms", "missing displayTimeUnit"
assert events, "empty traceEvents"
driver = {e["name"] for e in events if e.get("cat") == "driver"}
for phase in ("init", "greedy", "iterative", "refinement"):
    assert phase in driver, f"missing driver span: {phase}"
kernels = [e for e in events if e.get("cat") == "kernel"]
assert kernels, "no kernel events"
for e in kernels:
    assert "modeled_ms" in e.get("args", {}), f"kernel without modeled_ms: {e}"
print(f"trace smoke OK: {len(events)} events, {len(kernels)} kernel launches")
EOF

  # The server prints "serving on HOST:PORT" once the listener is bound;
  # --port 0 means the port is ephemeral, so scrape it from the log.
  # Usage: wait_for_port LOGFILE PID -> sets SERVE_PORT (empty on failure).
  wait_for_port() {
    SERVE_PORT=""
    for _ in $(seq 1 100); do
      SERVE_PORT="$(sed -n 's/^serving on [^:]*:\([0-9]*\)$/\1/p' "$1")"
      [[ -n "$SERVE_PORT" ]] && return 0
      if ! kill -0 "$2" 2>/dev/null; then
        echo "server smoke FAILED: server exited before binding" >&2
        cat "$1" >&2
        exit 1
      fi
      sleep 0.1
    done
    echo "server smoke FAILED: no 'serving on' line within 10s" >&2
    cat "$1" >&2
    kill "$2" 2>/dev/null || true
    exit 1
  }

  # Usage: stop_and_check_drain LOGFILE PID — SIGTERM, clean-exit + drain
  # accounting with zero failed jobs.
  stop_and_check_drain() {
    kill -TERM "$2"
    local status=0
    wait "$2" || status=$?
    if [[ "$status" != 0 ]]; then
      echo "server smoke FAILED: serve exited with status $status" >&2
      cat "$1" >&2
      exit 1
    fi
    grep -q "stop requested; draining" "$1"
    grep -Eq "drained: [0-9]+ submitted, [0-9]+ completed, 0 failed" "$1"
    echo "server smoke OK: $(grep '^drained:' "$1")"
  }

  echo "== server smoke: proclus_cli serve + proclus_loadgen + SIGTERM =="
  SERVE_LOG="$TRACE_DIR/serve.log"
  ./build/tools/proclus_cli serve --port 0 --generate 2000,10,4 \
      --dataset-id smoke --queue-capacity 16 >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  wait_for_port "$SERVE_LOG" "$SERVE_PID"

  # Loadgen exits non-zero on any failed job or transport error.
  ./build/tools/proclus_loadgen --port "$SERVE_PORT" --no-register \
      --dataset-id smoke --connections 4 --rps 20 --duration 2 \
      --interactive 0.5 --backend cpu

  stop_and_check_drain "$SERVE_LOG" "$SERVE_PID"

  echo "== sharded sweep smoke: GPU sweeps across a 2-device pool =="
  SWEEP_LOG="$TRACE_DIR/serve_sweep.log"
  ./build/tools/proclus_cli serve --port 0 --generate 2000,10,4 \
      --dataset-id smoke --queue-capacity 16 --gpu-devices 2 \
      >"$SWEEP_LOG" 2>&1 &
  SERVE_PID=$!
  wait_for_port "$SWEEP_LOG" "$SERVE_PID"

  # All-sweep GPU traffic with a shard budget of 2; the report must show a
  # non-zero service.sweep_shards_total (sweeps actually sharded across the
  # pool, not run serially on one leased device).
  LOADGEN_LOG="$TRACE_DIR/loadgen_sweep.log"
  ./build/tools/proclus_loadgen --port "$SERVE_PORT" --no-register \
      --dataset-id smoke --connections 2 --rps 4 --duration 2 \
      --sweeps 1 --backend gpu --shards 2 | tee "$LOADGEN_LOG"
  SWEEP_SHARDS="$(sed -n 's/.*service\.sweep_shards_total=\([0-9]*\).*/\1/p' "$LOADGEN_LOG")"
  if [[ -z "$SWEEP_SHARDS" || "$SWEEP_SHARDS" -eq 0 ]]; then
    echo "sharded sweep smoke FAILED: service.sweep_shards_total missing or zero" >&2
    exit 1
  fi
  echo "sharded sweep smoke OK: service.sweep_shards_total=$SWEEP_SHARDS"

  stop_and_check_drain "$SWEEP_LOG" "$SERVE_PID"

  echo "== chaos smoke: serve --fault-plan + loadgen --retries =="
  FAULT_PLAN="$TRACE_DIR/fault_plan.json"
  cat >"$FAULT_PLAN" <<'EOF'
{"seed": 7,
 "refuse_connection": 0.15,
 "delay": {"probability": 0.15, "ms": 2},
 "close_mid_frame": 0.10,
 "truncate_payload": 0.10,
 "corrupt_length": 0.05,
 "device_failure": 0.20}
EOF
  CHAOS_LOG="$TRACE_DIR/serve_chaos.log"
  ./build/tools/proclus_cli serve --port 0 --generate 2000,10,4 \
      --dataset-id smoke --queue-capacity 16 --fault-plan "$FAULT_PLAN" \
      >"$CHAOS_LOG" 2>&1 &
  SERVE_PID=$!
  wait_for_port "$CHAOS_LOG" "$SERVE_PID"
  grep -q "fault injection enabled" "$CHAOS_LOG"

  # CPU traffic (device faults only hit GPU jobs) with generous retries:
  # the loadgen must absorb every injected fault — exit 0 means zero
  # failed jobs and zero unrecovered transport errors.
  CHAOS_LOADGEN_LOG="$TRACE_DIR/loadgen_chaos.log"
  ./build/tools/proclus_loadgen --port "$SERVE_PORT" --no-register \
      --dataset-id smoke --connections 4 --rps 20 --duration 2 \
      --interactive 0.5 --backend cpu --retries 12 | tee "$CHAOS_LOADGEN_LOG"

  # The run is only meaningful if the plan actually fired.
  FAULTS="$(sed -n 's/.*net\.faults_injected_total=\([0-9]*\).*/\1/p' "$CHAOS_LOADGEN_LOG")"
  if [[ -z "$FAULTS" || "$FAULTS" -eq 0 ]]; then
    echo "chaos smoke FAILED: net.faults_injected_total missing or zero" >&2
    exit 1
  fi
  echo "chaos smoke OK: net.faults_injected_total=$FAULTS"

  stop_and_check_drain "$CHAOS_LOG" "$SERVE_PID"
  grep -q "faults injected:" "$CHAOS_LOG"

  echo "== store smoke: serve --store-dir + proclus_cli upload + GPU sweep =="
  STORE_DIR="$TRACE_DIR/store"
  STORE_LOG="$TRACE_DIR/serve_store.log"
  ./build/tools/proclus_cli serve --port 0 --generate 2000,10,4 \
      --dataset-id smoke --queue-capacity 16 --gpu-devices 2 \
      --store-dir "$STORE_DIR" --store-budget-mb 64 >"$STORE_LOG" 2>&1 &
  SERVE_PID=$!
  wait_for_port "$STORE_LOG" "$SERVE_PID"
  grep -q "dataset store at" "$STORE_LOG"

  # Ship a client-side dataset through the chunked binary ingest, then
  # drive GPU sweeps against the uploaded id (resolved through the store,
  # pinned for each job's lifetime).
  ./build/tools/proclus_cli upload --generate 1500,12,4 --port "$SERVE_PORT" \
      --dataset-id uploaded | grep "uploaded 'uploaded'"
  STORE_LOADGEN_LOG="$TRACE_DIR/loadgen_store.log"
  ./build/tools/proclus_loadgen --port "$SERVE_PORT" --no-register \
      --dataset-id uploaded --connections 2 --rps 4 --duration 2 \
      --sweeps 1 --backend gpu | tee "$STORE_LOADGEN_LOG"

  # The upload must be visible in the store counters the report surfaces.
  UPLOAD_BYTES="$(sed -n 's/.*store\.upload_bytes_total=\([0-9]*\).*/\1/p' "$STORE_LOADGEN_LOG")"
  if [[ -z "$UPLOAD_BYTES" || "$UPLOAD_BYTES" -eq 0 ]]; then
    echo "store smoke FAILED: store.upload_bytes_total missing or zero" >&2
    exit 1
  fi
  echo "store smoke OK: store.upload_bytes_total=$UPLOAD_BYTES"

  stop_and_check_drain "$STORE_LOG" "$SERVE_PID"

  echo "== cache smoke: serve --result-cache-mb + loadgen --repeat-fraction =="
  CACHE_LOG="$TRACE_DIR/serve_cache.log"
  ./build/tools/proclus_cli serve --port 0 --generate 2000,10,4 \
      --dataset-id smoke --queue-capacity 16 \
      --result-cache-mb 64 >"$CACHE_LOG" 2>&1 &
  SERVE_PID=$!
  wait_for_port "$CACHE_LOG" "$SERVE_PID"
  grep -q "result cache on" "$CACHE_LOG"

  # Half the arrivals deterministically resubmit an earlier request's exact
  # parameters; the server must serve them from the cache — the loadgen
  # report surfaces both its client-side hit count and the authoritative
  # service.cache.hits counter, which must be non-zero.
  CACHE_LOADGEN_LOG="$TRACE_DIR/loadgen_cache.log"
  ./build/tools/proclus_loadgen --port "$SERVE_PORT" --no-register \
      --dataset-id smoke --connections 4 --rps 20 --duration 2 \
      --interactive 0.5 --backend cpu --repeat-fraction 0.5 \
      | tee "$CACHE_LOADGEN_LOG"
  CACHE_HITS="$(sed -n 's/.*service\.cache\.hits=\([0-9]*\).*/\1/p' "$CACHE_LOADGEN_LOG")"
  if [[ -z "$CACHE_HITS" || "$CACHE_HITS" -eq 0 ]]; then
    echo "cache smoke FAILED: service.cache.hits missing or zero" >&2
    exit 1
  fi
  echo "cache smoke OK: service.cache.hits=$CACHE_HITS"

  stop_and_check_drain "$CACHE_LOG" "$SERVE_PID"
fi

echo "ci.sh: all green"
