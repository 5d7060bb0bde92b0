#!/usr/bin/env bash
# CI entry point: tier-1 verify (default build + full test suite), the
# tracing-disabled configuration, an ASan/UBSan pass, and a TSan pass with
# the parallel sampling layers forced multi-threaded.
#
#   ./ci.sh            # all configurations
#   ./ci.sh tier1      # just the tier-1 verify
#   ./ci.sh notrace    # just PQE_ENABLE_TRACING=OFF (Release, -Werror)
#   ./ci.sh sanitize   # just ASan/UBSan
#   ./ci.sh tsan       # just ThreadSanitizer (PQE_THREADS=8)
#   ./ci.sh serve_smoke # batch serving CLI under TSan (PQE_THREADS=8)
#   ./ci.sh perf_smoke # counting hot-path + serving perf smokes
#   ./ci.sh bench_gate # perf-regression gate vs committed BENCH_*.json
#   ./ci.sh perfbench  # short traced run of every benchmark workload

set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "==== ${name}: configure (${dir}) ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== ${name}: build ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== ${name}: ctest ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

tier1() {
  # The counters keep flat, id-indexed stratum tables: node containers were
  # the tree counter's ≈ 20% tree_cold self time in the ROADMAP profile.
  if grep -nE '#include <(map|unordered_map)>' src/counting/count_nfa.cc \
      src/counting/count_nfta.cc src/counting/union_estimator.h \
      src/counting/union_estimator.cc; then
    echo "tier-1: counter sources must not include <map> or <unordered_map>"
    exit 1
  fi
  # CountNFA is an encoding onto the tree counter: a second stratum
  # expansion over the union estimator must not grow back.
  if grep -n '#include "counting/union_estimator.h"' \
      src/counting/count_nfa.cc; then
    echo "tier-1: count_nfa.cc must not include counting/union_estimator.h"
    exit 1
  fi
  # PqeService serves through PqeEngine's request envelope and kAuto policy:
  # a second method choice or deadline envelope must not grow back there.
  if grep -nE 'IsSafeQuery|enumeration_threshold|CancelToken' \
      src/serve/service.cc; then
    echo "tier-1: service.cc must not resolve methods or deadlines itself"
    exit 1
  fi
  # PqeEngine runs one method cascade for every target: its lineage step
  # calls the exact model counter and Karp–Luby once each, and the
  # per-target Karp–Luby wrappers must not grow back.
  for call in 'KarpLubyEstimate(' 'ExactDnfProbabilityDecomposed('; do
    if [ "$(grep -cF "${call}" src/core/engine.cc)" -gt 1 ]; then
      echo "tier-1: engine.cc must call ${call} once, in its lineage step"
      exit 1
    fi
  done
  if grep -nE 'KarpLubyPqe|KarpLubyUnionPqe' src/core/engine.cc; then
    echo "tier-1: engine.cc must not call per-target Karp–Luby wrappers"
    exit 1
  fi
  # Warnings are errors here: the default build is warning-free, and this
  # keeps it so.
  run_config "tier-1" build -DPQE_WERROR=ON
}

notrace() {
  # Also the Release (-O3 -DNDEBUG) -Werror build: optimization-dependent
  # warnings (e.g. -Wrestrict after inlining) only show up here.
  run_config "no-tracing" build-notrace -DPQE_ENABLE_TRACING=OFF \
    -DCMAKE_BUILD_TYPE=Release -DPQE_WERROR=ON
}

sanitize() {
  # Benchmarks are excluded: google-benchmark is not built with sanitizers
  # here and the point is to scrub the library + tests.
  run_config "asan/ubsan" build-asan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPQE_BUILD_BENCHMARKS=OFF \
    -DPQE_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
}

tsan() {
  # Scrub the fork/join pool and the parallel rep/shard loops for data
  # races. PQE_THREADS=8 makes every num_threads=0 (auto) config fan out,
  # so the whole suite — not just the determinism tests — runs threaded;
  # the determinism contract keeps all expected values unchanged.
  (
    export PQE_THREADS=8
    run_config "tsan" build-tsan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPQE_BUILD_BENCHMARKS=OFF \
      -DPQE_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  )
}

serve_smoke() {
  # Drive the serving layer end to end under ThreadSanitizer: the batch CLI
  # fans requests across 8 threads, shares cached prepared queries between
  # them, and enforces per-request deadlines. Deadline-capped requests must
  # come back as typed DEADLINE_EXCEEDED rows, not hangs or races.
  (
    export PQE_THREADS=8
    echo "==== serve-smoke: build pqe_cli (tsan) ===="
    cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPQE_BUILD_BENCHMARKS=OFF \
      -DPQE_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
    cmake --build build-tsan -j "${JOBS}" --target pqe_cli
    local batch="build-tsan/serve_smoke.queries"
    {
      # Repeated queries share one cached PreparedQuery across the batch
      # threads (each request still draws its own id-derived samples).
      for _ in 1 2 3 4; do
        echo "Follows(x,y), Likes(y,z)"
        echo "Follows(x,y), Likes(x,z)"
        echo "Likes(x,y)"
        # Regular path queries ride the same batch: a lowered linear chain
        # and a product-construction regex with repetition.
        echo "rpq: Follows/Likes"
        echo "rpq: Follows+/Likes"
      done
    } > "${batch}"
    echo "==== serve-smoke: batch with generous deadline ===="
    ./build-tsan/src/pqe_cli --data examples/data/social.facts \
      --server-batch "${batch}" --method fpras --deadline-ms 60000
    echo "==== serve-smoke: tight deadline yields typed rows, never hangs ===="
    local out
    out="$(./build-tsan/src/pqe_cli --data examples/data/social.facts \
      --server-batch "${batch}" --method fpras --deadline-ms 1)" || {
      echo "serve-smoke: deadline batch exited non-zero"; exit 1; }
    echo "${out}"
    # Every row is either an answer or a typed deadline status — whichever
    # the 1ms budget allows on this machine; ERROR rows exit non-zero above.
    echo "${out}" | grep -Eq "Pr\(Q\)|DEADLINE_EXCEEDED" \
      || { echo "serve-smoke: expected answered or deadline rows"; exit 1; }
  )
}

perf_smoke() {
  # Smoke the perf benches: each must complete (their cells assert
  # bit-identity or oracle accuracy internally) and emit parseable metrics
  # JSON.
  echo "==== perf-smoke: build bench_counting_hotpath + bench_serving + bench_serving_updates + bench_rpq ===="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" \
    --target bench_counting_hotpath bench_serving bench_serving_updates bench_rpq
  echo "==== perf-smoke: run ===="
  local out="build/BENCH_counting_hotpath.smoke.json"
  local serve_out="build/BENCH_serving.smoke.json"
  local update_out="build/BENCH_serving_updates.smoke.json"
  local rpq_out="build/BENCH_rpq.smoke.json"
  ./build/bench/bench_counting_hotpath --smoke --metrics_out="${out}"
  ./build/bench/bench_serving --smoke --metrics_out="${serve_out}"
  ./build/bench/bench_serving_updates --smoke --metrics_out="${update_out}"
  # The RPQ bench asserts lowered-regex answers are bit-identical to the
  # path route and warm served RPQ answers to cold engine answers.
  ./build/bench/bench_rpq --smoke --metrics_out="${rpq_out}"
  echo "==== perf-smoke: validate ${out} + ${serve_out} + ${update_out} + ${rpq_out} ===="
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${out}" "${serve_out}" "${update_out}" "${rpq_out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
gauges = doc.get("metrics", doc).get("gauges", {})
cells = [k for k in gauges if "counting_hotpath" in k and k.endswith(".ms")]
assert cells, "no counting_hotpath .ms gauges in metrics JSON"
with open(sys.argv[2]) as f:
    doc = json.load(f)
gauges = doc.get("metrics", doc).get("gauges", {})
serving = [k for k in gauges if "bench.serving" in k and k.endswith(".speedup_warm")]
assert serving, "no serving speedup gauges in metrics JSON"
with open(sys.argv[3]) as f:
    doc = json.load(f)
gauges = doc.get("metrics", doc).get("gauges", {})
updates = [k for k in gauges
           if "serving_updates" in k and k.endswith(".speedup_delta_rebind")]
assert updates, "no serving_updates speedup_delta_rebind gauges in metrics JSON"
assert any(k.endswith("path.speedup_delta_rebind") and gauges[k] >= 10.0
           for k in updates), "path delta-rebind speedup below the 10x gate"
with open(sys.argv[4]) as f:
    doc = json.load(f)
gauges = doc.get("metrics", doc).get("gauges", {})
assert gauges.get("pqe.bench.rpq.linear.w3.parity", 0) == 1.0, \
    "rpq bench reported no lowering parity gauge"
rpq = [k for k in gauges if "bench.rpq" in k and k.endswith(".speedup_warm")]
assert rpq, "no rpq serving speedup gauges in metrics JSON"
print(f"perf-smoke: {len(cells)} hotpath + {len(serving)} serving + {len(updates)} update + {len(rpq)} rpq cells, JSON OK")
EOF
  else
    grep -q "counting_hotpath" "${out}"
    grep -q "bench.serving" "${serve_out}"
    grep -q "serving_updates" "${update_out}"
    grep -q "bench.rpq" "${rpq_out}"
    echo "perf-smoke: JSON contains expected gauges (python3 absent)"
  fi
}

bench_gate() {
  # Perf-regression gate: run the smoke benches and diff their speedup
  # gauges against the committed baselines with bench_compare; any gauge
  # more than 25% below its baseline fails the stage. Only speedup gauges
  # (ratios within one run) are gated — raw millisecond gauges vary too
  # much across machines. The sanitizer configurations never run this
  # stage (they build with PQE_BUILD_BENCHMARKS=OFF; instrumented timings
  # are meaningless); set PQE_BENCH_GATE_ADVISORY=1 to print the
  # comparison without failing on other noisy machines.
  echo "==== bench-gate: build ===="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" \
    --target bench_counting_hotpath bench_serving bench_serving_updates \
    bench_replay bench_rpq bench_compare
  local adv=""
  [[ "${PQE_BENCH_GATE_ADVISORY:-0}" != "0" ]] && adv="--advisory"
  echo "==== bench-gate: run smoke benches ===="
  # The hot-path bench has no speedup gauge (one sampler, one timed leg);
  # it gates its oracle cell's accuracy internally, and its wall time is
  # bounded by the repository benchmark's tree_cold/path_cold workloads
  # (docs/performance.md).
  ./build/bench/bench_counting_hotpath --smoke
  ./build/bench/bench_serving --smoke \
    --metrics_out=build/bench_gate_serving.json
  # The update bench gates itself too: >= 10x path delta rebind and
  # bit-identity of every delta-rebound answer.
  ./build/bench/bench_serving_updates --smoke \
    --metrics_out=build/bench_gate_serving_updates.json
  # The replay bench is its own gate: it asserts every replayed answer
  # matches its capture bit for bit.
  ./build/bench/bench_replay --smoke
  # The RPQ bench asserts lowering parity and warm/cold bit-identity
  # internally; its serving speedup is gated below.
  ./build/bench/bench_rpq --smoke --metrics_out=build/bench_gate_rpq.json
  echo "==== bench-gate: compare against committed baselines ===="
  ./build/src/bench_compare --baseline BENCH_serving.json \
    --fresh build/bench_gate_serving.json ${adv}
  ./build/src/bench_compare --baseline BENCH_serving_updates.json \
    --fresh build/bench_gate_serving_updates.json ${adv}
  ./build/src/bench_compare --baseline BENCH_rpq.json \
    --fresh build/bench_gate_rpq.json ${adv}
}

perfbench() {
  # Run each workload of the repository benchmark (BENCHMARK.json) briefly,
  # through perfbench/run.py. pqe_perfbench builds from this checkout and
  # calls the public layer functions (Bind*, Rebind, Count*, PreparedQuery)
  # directly, so a change to those headers that breaks it fails here rather
  # than when the benchmark runs. The traced run also checks the layer-call
  # answers bit for bit against the engine and the service; any non-zero
  # exit (build failure or failed check) fails.
  local workload
  for workload in tree_cold path_cold serve_updates; do
    echo "==== perfbench: ${workload} ===="
    CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
      --workload "${workload}" --seed 1 --seconds 2 --trace 1
  done
}

# The stages of the header list, in the order a bare ./ci.sh runs them. Only
# these names dispatch: anything else is a usage error, not a command to run.
STAGES=(tier1 notrace sanitize tsan serve_smoke perf_smoke bench_gate perfbench)
[[ $# -eq 0 ]] && set -- "${STAGES[@]}"
for target in "$@"; do
  known=0
  for stage in "${STAGES[@]}"; do
    [[ "${target}" == "${stage}" ]] && known=1
  done
  if [[ "${known}" -eq 0 ]]; then
    echo "ci.sh: unknown stage '${target}'; stages are: ${STAGES[*]}" >&2
    exit 2
  fi
done
for target in "$@"; do
  "${target}"
done
echo "==== ci.sh: all requested configurations passed ===="
