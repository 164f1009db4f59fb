#!/usr/bin/env bash
# CI entry point. Phases, in order (see DESIGN.md, "Correctness tooling"):
#
#   lint    tools/lint.py --self-test (every rule must fire on a seeded
#           violation), then the repo lint itself — including the cross-TU
#           lock-order analysis. Runs first: it is the cheapest phase and
#           most failures are mechanical. clang-tidy (config in
#           .clang-tidy) runs only when the binary exists. When clang++ is
#           on PATH, a -fsyntax-only pass with -Wthread-safety -Werror
#           checks the MAXSON_* annotations per TU (skipped with a message
#           otherwise; --skip-threadsafety silences the stage). Then one
#           log line of src/ line counts per module and in total, so a
#           change's size delta reads off the log.
#   release Release build + full test suite (the tier-1 gate).
#   debug   Debug build (so the tree keeps compiling with assertions on
#           and NDEBUG off) + the plan validator test, which Debug
#           builds run on every plan rather than on cached verdicts.
#   asan    AddressSanitizer + UndefinedBehaviorSanitizer build + full test
#           suite, with leak detection on and halt-on-error so the first
#           finding fails the run instead of scrolling by. The on-demand
#           parser's differential suite also re-runs standalone (native and
#           MAXSON_FORCE_ISA=scalar): its cursor arithmetic over SIMD-built
#           bitmaps is the code most likely to hide an off-by-one. The CORC
#           encoding suite (dict/RLE/block codecs + fuzzed malformed
#           streams) re-runs standalone the same two ways: decoders read
#           attacker-controlled bytes. So does the cached-vs-uncached
#           differential test, whose numeric-edge corpus drives the
#           writer's bounds, the casts and SARG pruning, and the
#           extraction differential test, which holds once-per-record DOM
#           extraction to the per-call baseline's rows.
#   tsan    ThreadSanitizer build + full test suite (the parallel execution
#           runtime must be race-clean); the metrics-determinism test, the
#           CacheRegistry stress test, the serving-layer test, the
#           shared-scan executor test, the extraction differential test
#           (one DOM extractor per worker chunk), and the
#           midnight-cycle-vs-queries race (bare sessions scan through the
#           shared-scan scheduler while the cycle rewrites the cache) also
#           run standalone so a racy counter, serving race, scan-sharing
#           race or shared extractor fails loudly by name.
#   crash   Crash-consistency suite: the durability tests (corruption
#           matrix, kill-at-every-fault-point midnight sweep) re-run
#           standalone under Release and ASan, plus one run with the
#           fault injector armed through MAXSON_FAULT_INJECT to prove the
#           env knob arms it outside of test code.
#   bench   Thread-scaling, observability, SIMD-kernel, and serving benches
#           (the observability bench fails CI if the median overhead of
#           31 alternating tracing-off/on pairs exceeds 5%; the kernel bench fails CI if any ISA level diverges
#           from scalar; the serving bench fails CI below a 0.80 result-
#           cache hit rate / 5x repeat-p50 speedup or on any wrong result
#           under registry churn), then a short perfbench dashboard run on
#           4-row first splits, which exits non-zero on any cached answer
#           that differs from the uncached one.
#
# The Release and ASan test suites run twice: once at the host's native
# SIMD dispatch level and once under MAXSON_FORCE_ISA=scalar, so both the
# vector kernels and the portable fallback stay green (the differential
# tests inside the suite cover sse2/avx2 explicitly per kernel).
#
# Usage: tools/ci.sh [--skip-asan] [--skip-tsan] [--skip-bench]
#                    [--skip-threadsafety]
# Runs from anywhere; build trees land in build-ci/, build-debug/,
# build-asan/, build-tsan/.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

run_asan=1
run_tsan=1
run_bench=1
run_threadsafety=1
for arg in "$@"; do
  case "$arg" in
    --skip-asan) run_asan=0 ;;
    --skip-tsan) run_tsan=0 ;;
    --skip-bench) run_bench=0 ;;
    --skip-threadsafety) run_threadsafety=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "=== Lint ==="
python3 tools/lint.py --self-test
python3 tools/lint.py
if command -v clang-tidy >/dev/null 2>&1 && [[ -f build-ci/compile_commands.json ]]; then
  echo "=== clang-tidy (src/) ==="
  find src -name '*.cc' -print0 \
    | xargs -0 clang-tidy -p build-ci --quiet
fi

# Clang thread-safety analysis: a syntax-only pass over every src/ TU with
# -Wthread-safety promoted to an error. The MAXSON_* annotation macros in
# common/thread_annotations.h expand to nothing elsewhere, so this is the
# one stage that checks them; the lock-order rule in tools/lint.py covers
# the cross-TU ordering this per-TU pass cannot see. Syntax-only keeps the
# stage cheap (no codegen) and independent of the configured generator.
if [[ "$run_threadsafety" == 1 ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    echo "=== Clang thread-safety analysis (src/) ==="
    while IFS= read -r tu; do
      extra=()
      [[ "$tu" == src/simd/* ]] && extra+=(-mavx2)
      clang++ -std=c++20 -fsyntax-only -Isrc \
        -Wthread-safety -Wthread-safety-beta -Werror \
        "${extra[@]}" "$tu"
    done < <(find src -name '*.cc' | sort)
  else
    echo "=== Clang thread-safety analysis: SKIPPED (no clang++ on PATH;" \
         "install clang or pass --skip-threadsafety to silence this) ==="
  fi
fi

echo "=== src/ line counts ==="
src_lines() {
  find "$@" \( -name '*.h' -o -name '*.cc' \) -exec cat {} + | wc -l
}
counts=""
for dir in src/*/; do
  counts+="$(basename "$dir")=$(src_lines "$dir") "
done
echo "${counts}total=$(src_lines src)"

echo "=== Release build + tests ==="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"
echo "=== Release tests, forced-scalar kernels ==="
MAXSON_FORCE_ISA=scalar ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== Debug build + plan validator test ==="
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build build-debug -j "$JOBS"
./build-debug/tests/plan_validator_test

if [[ "$run_asan" == 1 ]]; then
  echo "=== ASan + UBSan build + tests ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMAXSON_SANITIZE=address,undefined
  cmake --build build-asan -j "$JOBS"
  # Leaks are errors too; halt_on_error surfaces the first finding as a
  # test failure instead of a warning buried in the log.
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  echo "=== ASan + UBSan tests, forced-scalar kernels ==="
  MAXSON_FORCE_ISA=scalar \
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== ThreadSanitizer build + tests ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMAXSON_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
  echo "=== Metrics determinism under TSan ==="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test \
    --gtest_filter='ObsQueryTest.CounterTotalsIdenticalAcrossThreadCounts'
  # The serving-layer concurrency surfaces run standalone by name so a
  # race in the registry or the server fails loudly here, not as a flake.
  echo "=== CacheRegistry stress under TSan ==="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/registry_stress_test
  echo "=== Serving layer under TSan ==="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_test
  echo "=== Shared-scan executor under TSan ==="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/shared_scan_test
  echo "=== Extraction differential test under TSan ==="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/extraction_differential_test
  echo "=== Midnight cycle racing queries under TSan ==="
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_exec_test \
    --gtest_filter='ParallelExecTest.MidnightCycleRacingQueriesIsSafe'
fi

echo "=== Crash-consistency suite (durability tests) ==="
./build-ci/tests/durability_test
./build-ci/tests/storage_test \
  --gtest_filter='CorcWriterTest.*:CorcReaderTest.*:CorcEncodingTest.*:CorcPropertyTest.*:FaultInjectorTest.*'
if [[ "$run_asan" == 1 ]]; then
  echo "=== Crash-consistency suite under ASan ==="
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/durability_test
  # The on-demand parser cursors byte positions derived from SIMD bitmaps;
  # an off-by-one there is exactly the bug class ASan/UBSan catches, so its
  # differential suite runs standalone — at the native dispatch level and
  # once more forced to the scalar kernels, proving the tape is
  # byte-identical no matter which ClassifyJsonFull variant built it.
  echo "=== On-demand parser differential suite under ASan ==="
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/ondemand_parser_test
  echo "=== On-demand parser differential suite under ASan, forced-scalar ==="
  MAXSON_FORCE_ISA=scalar \
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/ondemand_parser_test
  # The CORC encoding layer (dict/RLE/block codecs plus their fuzzed
  # malformed-stream suite) runs standalone under ASan/UBSan: decoders
  # parse attacker-controlled bytes, so buffer overreads here are the
  # exact bug class the sanitizers exist for. Once at native dispatch,
  # once forced to the scalar RleSplat/MaxU32 kernels.
  echo "=== CORC encoding suite under ASan ==="
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/storage_test --gtest_filter='CorcEncodingTest.*'
  echo "=== CORC encoding suite under ASan, forced-scalar ==="
  MAXSON_FORCE_ISA=scalar \
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/storage_test --gtest_filter='CorcEncodingTest.*'
  # Cached answers must equal uncached ones on numbers that render, cast
  # and order unusually; the casts' range checks are UBSan's business.
  echo "=== Cache differential test under ASan ==="
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/cache_differential_test
  echo "=== Cache differential test under ASan, forced-scalar ==="
  MAXSON_FORCE_ISA=scalar \
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/cache_differential_test
  # Once-per-record extraction must return the per-call baseline's rows on
  # malformed, truncated and duplicate-key records as on the Table II data.
  echo "=== Extraction differential test under ASan ==="
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/extraction_differential_test
  echo "=== Extraction differential test under ASan, forced-scalar ==="
  MAXSON_FORCE_ISA=scalar \
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-asan/tests/extraction_differential_test
fi
# Prove the env knob arms the injector outside of test code, then exercise
# a short read end to end through the session knob path.
echo "=== Fault injection via MAXSON_FAULT_INJECT ==="
MAXSON_FAULT_INJECT=fail:9999 ./build-ci/tests/durability_test \
  --gtest_filter='DurabilityTest.EnvVarArmsInjectorAtFirstUse'
./build-ci/tests/durability_test \
  --gtest_filter='DurabilityTest.ShortReadSurfacesAsCorruptionAndFallsBack'

if [[ "$run_bench" == 1 ]]; then
  echo "=== Thread-scaling bench ==="
  ./build-ci/bench/scaling_threads
  echo "=== Observability overhead bench ==="
  ./build-ci/bench/observability_overhead
  echo "=== SIMD kernel bench ==="
  ./build-ci/bench/kernel_bench
  echo "=== Serving concurrency bench ==="
  # Fails CI when result-cache hit rate, repeat speedup, correctness under
  # registry churn, or typed-rejection accounting misses its threshold.
  ./build-ci/bench/serving_concurrency
  echo "=== perfbench dashboard, short first splits ==="
  # Exits 1 on any wrong answer (perfbench checks each one against an
  # uncached run); tables of 4-row first files are where a cache built
  # from the first split's values goes wrong.
  python3 perfbench/run.py --workload dashboard --seed 12 --seconds 2 \
    --scale short_splits
fi

echo "CI OK"
