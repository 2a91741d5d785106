#!/usr/bin/env sh
# UndefinedBehaviorSanitizer check (mirror of check_asan.sh): configures a
# UBSan build (-DVMTHERM_SANITIZE=undefined) and runs the concurrent,
# serving and malformed-input robustness suites under it. Run from the
# repo root:
#
#   scripts/check_ubsan.sh [build-dir]
#
# Benches and examples are skipped — only the tested paths need the
# instrumented build.
set -eu

BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVMTHERM_SANITIZE=undefined \
  -DVMTHERM_WERROR=ON \
  -DVMTHERM_BUILD_BENCH=OFF \
  -DVMTHERM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target util_thread_pool_test ml_cv_test ml_grid_test ml_svr_inference_test cli_test \
           serve_metrics_test serve_engine_test serve_monitor_test serve_snapshot_test \
           serve_psi_cache_test serve_replay_test obs_trace_test obs_accuracy_test robustness_corruption_test

UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j 2 \
  -L 'concurrency|robustness'
