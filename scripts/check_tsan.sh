#!/usr/bin/env sh
# ThreadSanitizer check for the concurrent paths: configures a TSan build
# (-DVMTHERM_SANITIZE=thread) and runs the thread-pool, CV, grid-search and
# fleet-serving test suites under it. Run from the repo root:
#
#   scripts/check_tsan.sh [build-dir]
#
# Benches and examples are skipped — only the code the pool touches needs
# the (slow) instrumented build.
set -eu

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVMTHERM_SANITIZE=thread \
  -DVMTHERM_WERROR=ON \
  -DVMTHERM_BUILD_BENCH=OFF \
  -DVMTHERM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target util_thread_pool_test ml_cv_test ml_grid_test ml_svr_inference_test cli_test \
           serve_metrics_test serve_engine_test serve_monitor_test serve_snapshot_test \
           serve_psi_cache_test serve_replay_test obs_trace_test serve_accuracy_test

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j 2 \
  -L concurrency
