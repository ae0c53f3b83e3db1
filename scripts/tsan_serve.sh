#!/bin/sh
# Builds the serving stack under ThreadSanitizer and soaks its concurrent
# surfaces: the SnapshotRegistry publish/acquire path, the
# ScoringExecutor's dispatcher + bounded queue (including the
# swap-during-enqueue window, whose schema check moved to batch
# dispatch), the binned forest block scorer's pool fan-out, and the
# offline/online parity suite's concurrent hot-swap test. A data race in
# the hot-swap path fails CI here instead of corrupting a production
# score.
#
# Usage: scripts/tsan_serve.sh [build-dir]   (default: build-tsan)
set -e

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTELCO_SANITIZE=thread
cmake --build "$BUILD_DIR" \
    --target telco_serve_test telco_integration_test telco_ml_test \
    -j "$(nproc)"
cd "$BUILD_DIR"
ctest -R 'SnapshotRegistry|ScoringExecutor|ServeParity|BinnedForest' \
    --output-on-failure -j "$(nproc)"

# Hot-swap soak: hammer the executor's swap-during-enqueue test — the
# window where a publish lands between Submit and batch dispatch — until
# TSan has seen the interleavings that matter.
ctest -R 'ScoringExecutorTest.SwapDuringEnqueue' \
    --output-on-failure --repeat until-fail:10
