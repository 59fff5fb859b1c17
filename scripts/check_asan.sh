#!/usr/bin/env bash
# Build everything with AddressSanitizer + UndefinedBehaviorSanitizer
# and warnings as errors, and run the whole ctest suite except the two
# wall-clock check_bench gates (sanitizer slowdown is not a perf
# regression). Any compiler warning, out-of-bounds access,
# use-after-free, leak or undefined behaviour fails this script (UBSan
# is built non-recovering).
#
# Usage: scripts/check_asan.sh [build-dir]   (default build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DQUETZAL_SANITIZE=address \
    -DQUETZAL_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure \
    -E '^check_bench(_selftest)?$'

echo "check_asan: OK"
