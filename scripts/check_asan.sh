#!/usr/bin/env bash
# Build with AddressSanitizer + UndefinedBehaviorSanitizer and run the
# suites that turn bytes back into simulator and fleet state: the
# checkpoint/resume and mutated-restore tests, the resume, blob and
# draw goldens, and the fleet checkpoint and chaos suites. Any
# out-of-bounds access, use-after-free, leak or undefined behaviour
# fails this script (UBSan is built non-recovering).
#
# Usage: scripts/check_asan.sh [build-dir]   (default build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DQUETZAL_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_sim test_fleet

export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

# Simulator checkpoints: QZCK framing and streams, resume at every
# boundary, the committed goldens, and component restores fed every
# truncation plus out-of-window tracker states (CheckpointRestore*).
"$BUILD_DIR"/tests/test_sim \
    --gtest_filter='Checkpoint*:ResumeGolden*:Draw*'

# Fleet barrier snapshots: decode diagnostics, resharding, kill/resume
# stitching and the truncation sweep over QZCK streams.
"$BUILD_DIR"/tests/test_fleet \
    --gtest_filter='FleetCheckpoint*:FleetChaos*'

echo "check_asan: OK"
