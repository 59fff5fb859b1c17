#!/usr/bin/env bash
# Build with ThreadSanitizer and exercise the parallel experiment
# engine: the runner/ensemble unit tests plus a multi-threaded
# micro_simulator run. Any data race in the shared-trace plumbing or
# the worker pool fails this script.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DQUETZAL_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target test_sim test_obs test_queueing \
    test_fault test_policy test_fleet micro_simulator micro_buffer \
    micro_fleet

# TSan aborts with exit code 66 on the first detected race.
export TSAN_OPTIONS="halt_on_error=1 exitcode=66 ${TSAN_OPTIONS:-}"

# Death tests fork; that is fine under TSan but slow, so keep the
# filter to the parallel-engine tests this script is about.
"$BUILD_DIR"/tests/test_sim \
    --gtest_filter='ParallelRunner.*:TraceCache.*'

# Telemetry under parallel execution: per-run sinks recorded from
# worker threads, serialized after the joins (GoldenTrace runs the
# same ensemble on 1 and 4 workers and compares bytes).
"$BUILD_DIR"/tests/test_obs \
    --gtest_filter='GoldenTrace.*:ObsProperties.*'

# The indexed input buffer's randomized differential suite (also a
# memory-safety workout for the slot/lane/free-list pointers).
"$BUILD_DIR"/tests/test_queueing \
    --gtest_filter='*InputBufferDifferential*'

# The analytical queueing oracle's conformance grid drives the seeded
# mini queue simulator from test threads alongside the closed form.
"$BUILD_DIR"/tests/test_queueing \
    --gtest_filter='*OracleConformance*:OracleSimulation.*'

# Faulted ensembles on 1 and 4 workers: the per-run FaultInjector and
# its fork()ed RNG streams are built on worker threads, and the golden
# tests compare the serialized bytes across job counts.
"$BUILD_DIR"/tests/test_fault \
    --gtest_filter='GoldenFaultTrace.*:FaultInjector.*'

# Policy-backed controllers on worker threads: the cross-jobs
# equivalence test builds every registered policy's bridges and
# estimator on 1 and 4 workers, and the tournament golden runs the
# committed scenario's full plan both ways.
"$BUILD_DIR"/tests/test_policy \
    --gtest_filter='PolicyEquivalence.*:LeagueGolden.*'

# Serial vs parallel ensembles on several worker threads; the binary
# itself panics if the results diverge. Controllers (and their
# estimators, whose instance-id counter is shared) are constructed on
# the worker threads, so this also covers the E[S] memo-key path.
# The fleet's shard pool: worker threads advance shard blocks while
# the coordinator and rollup writers run serially between slabs; the
# determinism tests compare the serialized bytes across jobs and
# shard counts, and the bench's --verify re-runs jobs 1 vs 4.
"$BUILD_DIR"/tests/test_fleet --gtest_filter='FleetDeterminism.*'
"$BUILD_DIR"/bench/micro_fleet --devices 4000 --horizon-s 1800 \
    --shards 8 --jobs 4 --verify >/dev/null

# Barrier checkpointing under the shard pool: snapshots are encoded
# from worker-written device columns after the joins, and resumes
# re-seed the columns before the workers restart. The checkpoint
# suite runs save/resume across jobs 1 vs 4; the chaos suite stitches
# killed runs back together on 4 workers; the bench's --checkpoint
# mode alternates clean and checkpointing phases on the pool.
"$BUILD_DIR"/tests/test_fleet \
    --gtest_filter='FleetCheckpoint.*:FleetChaos.KillAt*:FleetChaos.Random*'
"$BUILD_DIR"/bench/micro_fleet --devices 4000 --horizon-s 1800 \
    --shards 8 --jobs 4 --checkpoint >/dev/null

"$BUILD_DIR"/bench/micro_simulator --jobs 4 --runs 8 --events 120
"$BUILD_DIR"/bench/micro_buffer --occupancy 512 --ops 20000

echo "check_tsan: OK"
