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
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_sim test_obs \
    test_queueing test_fault test_policy test_fleet micro_simulator \
    micro_buffer micro_fleet

# TSan aborts with exit code 66 on the first detected race.
export TSAN_OPTIONS="halt_on_error=1 exitcode=66 ${TSAN_OPTIONS:-}"

# run_gtest BINARY FILTER: run the tests FILTER selects, failing when
# any of its ':'-separated patterns selects none (a pattern that names
# no suite silently tests nothing).
run_gtest() {
    local binary="$1" filter="$2" pattern count
    local -a patterns
    IFS=: read -r -a patterns <<<"$filter"
    for pattern in "${patterns[@]}"; do
        count="$("$binary" --gtest_list_tests --gtest_filter="$pattern" |
            grep -c '^  ' || true)"
        if [ "$count" -eq 0 ]; then
            echo "check_tsan: FAIL pattern '$pattern' selects no test" \
                "in $binary" >&2
            exit 1
        fi
    done
    "$binary" --gtest_filter="$filter"
}

# Death tests fork; that is fine under TSan but slow, so keep the
# filter to the parallel-engine tests this script is about.
run_gtest "$BUILD_DIR"/tests/test_sim 'ParallelRunner.*:TraceCache.*'

# Telemetry under parallel execution: per-run sinks recorded from
# worker threads, serialized after the joins (GoldenTrace runs the
# same ensemble on 1 and 4 workers and compares bytes). ObsVectorSink
# hands a sink's log between the thread that built it, the worker
# that recorded into it and the thread that destroyed it.
run_gtest "$BUILD_DIR"/tests/test_obs \
    'GoldenTrace.*:ObsProperties.*:ObsVectorSink.*'

# The indexed input buffer's randomized differential suite (also a
# memory-safety workout for the slot/lane/free-list pointers).
run_gtest "$BUILD_DIR"/tests/test_queueing '*InputBufferDifferential*'

# The analytical queueing oracle's conformance grid drives the seeded
# mini queue simulator from test threads alongside the closed form.
run_gtest "$BUILD_DIR"/tests/test_queueing \
    '*OracleConformance*:OracleSimulation.*'

# Faulted ensembles on 1 and 4 workers: the per-run FaultInjector and
# its fork()ed RNG streams are built on worker threads, and the golden
# tests compare the serialized bytes across job counts.
run_gtest "$BUILD_DIR"/tests/test_fault 'GoldenFaultTrace.*:FaultInjector*.*'

# Policy-backed controllers on worker threads: the cross-jobs
# equivalence test runs every registered policy on 1 and 4 workers,
# and the tournament golden runs the committed scenario's full plan
# both ways.
run_gtest "$BUILD_DIR"/tests/test_policy 'PolicyEquivalence.*:LeagueGolden.*'

# Serial vs parallel ensembles on several worker threads; the binary
# itself panics if the results diverge. Controllers (and their
# estimators, whose instance-id counter is shared) are constructed on
# the worker threads, so this also covers the E[S] memo-key path.
# The fleet's shard pool: worker threads advance shard blocks while
# the coordinator and rollup writers run serially between slabs; the
# determinism tests compare the serialized bytes across jobs and
# shard counts, and the bench's --verify re-runs jobs 1 vs 4.
run_gtest "$BUILD_DIR"/tests/test_fleet 'FleetDeterminism.*'
"$BUILD_DIR"/bench/micro_fleet --devices 4000 --horizon-s 1800 \
    --shards 8 --jobs 4 --verify >/dev/null

# Barrier checkpointing under the shard pool: snapshots are encoded
# from worker-written device columns after the joins, and resumes
# re-seed the columns before the workers restart. The checkpoint
# suite runs save/resume across jobs 1 vs 4; the chaos suite stitches
# killed runs back together on 4 workers; the bench's --checkpoint
# mode alternates clean and checkpointing phases on the pool.
run_gtest "$BUILD_DIR"/tests/test_fleet \
    'FleetCheckpoint.*:FleetChaos.KillAt*:FleetChaos.Random*'
"$BUILD_DIR"/bench/micro_fleet --devices 4000 --horizon-s 1800 \
    --shards 8 --jobs 4 --checkpoint >/dev/null

"$BUILD_DIR"/bench/micro_simulator --jobs 4 --runs 8 --events 120
"$BUILD_DIR"/bench/micro_buffer --occupancy 512 --ops 20000

echo "check_tsan: OK"
