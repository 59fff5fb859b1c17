#!/usr/bin/env bash
# Line-coverage gate over the scheduling core (src/core), the
# queueing layer (src/queueing), the simulation engine (src/sim), the
# hardware models (src/hw), the fault-injection layer (src/fault),
# the policy zoo (src/policy), the fleet engine (src/fleet), the
# input event-trace layer (src/trace) and the observability/trace
# pipeline (src/obs — JSONL + btrace codecs, the btrace writer, trace
# cursors):
# build with gcov instrumentation, run the test binaries that exercise
# those modules, aggregate gcov's per-file "Lines executed" reports,
# print a per-directory breakdown and fail if overall line coverage
# drops below the floor.
#
# The checkpoint codecs get their own per-file lines and per-file
# floor on top of the directory rollup: they are the crash-recovery
# trust anchor (DESIGN.md sections 13/17), and a dead error branch in
# a codec is exactly the line that eats a corrupt resume.
#
# Usage: scripts/check_coverage.sh [build-dir]   (default build-cov)
# Env:   QUETZAL_COVERAGE_FLOOR  minimum percent (default 85)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-cov}"
FLOOR="${QUETZAL_COVERAGE_FLOOR:-85}"

cmake -B "$BUILD_DIR" -S . -DQUETZAL_COVERAGE=ON \
    -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR" -j --target \
    test_core test_queueing test_sim test_obs test_hw test_fault \
    test_policy test_fleet test_integration

# Fresh counters: each binary appends to the same .gcda files.
find "$BUILD_DIR" -name '*.gcda' -delete

for test_bin in test_core test_queueing test_sim test_obs test_hw \
        test_fault test_policy test_fleet test_integration; do
    "$BUILD_DIR/tests/$test_bin" --gtest_brief=1
done

# Aggregate gcov over the instrumented objects of the gated modules.
# `gcov -n` prints, per source file:
#     File '<path>'
#     Lines executed:NN.NN% of M
# Sum executed/total over files under the gated directories only
# (headers included — templates and inline hot paths count).
summary="$(
    for module in quetzal_core quetzal_queueing quetzal_sim \
            quetzal_hw quetzal_fault quetzal_policy quetzal_fleet \
            quetzal_trace quetzal_obs; do
        objdir="$BUILD_DIR/src/CMakeFiles/$module.dir"
        find "$objdir" -name '*.gcno' | while read -r gcno; do
            gcov -n -o "$(dirname "$gcno")" "$gcno" 2>/dev/null
        done
    done
)"

echo "$summary" | awk -v floor="$FLOOR" '
    /^File / {
        gated = 0
        tracked = ""
        if (match($0, /src\/(core|queueing|sim|hw|fault|policy|fleet|trace|obs)\//)) {
            gated = 1
            dir = substr($0, RSTART + 4, RLENGTH - 5)
        }
        if (match($0, /src\/(sim|fleet)\/checkpoint\.cpp/))
            tracked = substr($0, RSTART, RLENGTH)
    }
    gated && /^Lines executed:/ {
        # "Lines executed:NN.NN% of M"
        split($0, parts, /[:%]/)
        pct = parts[2]
        n = $NF
        executed += pct / 100.0 * n
        total += n
        dirExecuted[dir] += pct / 100.0 * n
        dirTotal[dir] += n
        if (tracked != "") {
            fileExecuted[tracked] += pct / 100.0 * n
            fileTotal[tracked] += n
        }
        gated = 0  # count each file once per gcov invocation block
    }
    END {
        if (total == 0) {
            print "check_coverage: no gcov data found" > "/dev/stderr"
            exit 2
        }
        ndirs = split("core queueing sim hw fault policy fleet trace obs",
                      order, " ")
        for (i = 1; i <= ndirs; ++i) {
            d = order[i]
            if (dirTotal[d] == 0)
                continue
            printf "check_coverage:   src/%-9s %6.1f%% of %5d lines\n",
                d, 100.0 * dirExecuted[d] / dirTotal[d], dirTotal[d]
        }
        nfiles = split("src/sim/checkpoint.cpp src/fleet/checkpoint.cpp",
                       files, " ")
        bad = 0
        for (i = 1; i <= nfiles; ++i) {
            f = files[i]
            if (fileTotal[f] == 0) {
                printf "check_coverage: FAIL — no gcov data for %s\n",
                    f > "/dev/stderr"
                bad = 1
                continue
            }
            filePct = 100.0 * fileExecuted[f] / fileTotal[f]
            printf "check_coverage:   %-24s %6.1f%% of %5d lines\n",
                f, filePct, fileTotal[f]
            if (filePct < floor) {
                printf "check_coverage: FAIL — %s below floor\n",
                    f > "/dev/stderr"
                bad = 1
            }
        }
        coverage = 100.0 * executed / total
        printf "check_coverage: %.1f%% of %d lines overall (floor %s%%)\n",
            coverage, total, floor
        if (coverage < floor || bad) {
            print "check_coverage: FAIL — below floor" > "/dev/stderr"
            exit 1
        }
    }'

echo "check_coverage: OK"
