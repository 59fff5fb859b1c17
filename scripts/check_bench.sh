#!/usr/bin/env bash
# Perf-trajectory gate for the wall-clock micro benchmarks.
#
# Each bench emits one line of quetzal-bench-v1 JSON (see
# bench/bench_json.hpp). This script runs the suite, compares every
# bench's primary metric against the newest entry of its committed
# trajectory file (bench/baselines/BENCH_<name>.json), and fails when
# the measured value exceeds baseline * threshold. Wall-clock numbers
# move with the host, so the threshold is deliberately generous: the
# gate exists to catch complexity regressions (an O(occupancy) scan
# sneaking back into a per-decision path is a 10-400x hit), not
# percent-level noise.
#
# Trajectory schema (quetzal-bench-trajectory-v1):
#   {
#     "schema":  "quetzal-bench-trajectory-v1",
#     "bench":   "<name>",             # must match the emitted line
#     "primary": "<field>",            # metric the gate compares
#     "args":        [...],            # full workload argv
#     "smoke_args":  [...],            # reduced workload for ctest
#     "entries": [                     # newest last; newest = baseline
#       {"label": "<pr/commit>", ...full emitted JSON line...}
#     ]
#   }
#
# Usage: scripts/check_bench.sh [--smoke] [--update] [--self-test]
#                               [build-dir]
#   --smoke      reduced workloads (the ctest wiring uses this)
#   --update     append the measurements to the trajectory files
#                (label from QUETZAL_BENCH_LABEL, default git HEAD)
#   --self-test  verify the verdict passes each trajectory's newest
#                entry and fails it under an injected 100x regression
#                (runs no bench)
#   build-dir    defaults to build/
#
# Environment:
#   QUETZAL_BENCH_THRESHOLD  allowed current/baseline ratio (default 4.0)
#   QUETZAL_CHECKPOINT_OVERHEAD_PCT
#                            max checkpoint_overhead_pct a bench line
#                            may report (default 5; DESIGN.md
#                            section 17's barrier-snapshot budget).
#                            Unlike the wall-clock ratio this gate is
#                            absolute: the overhead is a self-relative
#                            percentage, so host speed cancels out.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
UPDATE=0
SELFTEST=0
BUILD_DIR="build"
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        --update) UPDATE=1 ;;
        --self-test) SELFTEST=1 ;;
        *) BUILD_DIR="$arg" ;;
    esac
done

BASELINE_DIR="bench/baselines"
THRESHOLD="${QUETZAL_BENCH_THRESHOLD:-4.0}"

if [ ! -d "$BASELINE_DIR" ]; then
    echo "check_bench: no baseline dir at $BASELINE_DIR" >&2
    exit 1
fi

# The verdict on one emitted bench line against its trajectory file:
#   python3 -c "$VERDICT_PY" TRAJECTORY THRESHOLD INJECT UPDATE LABEL LINE
# prints "OK ..." or "FAIL ..." for the primary ratio, then
# "; OK|FAIL checkpoint_overhead_pct=..." when the line carries one.
VERDICT_PY="$(cat <<'EOF'
import json, os, sys
path, threshold, inject, update, label, out = sys.argv[1:7]
line = json.loads(out.splitlines()[-1])
threshold, inject = float(threshold), float(inject)
t = json.load(open(path))
if line.get("schema") != "quetzal-bench-v1" or line["bench"] != t["bench"]:
    print(f"FAIL schema mismatch (got {line.get('schema')}/"
          f"{line.get('bench')})")
    sys.exit(0)
primary = t["primary"]
current = float(line[primary]) * inject
entries = t.get("entries", [])
if not entries:
    verdict = f"NEW {primary}={current:.0f} (no baseline yet)"
else:
    base = float(entries[-1][primary])
    ratio = current / base if base > 0 else float("inf")
    word = "FAIL" if ratio > threshold else "OK"
    verdict = (f"{word} {primary}={current:.0f} baseline={base:.0f} "
               f"ratio={ratio:.2f} (threshold {threshold:.1f})")
# Absolute gate on the checkpoint tax: any bench line carrying a
# checkpoint_overhead_pct column (micro_fleet --checkpoint) must keep
# the barrier-snapshot cost below the budget.
if "checkpoint_overhead_pct" in line:
    limit = float(os.environ.get("QUETZAL_CHECKPOINT_OVERHEAD_PCT", "5"))
    pct = float(line["checkpoint_overhead_pct"]) * inject
    word = "FAIL" if pct >= limit else "OK"
    verdict += (f"; {word} checkpoint_overhead_pct={pct:.2f}"
                f" (budget {limit:.1f})")
if update == "1":
    entry = dict(line)
    entry["label"] = label
    t.setdefault("entries", []).append(entry)
    with open(path, "w") as f:
        json.dump(t, f, indent=2)
        f.write("\n")
    verdict += " [updated]"
print(verdict)
EOF
)"

if [ "$SELFTEST" -eq 1 ]; then
    # Feed each trajectory's newest entry back through the verdict as
    # if it were a fresh measurement: at factor 1.0 every file must
    # read OK, and an injected 100x regression must FAIL every file's
    # ratio and, where the smoke workload checkpoints, the absolute
    # checkpoint_overhead_pct budget. Trajectory entries come from the
    # full workload, which does not checkpoint, so the self-test gives
    # such lines an overhead at half the budget.
    selftest=0
    for baseline in "$BASELINE_DIR"/BENCH_*.json; do
        name="$(basename "$baseline")"
        line="$(python3 - "$baseline" <<'EOF'
import json, os, sys
t = json.load(open(sys.argv[1]))
line = dict(t["entries"][-1])
line.pop("label", None)
if "--checkpoint" in t["smoke_args"]:
    limit = float(os.environ.get("QUETZAL_CHECKPOINT_OVERHEAD_PCT", "5"))
    line.setdefault("checkpoint_overhead_pct", limit / 2)
print(json.dumps(line))
EOF
)"
        for factor in 1.0 100.0; do
            verdict="$(python3 -c "$VERDICT_PY" "$baseline" \
                "$THRESHOLD" "$factor" 0 self-test "$line")"
            # At 1.0 nothing may fail; at 100x the ratio must, and so
            # must the overhead budget where the line carries one.
            case "$factor:$line" in
                1.0:*) want='OK*' ;;
                *checkpoint_overhead_pct*)
                    want='FAIL*; FAIL checkpoint_overhead_pct*' ;;
                *) want='FAIL*' ;;
            esac
            if [[ "$verdict" != $want ||
                  ( "$factor" = 1.0 && "$verdict" == *FAIL* ) ]]; then
                echo "check_bench: SELF-TEST FAILED $name at factor" \
                     "$factor: $verdict" >&2
                selftest=1
            fi
        done
    done
    if [ "$selftest" -ne 0 ]; then
        exit 1
    fi
    echo "check_bench: self-test OK (newest entries pass; an injected" \
         "100x regression fails every trajectory)"
    exit 0
fi

for bin in micro_buffer micro_simulator micro_runtime \
           micro_ratio_engine micro_policy micro_fleet micro_device \
           micro_trace; do
    if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
        echo "check_bench: $bin not found in $BUILD_DIR/bench;" \
             "build it first: cmake --build $BUILD_DIR --target $bin" >&2
        exit 1
    fi
done

# Every micro bench binary must be covered by at least one committed
# trajectory file: a bench without a baseline silently escapes the
# perf gate, which is exactly how a regression ships.
uncovered="$(python3 - "$BASELINE_DIR" "$BUILD_DIR/bench" <<'EOF'
import glob, json, os, sys
baseline_dir, bench_dir = sys.argv[1:3]
covered = set()
for path in glob.glob(os.path.join(baseline_dir, "BENCH_*.json")):
    covered.add(json.load(open(path))["binary"])
for path in sorted(glob.glob(os.path.join(bench_dir, "micro_*"))):
    name = os.path.basename(path)
    if os.access(path, os.X_OK) and name not in covered:
        print(name)
EOF
)"
if [ -n "$uncovered" ]; then
    echo "check_bench: FAIL bench binaries with no baseline:" >&2
    echo "$uncovered" | sed 's/^/  /' >&2
    echo "check_bench: add bench/baselines/BENCH_<name>.json" \
         "(scripts/check_bench.sh --update appends entries)" >&2
    exit 1
fi

status=0
for baseline in "$BASELINE_DIR"/BENCH_*.json; do
    name="$(basename "$baseline")"

    # Workload argv and binary come from the committed file, so the
    # measured configuration is itself versioned.
    spec="$(python3 - "$baseline" "$SMOKE" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
args = t["smoke_args"] if sys.argv[2] == "1" else t["args"]
print(t["binary"])
print(t["primary"])
print(" ".join(args))
EOF
)"
    binary="$(sed -n 1p <<<"$spec")"
    primary="$(sed -n 2p <<<"$spec")"
    read -r -a args <<<"$(sed -n 3p <<<"$spec")"

    if ! out="$("$BUILD_DIR/bench/$binary" "${args[@]}")"; then
        echo "check_bench: FAIL $name (bench run failed)" >&2
        status=1
        continue
    fi

    verdict="$(python3 -c "$VERDICT_PY" "$baseline" "$THRESHOLD" \
        1.0 "$UPDATE" \
        "${QUETZAL_BENCH_LABEL:-$(git rev-parse --short HEAD \
            2>/dev/null || echo local)}" "$out")"

    echo "check_bench: $verdict  $name"
    case "$verdict" in *FAIL*) status=1 ;; esac
done

if [ $status -ne 0 ]; then
    echo "check_bench: FAILED" >&2
    exit $status
fi
echo "check_bench: all benches OK"
