#!/usr/bin/env bash
# Command-line contract of quetzal-sim and quetzal-trace-gen: every
# bad flag value is rejected through a named diagnostic (exit 1, the
# flag on stderr), never a panic, an abort, a wrap-around or a silent
# fallback; mode conflicts exit 2 naming both flags; --fleet requires
# a "fleet" block; a trace, CSV or report that cannot be written exits
# 1; a fleet resume from a CRC-valid record holding an impossible
# state exits 1 naming the file; a trace on stdout reads back with
# trace_stat; and small valid runs succeed.
#
# Usage: scripts/check_cli.sh [quetzal-sim] [scenario-dir] [trace-gen]
#                             [trace-stat]
#   quetzal-sim   path to the CLI (default build/tools/quetzal-sim)
#   scenario-dir  directory holding fig09.json and fleet_day.json
#                 (default scenarios/)
#   trace-gen     path to quetzal-trace-gen
#                 (default build/tools/quetzal-trace-gen)
#   trace-stat    path to trace_stat (default build/tools/trace_stat)
set -euo pipefail
cd "$(dirname "$0")/.."

SIM="${1:-build/tools/quetzal-sim}"
DIR="${2:-scenarios}"
GEN="${3:-build/tools/quetzal-trace-gen}"
STAT="${4:-build/tools/trace_stat}"

for bin in "$SIM" "$GEN" "$STAT"; do
    if [ ! -x "$bin" ]; then
        echo "check_cli: $bin not found" >&2
        echo "  build it first: cmake --build build --target" \
            "quetzal_sim_cli quetzal_trace_gen trace_stat" >&2
        exit 1
    fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0

# expect WANT_EXIT "NAMED..." ARGS...: run quetzal-sim on ARGS, demand
# exit status WANT_EXIT and every space-separated word of NAMED on
# stderr. BIN=path overrides the binary.
expect() {
    local want="$1" named="$2"
    shift 2
    local code=0
    "${BIN:-$SIM}" "$@" >"$tmp/out" 2>"$tmp/err" || code=$?
    if [ "$code" -ne "$want" ]; then
        echo "check_cli: FAIL '$*' exited $code, want $want" >&2
        sed 's/^/  /' "$tmp/err" >&2
        status=1
        return
    fi
    for word in $named; do
        if ! grep -qF -- "$word" "$tmp/err"; then
            echo "check_cli: FAIL '$*' stderr does not name $word" >&2
            sed 's/^/  /' "$tmp/err" >&2
            status=1
            return
        fi
    done
    echo "check_cli: OK '$*' (exit $code)"
}

# Experiment flags go through the scenario field table.
expect 1 --buffer --buffer 0
expect 1 --buffer --buffer -3
expect 1 --cells --cells 65
expect 1 --cells --cells 3.7
expect 1 --events --events 0
expect 1 --env --env nowhere
expect 1 --policy --policy nope
expect 1 --controller --controller WARP
expect 1 --threshold --threshold 150

# Flags without a field-table row go through the checked parser.
expect 1 --ensemble --ensemble abc
expect 1 --ensemble --ensemble 0
expect 1 --jobs --jobs 2x
expect 1 --jobs --jobs ""
expect 1 --checkpoint-every --checkpoint-every -1
expect 1 --fleet-checkpoint-every --fleet-checkpoint-every 0
expect 1 --fleet-stop-after-s --fleet-stop-after-s 99999999999999999999
expect 1 --telemetry-cost-s --telemetry-cost-s nan

# Mode conflicts and the fleet-block requirement.
expect 2 "--scenario --controller" \
    --scenario "$DIR/fig09.json" --controller QZ
expect 1 fleet --fleet "$DIR/fig09.json" --validate
expect 0 "" --fleet "$DIR/fleet_day.json" --validate

# A small valid experiment runs.
expect 0 "" --events 30 --buffer 10 --cells 4

# An output that cannot be written is an error: a trace, whatever its
# format and whether it goes to a file or to stdout ("-"), a scenario
# CSV, the fleet episode trace, and the report or CSV on stdout.
# expect_lost WANT STDOUT ARGS...: run quetzal-sim on ARGS with its
# stdout sent to STDOUT; demand exit 1 and WANT on stderr.
expect_lost() {
    local want="$1" stdout="$2"
    shift 2
    local code=0
    "$SIM" "$@" >"$stdout" 2>"$tmp/err" || code=$?
    if [ "$code" -ne 1 ] || ! grep -qF -- "$want" "$tmp/err"; then
        echo "check_cli: FAIL '$*' (stdout $stdout) exited $code, want" \
            "1 and '$want'" >&2
        sed 's/^/  /' "$tmp/err" >&2
        status=1
        return
    fi
    echo "check_cli: OK '$*' (stdout $stdout) (exit 1)"
}
# expect_lost_trace TARGET STDOUT FORMAT: a small run traced to TARGET.
expect_lost_trace() {
    expect_lost "error writing trace output: $1" "$2" --events 30 \
        --trace-format "$3" --trace-out "$1"
}
expect_lost_trace - /dev/full jsonl
expect_lost_trace - /dev/full chrome
expect_lost_trace - /dev/full btrace
expect_lost_trace /dev/full "$tmp/out" btrace
expect_lost "error writing standard output" /dev/full --events 30
expect_lost "error writing standard output" /dev/full --events 30 --csv
expect_lost "error writing standard output" /dev/full --events 30 \
    --ensemble 2

# csv_scenario PATH: a one-population scenario writing its CSV to PATH.
csv_scenario() {
    cat <<EOF
{"schema_version": 1, "name": "tiny", "defaults": {"events": 20},
 "populations": [{"name": "A"}], "output": {"csv": "$1"}}
EOF
}
csv_scenario /dev/full >"$tmp/csv_file.json"
csv_scenario - >"$tmp/csv_stdout.json"
# Four devices for one simulated hour.
cat >"$tmp/fleet.json" <<'EOF'
{"schema_version": 1, "name": "tiny_fleet",
 "populations": [{"name": "A", "policy": "sjf-ibo"}],
 "fleet": {"shards": 1, "slab_s": 600, "horizon_s": 3600,
           "cohorts": [{"population": "A", "devices": 4,
                        "task_ms": 1000, "task_mw": 12.0}]}}
EOF
expect_lost "error writing csv output: /dev/full" "$tmp/out" \
    --scenario "$tmp/csv_file.json"
expect_lost "error writing csv output: -" /dev/full \
    --scenario "$tmp/csv_stdout.json"
expect_lost "error writing episode trace: /dev/full" "$tmp/out" \
    --fleet "$tmp/fleet.json" --fleet-checkpoint "$tmp/fleet.qzck" \
    --fleet-ckpt-trace /dev/full

# A fleet resume whose record passes its CRC but carries a state no
# run produces (cohort 0's directive base level 9, the record CRC
# re-sealed) exits 1 naming the file and the fault, never an abort.
"$SIM" --fleet "$tmp/fleet.json" --fleet-checkpoint "$tmp/bad.qzck" \
    --fleet-stop-after-s 1800 >/dev/null
python3 - "$tmp/bad.qzck" <<'PY'
import struct, sys

def crc32c(data):
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF

path = sys.argv[1]
stream = bytearray(open(path, "rb").read())
off = last = 0
while off < len(stream):  # QZCK records: 32-byte header + state
    last = off
    off += 32 + struct.unpack_from("<I", stream, off + 24)[0]
state = last + 32
stream[state + 2] = 9  # after varint shards and varint cohort count
size = struct.unpack_from("<I", stream, last + 24)[0]
struct.pack_into("<I", stream, last + 28,
                 crc32c(stream[state:state + size]))
open(path, "wb").write(stream)
PY
expect 1 "$tmp/bad.qzck invalid coordinator state (cohort 0)" \
    --fleet "$tmp/fleet.json" --fleet-resume "$tmp/bad.qzck"

# A trace on stdout leaves stdout to the trace: the report or ensemble
# summary goes to stderr, --csv conflicts, and trace_stat reads the
# trace back.
expect 2 "--csv --trace-out" --events 30 --csv --trace-out -
expect 2 "--csv-header --trace-out" --events 30 --csv-header \
    --trace-out -
# expect_stdout_trace FORMAT ARGS...: trace a small run to stdout.
expect_stdout_trace() {
    local format="$1"
    shift
    local code=0
    : >"$tmp/stat"
    "$SIM" --events 30 --trace-format "$format" --trace-out - "$@" \
        >"$tmp/trace" 2>"$tmp/err" || code=$?
    if [ "$code" -ne 0 ] || ! grep -qF QZ "$tmp/err" ||
        ! "$STAT" "$tmp/trace" >"$tmp/stat" 2>&1; then
        echo "check_cli: FAIL $format trace on stdout ($*): exit" \
            "$code; the report must be on stderr and trace_stat must" \
            "read the trace" >&2
        sed 's/^/  /' "$tmp/err" "$tmp/stat" >&2
        status=1
        return
    fi
    echo "check_cli: OK $format trace on stdout${*:+ $*} reads back"
}
expect_stdout_trace jsonl
expect_stdout_trace btrace
expect_stdout_trace btrace --ensemble 3

# trace_stat checks its --run value like quetzal-sim's flags.
"$SIM" --events 30 --trace-out "$tmp/trace.jsonl" >/dev/null
BIN="$STAT" expect 1 --run --run 4x "$tmp/trace.jsonl"
BIN="$STAT" expect 1 --run --run abc "$tmp/trace.jsonl"

# quetzal-trace-gen: --seed/--events/--cells/--env go through the same
# field table; --days/--peak/--floor through the checked parser.
BIN="$GEN" expect 1 --events events --events -1
BIN="$GEN" expect 1 --events events --events 0
BIN="$GEN" expect 1 --cells power --cells 4294967297
BIN="$GEN" expect 1 --seed power --seed 4x
BIN="$GEN" expect 1 --env events --env nowhere
BIN="$GEN" expect 1 --days power --days nan
BIN="$GEN" expect 1 --days power --days 1e300
BIN="$GEN" expect 1 --days power --days 0
BIN="$GEN" expect 1 --peak power --peak -1
BIN="$GEN" expect 1 --floor power --floor inf
BIN="$GEN" expect 0 "" power --days 0.01 --seed 3 --cells 2
BIN="$GEN" expect 0 "" events --events 10 --env msp430

if [ $status -ne 0 ]; then
    echo "check_cli: FAILED" >&2
    exit $status
fi
echo "check_cli: all checks OK"
