#!/usr/bin/env bash
# Kill-and-resume drill for one experiment (DESIGN.md sections 16 and
# 17), the single-run counterpart of check_fleet_resume.sh:
#
#  1. a straight run appends a QZCK record at every checkpoint;
#  2. a run stopped at its first checkpoint prints no report, and its
#     resume onto the same stream prints the straight report, leaves
#     the straight stream, and continues the stopped JSONL trace;
#  3. the straight stream cut in the middle of its last record resumes
#     from the record before it and again ends as the straight run;
#  4. a record whose CRC holds but whose IBO engine state names an
#     option its task does not have is refused, naming the section;
#  5. a checkpoint taken while tracing (with a telemetry cost, so the
#     trace level shapes the state) is refused by an untraced resume,
#     naming the fingerprint.
#
# Usage: scripts/check_single_resume.sh [quetzal-sim]
#   quetzal-sim   path to the CLI (default build/tools/quetzal-sim)
set -euo pipefail
cd "$(dirname "$0")/.."

SIM="${1:-build/tools/quetzal-sim}"
if [ ! -x "$SIM" ]; then
    echo "check_single_resume: simulator not found at $SIM" >&2
    echo "  build it first: cmake --build build --target quetzal_sim_cli" >&2
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

RUN=(--controller QZ --env crowded --events 300 --checkpoint-every 2000)
status=0
fail() {
    echo "check_single_resume: FAIL ($*)" >&2
    status=1
}

# 1. The straight run.
"$SIM" "${RUN[@]}" --checkpoint "$tmp/straight.qzck" \
    --trace-out "$tmp/straight.jsonl" >"$tmp/straight.out"

# qzck records FILE prints the record count of a QZCK stream; qzck cut
# FILE cuts the stream in the middle of its last record.
qzck() {
    python3 - "$@" <<'PY'
import struct, sys
op, path = sys.argv[1], sys.argv[2]
stream = open(path, "rb").read()
offsets = []
off = 0
while off < len(stream):  # 32-byte header, then the state
    offsets.append(off)
    off += 32 + struct.unpack_from("<I", stream, off + 24)[0]
if op == "records":
    print(len(offsets))
else:
    last = offsets[-1]
    open(path, "wb").write(stream[:last + (len(stream) - last) // 2])
PY
}
records="$(qzck records "$tmp/straight.qzck")"
if [ "$records" -lt 2 ]; then
    fail "the straight stream holds $records record(s); a stream" \
         "appends one per checkpoint"
fi

# 2. Stopped at the first checkpoint, then resumed onto its stream.
"$SIM" "${RUN[@]}" --checkpoint "$tmp/chaos.qzck" --checkpoint-stop \
    --trace-out "$tmp/part1.jsonl" >"$tmp/part1.out" 2>"$tmp/part1.err"
if [ -s "$tmp/part1.out" ]; then
    fail "the stopped run printed a report"
fi
if ! grep -q "stopped at checkpoint boundary tick" "$tmp/part1.err"; then
    fail "the stopped run did not name its boundary tick on stderr"
fi
"$SIM" "${RUN[@]}" --checkpoint "$tmp/csv.qzck" --checkpoint-stop \
    --csv-header >"$tmp/csv.out" 2>/dev/null
if [ -s "$tmp/csv.out" ]; then
    fail "the stopped run printed CSV"
fi
"$SIM" "${RUN[@]}" --resume "$tmp/chaos.qzck" \
    --checkpoint "$tmp/chaos.qzck" --trace-out "$tmp/part2.jsonl" \
    >"$tmp/part2.out"
if ! diff -u "$tmp/straight.out" "$tmp/part2.out"; then
    fail "the resumed report differs from the straight report"
fi
if ! cmp "$tmp/straight.qzck" "$tmp/chaos.qzck"; then
    fail "the resumed stream differs from the straight stream"
fi
{ cat "$tmp/part1.jsonl"; tail -n +2 "$tmp/part2.jsonl"; } \
    >"$tmp/stitched.jsonl"
if ! cmp "$tmp/straight.jsonl" "$tmp/stitched.jsonl"; then
    fail "the stopped trace plus the resumed trace differs from the" \
         "straight trace"
fi

# 3. A torn last record: the record before it wins, and the resume
#    cuts the tail before it appends. The trace level shapes the
#    state, so this resume traces as the straight run did.
cp "$tmp/straight.qzck" "$tmp/torn.qzck"
qzck cut "$tmp/torn.qzck"
if "$SIM" "${RUN[@]}" --resume "$tmp/torn.qzck" \
    --checkpoint "$tmp/torn.qzck" --trace-out "$tmp/torn.jsonl" \
    >"$tmp/torn.out" 2>"$tmp/torn.err"; then
    if ! diff -u "$tmp/straight.out" "$tmp/torn.out"; then
        fail "the resume from a torn stream differs from the straight" \
             "report"
    fi
    if ! cmp "$tmp/straight.qzck" "$tmp/torn.qzck"; then
        fail "the resume from a torn stream did not leave the straight" \
             "stream"
    fi
else
    cat "$tmp/torn.err" >&2
    fail "a stream cut in its last record did not resume"
fi

# 4. The last record re-sealed around radio option 9: without faults
#    the state ends with the IBO engine's blob {2: ml, radio} and the
#    fault-runtime flag, so the radio option is the second-last byte.
#    The straight run traced, so the resume traces too (step 5).
python3 - "$tmp/straight.qzck" "$tmp/bad.qzck" <<'PY'
import struct, sys

def crc32c(data):
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF

stream = open(sys.argv[1], "rb").read()
off = last = 0
while off < len(stream):
    last = off
    off += 32 + struct.unpack_from("<I", stream, off + 24)[0]
record = stream[last:]
size = struct.unpack_from("<I", record, 24)[0]
state = bytearray(record[32:32 + size])
assert state[-5:-3] == b"\x03\x02", "unexpected policy blob layout"
state[-2] = 9
header = bytearray(record[:32])
struct.pack_into("<I", header, 28, crc32c(state))
open(sys.argv[2], "wb").write(bytes(header) + bytes(state))
PY
code=0
"$SIM" "${RUN[@]}" --resume "$tmp/bad.qzck" --trace-out "$tmp/bad.jsonl" \
    >/dev/null 2>"$tmp/bad.err" || code=$?
if [ "$code" -ne 1 ] ||
    ! grep -q "(IBO option index out of range)" "$tmp/bad.err"; then
    cat "$tmp/bad.err" >&2
    fail "an out-of-range IBO option exited $code without naming" \
         "its section"
fi

# 5. The trace level is part of the experiment: a traced checkpoint
#    does not resume untraced.
"$SIM" "${RUN[@]}" --telemetry-cost-s 0.001 --checkpoint "$tmp/traced.qzck" \
    --checkpoint-stop --trace-out "$tmp/traced.jsonl" >/dev/null 2>&1
code=0
"$SIM" "${RUN[@]}" --telemetry-cost-s 0.001 --resume "$tmp/traced.qzck" \
    >/dev/null 2>"$tmp/untraced.err" || code=$?
if [ "$code" -ne 1 ] || ! grep -q "fingerprint" "$tmp/untraced.err"; then
    cat "$tmp/untraced.err" >&2
    fail "an untraced resume of a traced checkpoint exited $code" \
         "without naming the fingerprint"
fi

if [ $status -ne 0 ]; then
    echo "check_single_resume: FAILED" >&2
    exit $status
fi
echo "check_single_resume: OK ($records records; stopped, torn and" \
     "resumed runs end byte-identical to the straight run)"
