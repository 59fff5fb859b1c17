#!/usr/bin/env bash
# Same-host A/B of two commits on one perfbench workload.
#
# Exports BASE and HEAD (git archive, so the repository's own
# metadata and working tree are left alone; HEAD may be "." for the
# working tree as it stands, untracked files included) into a scratch
# directory, builds perfbench in each, then runs the workload
# interleaved: pair i runs BASE then HEAD when i is odd, HEAD then
# BASE when i is even, so drift in host speed hits both sides alike.
# For every end-to-end metric of BENCHMARK.json it prints each side's
# best-of-N and median, the head/base ratio of both oriented so that
# > 1 is better, how many pairs head won, the range of the per-pair
# ratios, and each side's IQR/median spread. A median ratio inside
# the base's spread is noise. The last column is a verdict per
# metric, checked in this order:
#   gain        head won >= 9/10 of the pairs (ties count for
#               neither) and its median beats the base's by more
#               than the base's IQR/median;
#   worse       head's median is worse than the base's by more than
#               the metric's BENCHMARK.json bound;
#   unresolved  either side's IQR/median is wider than that bound,
#               and not every head run beats every base run;
#   held        otherwise.
# Below the table it prints each side's median user and system CPU
# seconds per run: the getrusage(RUSAGE_CHILDREN) delta across one
# whole perfbench/run.py call (its set-up, warm-up and checks as well
# as the timed pass), read through bash's `times`. Kernel time spent
# on a run's behalf (page faults, say) shows there. No verdict reads
# these two columns.
# Digests are pinned for seed 42 only; on other seeds each run still
# checks every batch against its own warm-up.
#
# Usage: scripts/bench_ab.sh [--workload W] [--pairs N] [--seconds S]
#                            [--seed N] [--scratch DIR] BASE HEAD
#   defaults: fleet_starved, 10 pairs, 5 s timed pass per run,
#             seed 42, scratch ${TMPDIR:-/tmp}/quetzal-bench-ab
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=fleet_starved
PAIRS=10
SECONDS_PER_RUN=5
SEED=42
SCRATCH="${TMPDIR:-/tmp}/quetzal-bench-ab"
POSITIONAL=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) WORKLOAD="$2"; shift 2 ;;
        --pairs) PAIRS="$2"; shift 2 ;;
        --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --scratch) SCRATCH="$2"; shift 2 ;;
        -h|--help) sed -n '2,36p' "$0"; exit 0 ;;
        *) POSITIONAL+=("$1"); shift ;;
    esac
done
if [ ${#POSITIONAL[@]} -ne 2 ]; then
    echo "usage: scripts/bench_ab.sh [options] BASE HEAD" >&2
    exit 2
fi
BASE="${POSITIONAL[0]}"
HEAD="${POSITIONAL[1]}"

# export REV DIR: a clean copy of REV ("." = the working tree).
export_tree() {
    local rev="$1" dir="$2"
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    if [ "$rev" = "." ]; then
        git ls-files -z --cached --others --exclude-standard |
            tar --null --ignore-failed-read -T - -cf - |
            tar -xf - -C "$dir/src"
    else
        git archive "$(git rev-parse --verify "$rev^{commit}")" |
            tar -xf - -C "$dir/src"
    fi
}

# run SIDE: one timed pass; appends its JSON result line to SIDE.jsonl
# and the children's CPU times before and after it to SIDE.cpu. `times`
# runs in this shell, not in a $(...) subshell, which would count only
# its own children. A run that fails its correctness check still
# prints its line (with "correct": false), which the summary reports.
run_side() {
    local side="$1" line
    times >"$SCRATCH/$side.times"
    line="$(cd "$SCRATCH/$side/src" &&
        CARGO_TARGET_DIR="$SCRATCH/$side/target" \
            python3 perfbench/run.py --workload "$WORKLOAD" \
            --seed "$SEED" --seconds "$SECONDS_PER_RUN" 2>>"$SCRATCH/$side/build.log" |
        tail -n 1)" || true
    if [ "${line:0:1}" != "{" ]; then
        echo "bench_ab: $side printed no result;" \
             "see $SCRATCH/$side/build.log" >&2
        exit 1
    fi
    echo "$line" >>"$SCRATCH/$side.jsonl"
    times >>"$SCRATCH/$side.times"
    # Lines 2 and 4 hold the children's user and system time.
    sed -n '2p;4p' "$SCRATCH/$side.times" | paste -sd ' ' >>"$SCRATCH/$side.cpu"
}

mkdir -p "$SCRATCH"
for side in base head; do
    rev="$BASE"
    [ "$side" = head ] && rev="$HEAD"
    echo "bench_ab: exporting $side ($rev) and building perfbench" >&2
    export_tree "$rev" "$SCRATCH/$side"
    rm -f "$SCRATCH/$side.jsonl" "$SCRATCH/$side.cpu"
    # The first run builds; its numbers are discarded as a warm-up.
    run_side "$side"
    rm -f "$SCRATCH/$side.jsonl" "$SCRATCH/$side.cpu"
done

for ((i = 1; i <= PAIRS; ++i)); do
    if ((i % 2)); then order="base head"; else order="head base"; fi
    for side in $order; do
        run_side "$side"
    done
    echo "bench_ab: pair $i/$PAIRS done" >&2
done

python3 - "$SCRATCH" "$WORKLOAD" "$SEED" "$BASE" "$HEAD" <<'EOF'
import json, statistics, sys
scratch, workload, seed, base_rev, head_rev = sys.argv[1:6]

def load(side):
    with open(f"{scratch}/{side}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]

runs = {side: load(side) for side in ("base", "head")}
spec = json.load(open(f"{scratch}/head/src/BENCHMARK.json"))

def quartiles(xs):
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print(f"bench_ab: workload {workload}, seed {seed}, "
      f"{len(runs['base'])} pairs, base {base_rev}, head {head_rev}")
for side in ("base", "head"):
    bad = [r for r in runs[side] if not r.get("correct") or r.get("failed")]
    if bad:
        print(f"  {side}: {len(bad)} run(s) failed their correctness check")
print(f"  {'metric':24} {'base best':>11} {'head best':>11} "
      f"{'best x':>7} {'base med':>11} {'head med':>11} {'med x':>7} "
      f"{'wins':>5} {'pair x range':>15} {'IQR/med base':>12} "
      f"{'head':>6} {'verdict':>10}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    higher = metric["better"] == "higher"
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]
                if name in r.get("metrics", {})] for s in runs}
    if not vals["base"] or len(vals["base"]) != len(vals["head"]):
        continue
    def better(a, b):  # > 1 when b improves on a
        if a == b:
            return 1.0
        if a == 0 or b == 0:
            return float("nan")
        return b / a if higher else a / b
    best = max if higher else min
    b_best, h_best = best(vals["base"]), best(vals["head"])
    b_med = statistics.median(vals["base"])
    h_med = statistics.median(vals["head"])
    pairs = [better(b, h) for b, h in zip(vals["base"], vals["head"])]
    wins = sum(1 for x in pairs if x > 1.0)
    def spread(xs, med):
        q1, _, q3 = quartiles(xs)
        return (q3 - q1) / med if med else 0.0
    b_spread = spread(vals["base"], b_med)
    h_spread = spread(vals["head"], h_med)
    med_x = better(b_med, h_med)
    bound = metric["bound"]
    worst_head = min if higher else max
    best_base = max if higher else min
    head_dominates = better(best_base(vals["base"]),
                            worst_head(vals["head"])) > 1.0
    # med_x below this: head's median is worse by more than the bound.
    worse_below = 1.0 - bound if higher else 1.0 / (1.0 + bound)
    if wins >= 0.9 * len(pairs) and med_x - 1.0 > b_spread:
        verdict = "gain"
    elif med_x < worse_below:
        verdict = "worse"
    elif max(b_spread, h_spread) > bound and not head_dominates:
        verdict = "unresolved"
    else:
        verdict = "held"
    print(f"  {name:24} {b_best:11.4g} {h_best:11.4g} "
          f"{better(b_best, h_best):7.3f} {b_med:11.4g} {h_med:11.4g} "
          f"{med_x:7.3f} {wins:>2}/{len(pairs):<2} "
          f"{min(pairs):7.3f}-{max(pairs):<7.3f} "
          f"{b_spread:12.3f} {h_spread:6.3f} {verdict:>10}")

def cpu_per_run(side):
    # Each line: the children's user and system time before the run,
    # then after it, in `times` notation ("1m2.345s"; the decimal
    # point follows LC_NUMERIC, so it may be a comma).
    def seconds(word):
        minutes, rest = word.rstrip("s").split("m")
        return 60.0 * float(minutes) + float(rest.replace(",", "."))
    user, system = [], []
    with open(f"{scratch}/{side}.cpu") as f:
        for line in f:
            u0, s0, u1, s1 = (seconds(w) for w in line.split())
            user.append(u1 - u0)
            system.append(s1 - s0)
    return user, system

print(f"  {'run.py CPU s, median':24} {'user':>8} {'sys':>8}")
for side in ("base", "head"):
    user, system = cpu_per_run(side)
    print(f"  {side:24} {statistics.median(user):8.2f} "
          f"{statistics.median(system):8.2f}")
EOF
