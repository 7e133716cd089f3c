#!/usr/bin/env bash
# Same-host A/B of the repository benchmark between two git revisions.
#
# Usage: scripts/perf_ab.sh <base-rev> <head-rev> [pairs] [workload]
#
# Checks out each revision into its own git worktree, then runs
# `perfbench/run.py` (each revision its own copy, which builds into its
# own CARGO_TARGET_DIR before timing) for `pairs` rounds (default 10) of
# `workload` (default table3), alternating which side runs first. Each
# run lasts the `run_seconds` of the head revision's BENCHMARK.json.
# Prints each side's median and quartiles for every end-to-end metric,
# the head/base ratio of the medians, whether the median difference
# exceeds the base's interquartile range, and in how many pairs the head
# was better.
# Stops at the first run that fails or reports incorrect results.
#
# Environment:
#   PERF_AB_SEED     seed of the first pair (default 1); pair i uses seed+i
#   PERF_AB_DIR      work directory, kept afterwards (default: a temp
#                    directory, removed at exit)
#
# Advisory only: compare runs from one host, and keep the host otherwise
# idle. Not part of scripts/check.sh.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <base-rev> <head-rev> [pairs] [workload]" >&2
    exit 2
fi
repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}")
head=$(git -C "$repo" rev-parse --verify "$2^{commit}")
pairs=${3:-10}
workload=${4:-table3}
seed0=${PERF_AB_SEED:-1}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "$0: pairs must be a positive integer, got '$pairs'" >&2
    exit 2
fi

if [[ -n ${PERF_AB_DIR:-} ]]; then
    work=$PERF_AB_DIR
    mkdir -p "$work"
    keep=1
else
    work=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
    keep=0
fi
cleanup() {
    local status=$?
    for side in base head; do
        if [[ -d $work/$side ]]; then
            git -C "$repo" worktree remove --force "$work/$side" || true
        fi
    done
    if [[ $keep == 0 && $status == 0 ]]; then
        rm -rf "$work"
    elif [[ $status != 0 ]]; then
        echo "$0: failed; logs kept in $work" >&2
    fi
}
trap cleanup EXIT

for side in base head; do
    rev=$base
    [[ $side == head ]] && rev=$head
    if [[ -d $work/$side ]]; then
        git -C "$repo" worktree remove --force "$work/$side"
    fi
    git -C "$repo" worktree add --detach --quiet "$work/$side" "$rev"
done
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$work/head/BENCHMARK.json")

results=$work/results.jsonl
: >"$results"
run_side() { # side pair seed
    local side=$1 out
    if ! out=$(cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        python3 perfbench/run.py --workload "$workload" --seed "$3" --seconds "$seconds" \
        2>>"$work/stderr-$side.log" | tail -n 1); then
        echo "$0: $side run of pair $(($2 + 1)) failed or was incorrect: $out" >&2
        exit 1
    fi
    printf '{"side": "%s", "pair": %d, "seed": %d, "result": %s}\n' \
        "$side" "$2" "$3" "$out" >>"$results"
    echo "   $side: done" >&2
}
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    echo "== pair $((i + 1))/$pairs (seed $seed)" >&2
    if ((i % 2 == 0)); then
        run_side base "$i" "$seed"
        run_side head "$i" "$seed"
    else
        run_side head "$i" "$seed"
        run_side base "$i" "$seed"
    fi
done

python3 - "$results" "$work/head/BENCHMARK.json" "$base" "$head" "$workload" <<'EOF'
import json, os, statistics, sys

results, bench_json, base, head, workload = sys.argv[1:]
runs = [json.loads(line) for line in open(results)]
better = {}
if os.path.exists(bench_json):
    better = {m["name"]: m["better"] for m in json.load(open(bench_json))["end_to_end"]}
by = {"base": {}, "head": {}}
for r in runs:
    by[r["side"]][r["pair"]] = r["result"]
pairs = sorted(set(by["base"]) & set(by["head"]))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"perf_ab: {workload}, {len(pairs)} pairs, base {base[:12]} vs head {head[:12]}")
print(f"{'metric':<22} {'base median [q1, q3]':>38} {'head median [q1, q3]':>38}"
      f" {'head/base':>10} {'>IQR':>5} {'head wins':>10}")
names = list(by["base"][pairs[0]]["metrics"]) if pairs else []
for name in names:
    b = [by["base"][p]["metrics"][name]["value"] for p in pairs]
    h = [by["head"][p]["metrics"][name]["value"] for p in pairs]
    bq, hq = quartiles(b), quartiles(h)
    ratio = hq[1] / bq[1] if bq[1] else float("nan")
    beyond = "yes" if abs(hq[1] - bq[1]) > bq[2] - bq[0] else "no"
    sense = better.get(name)
    if sense == "higher":
        wins = sum(y > x for x, y in zip(b, h))
    elif sense == "lower":
        wins = sum(y < x for x, y in zip(b, h))
    wins = f"{wins}/{len(pairs)}" if sense else "-"
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    print(f"{name:<22} {fmt(bq):>38} {fmt(hq):>38} {ratio:>10.4f} {beyond:>5} {wins:>10}")
EOF
