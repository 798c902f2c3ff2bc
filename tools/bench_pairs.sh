#!/usr/bin/env bash
# Alternating before/after pairs of the pipeline benchmark: git revision REV
# against the working tree, on one workload.
#
#   tools/bench_pairs.sh REV WORKLOAD PAIRS [SEED]
#
# REV is exported with `git archive`, and the working tree's tracked and
# untracked, non-ignored files are copied, each side into its own
# `mktemp -d` directory, so the benchmark's .pipebench/ output never lands
# in the repository.  Pair i (0 to PAIRS-1) runs
#
#   python3 pipebench/run.py --workload WORKLOAD --seed SEED+i --trace 0
#
# in both directories, REV first in even pairs and the working tree first in
# odd ones (SEED defaults to 0).  It then prints, for each end-to-end metric
# of the working tree's BENCHMARK.json, each side's median and quartiles and
# the number of pairs the working tree won (lower or higher is better as
# BENCHMARK.json says), and each side's failed calls.  The directories are
# removed on exit.  Exits 2 on bad arguments or when REV cannot be exported,
# 1 when a run fails or reports a failed call, else 0.  Set PYTHON to choose
# the interpreter.
set -u -o pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REV WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-0}
case $pairs in
    '' | *[!0-9]* | 0*)
        echo "$0: PAIRS must be an integer >= 1, got $pairs" >&2
        exit 2
        ;;
esac
case $seed in
    '' | *[!0-9]*)
        echo "$0: SEED must be an integer >= 0, got $seed" >&2
        exit 2
        ;;
esac
python=${PYTHON:-python3}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev" "$tmp/work"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/rev" || exit 2
# tracked files deleted from the working tree are left out
git -C "$repo" ls-files -z --cached --others --exclude-standard \
    | (cd "$repo" && while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done) \
    | tar -c -C "$repo" --null -T - | tar -x -C "$tmp/work" || exit 2

status=0
run() {  # run SIDE SEED: one benchmark run, its result line appended to SIDE.jsonl
    local out
    out=$(cd "$tmp/$1" && "$python" pipebench/run.py --workload "$workload" --seed "$2" \
        --trace 0 2>"$tmp/$1.err")
    local code=$?
    if [ $code -ne 0 ]; then
        echo "$1 seed $2 exited $code:" >&2
        cat "$tmp/$1.err" >&2
        status=1
    fi
    printf '%s\n' "${out##*$'\n'}" >>"$tmp/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then run rev "$s"; run work "$s"; else run work "$s"; run rev "$s"; fi
    echo "pair $((i + 1))/$pairs (seed $s) done" >&2
done

"$python" - "$tmp" "$rev" "$workload" <<'EOF' || status=1
import json
import statistics
import sys

tmp, rev, workload = sys.argv[1:]
bench = json.load(open(f"{tmp}/work/BENCHMARK.json", encoding="utf-8"))


def load(side):
    rows = []
    for line in open(f"{tmp}/{side}.jsonl", encoding="utf-8"):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            rows.append({"attempted": 0, "failed": 0, "metrics": {}})
    return rows


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


before, after = load("rev"), load("work")
print(f"{workload}: {rev} against the working tree, {len(after)} pairs")
print(f"  {'metric':<12} {'side':<6} {'median':>10} {'q1':>10} {'q3':>10}  won")
bad = False
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [
        (b["metrics"][name]["value"], a["metrics"][name]["value"])
        for b, a in zip(before, after)
        if name in b["metrics"] and name in a["metrics"]
    ]
    if not pairs:
        print(f"  {name:<12} no values")
        bad = True
        continue
    won = sum((a < b) if lower else (a > b) for b, a in pairs)
    for side, values in (("rev", [b for b, _ in pairs]), ("work", [a for _, a in pairs])):
        q1, q2, q3 = spread(values)
        tail = f"  {won}/{len(pairs)}" if side == "work" else ""
        print(f"  {name:<12} {side:<6} {q2:>10.4g} {q1:>10.4g} {q3:>10.4g}{tail}")
for side, rows in (("rev", before), ("work", after)):
    failed, attempted = sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows)
    print(f"  {side}: {failed} of {attempted} calls failed")
    bad = bad or failed > 0
sys.exit(1 if bad else 0)
EOF
exit $status
