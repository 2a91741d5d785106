#!/usr/bin/env sh
# Interleaved A/B benchmark of two vmtherm trees on the same machine.
# Exports each side into its own scratch tree, then for every workload runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds T
#
# in each tree for N pairs, the side that goes first alternating from pair
# to pair (so slow drift of the machine hits both sides alike). Per
# workload it prints, for every end-to-end metric named in BENCHMARK.json,
# each side's median and interquartile range and the number of pairs in
# which the candidate is better, plus how many runs were correct and how
# many operations failed. With -l it prints the same for the named
# per-layer metrics, read from the metric table in each run's output.
# Run from the repo root:
#
#   scripts/bench_ab.sh [-b BASE] [-c CAND] [-w "W1 W2 ..."] [-s SEED]
#                       [-n PAIRS] [-t SECONDS] [-d DIR] [-l "M1 M2 ..."]
#
#   BASE     git revision of the baseline (default HEAD)
#   CAND     git revision of the candidate, or "worktree" (the default):
#            the tracked and untracked, not ignored files of this checkout
#   W...     workloads (default "steady churn ops train")
#   SEED     perfbench seed (default 42)
#   PAIRS    pairs of runs per workload (default 5)
#   SECONDS  length of each run (default 10)
#   DIR      scratch directory for the two trees and the raw results
#            (default: a new mktemp -d); reusing one skips the rebuilds
#   M...     per-layer metrics of BENCHMARK.json to compare as well, e.g.
#            "serve.save_ms serve.load_ms serve.snapshot_bytes" (default
#            none); a workload that does not report one shows n/a
#
# Each run's JSON line is kept as
# DIR/results/<workload>-s<seed>-<side>-<pair>.json, its output beside it.
# Exit status: 0 when every run completed and was correct, 1 otherwise.
set -eu

BASE=HEAD
CAND=worktree
WORKLOADS="steady churn ops train"
SEED=42
PAIRS=5
SECONDS_PER_RUN=10
DIR=""
LAYERS=""
while getopts b:c:w:s:n:t:d:l: opt; do
  case "$opt" in
    b) BASE="$OPTARG" ;;
    c) CAND="$OPTARG" ;;
    w) WORKLOADS="$OPTARG" ;;
    s) SEED="$OPTARG" ;;
    n) PAIRS="$OPTARG" ;;
    t) SECONDS_PER_RUN="$OPTARG" ;;
    d) DIR="$OPTARG" ;;
    l) LAYERS="$OPTARG" ;;
    *) sed -n '2,34p' "$0" >&2; exit 2 ;;
  esac
done

ROOT="$(git rev-parse --show-toplevel)"
[ -n "$DIR" ] || DIR="$(mktemp -d)"
mkdir -p "$DIR/results"

# export_tree REV DEST: the files of REV (or of the working tree) in DEST.
export_tree() {
  [ -e "$2/CMakeLists.txt" ] && return 0
  mkdir -p "$2"
  if [ "$1" = worktree ]; then
    git -C "$ROOT" ls-files -z --cached --others --exclude-standard |
      (cd "$ROOT" && tar -cf - --null --ignore-failed-read -T -) |
      tar -xf - -C "$2"
  else
    git -C "$ROOT" archive "$1" | tar -xf - -C "$2"
  fi
}

export_tree "$BASE" "$DIR/base"
export_tree "$CAND" "$DIR/cand"
echo "base: $BASE -> $DIR/base" >&2
echo "cand: $CAND -> $DIR/cand" >&2

status=0
# run_side SIDE WORKLOAD PAIR: one run, its JSON line saved.
run_side() {
  out="$DIR/results/$2-s$SEED-$1-$3.json"
  if (cd "$DIR/$1" && python3 perfbench/run.py --workload "$2" \
        --seed "$SEED" --seconds "$SECONDS_PER_RUN") >"$out.log" 2>&1; then
    :
  else
    status=1
  fi
  tail -n 1 "$out.log" >"$out"
}

for workload in $WORKLOADS; do
  pair=1
  while [ "$pair" -le "$PAIRS" ]; do
    echo "$workload pair $pair/$PAIRS" >&2
    if [ $((pair % 2)) -eq 1 ]; then
      run_side base "$workload" "$pair"
      run_side cand "$workload" "$pair"
    else
      run_side cand "$workload" "$pair"
      run_side base "$workload" "$pair"
    fi
    pair=$((pair + 1))
  done
done

python3 - "$ROOT/BENCHMARK.json" "$DIR/results" "$SEED" "$PAIRS" \
  "$LAYERS" $WORKLOADS <<'EOF' || status=1
import json
import statistics
import sys
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text())
results, seed, pairs = Path(sys.argv[2]), sys.argv[3], int(sys.argv[4])
per_layer = {m["name"]: m for m in spec["per_layer"]}
layers = sys.argv[5].split()
workloads = sys.argv[6:]
unknown = [name for name in layers if name not in per_layer]
if unknown:
    sys.exit(f"bench_ab: not a per-layer metric of BENCHMARK.json: {unknown}")


def load(workload, side, pair):
    try:
        path = results / f"{workload}-s{seed}-{side}-{pair}.json"
        run = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    # The metric tables of the run's output: "#   <name>  <value>  <unit>
    # n=<n>  <tail>" rows, the per-layer ones among them.
    run["table"] = {}
    try:
        lines = Path(f"{path}.log").read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:
        fields = line.split()
        if len(fields) >= 5 and fields[0] == "#" and fields[4].startswith("n="):
            try:
                run["table"][fields[1]] = float(fields[2])
            except ValueError:
                pass
    return run


def value(run, name):
    if run is None:
        return None
    if name in per_layer:
        return run["table"].get(name)
    v = run["metrics"].get(name)
    if isinstance(v, dict):
        v = v.get("median", v.get("value"))
    return v


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    if abs(x) >= 1e6:
        return f"{x / 1e6:.2f} M"
    if abs(x) >= 100:
        return f"{x:.1f}"
    return f"{x:.3g}" if abs(x) < 1 else f"{x:.2f}"


def cell(runs, m):
    name, higher = m["name"], m["better"] == "higher"
    a = [value(r, name) for r in runs["base"]]
    b = [value(r, name) for r in runs["cand"]]
    both = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if not both:
        return "n/a"
    xs, ys = [x for x, _ in both], [y for _, y in both]
    better = sum(1 for x, y in both if (y > x if higher else y < x))
    (aq1, aq3), (bq1, bq3) = quartiles(xs), quartiles(ys)
    return (f"{fmt(statistics.median(xs))} ({fmt(aq1)}–{fmt(aq3)}) → "
            f"{fmt(statistics.median(ys))} ({fmt(bq1)}–{fmt(bq3)}), "
            f"{better}/{len(both)}")


def table(metrics, with_checks):
    bad = False
    print("| workload (seed, pairs) | " + " | ".join(m["name"] for m in metrics)
          + (" | correct, failed |" if with_checks else " |"))
    print("|---" * (len(metrics) + 1 + with_checks) + "|")
    for workload in workloads:
        runs = {side: [load(workload, side, p) for p in range(1, pairs + 1)]
                for side in ("base", "cand")}
        cells = [cell(runs, m) for m in metrics]
        if with_checks:
            checks = []
            for side in ("base", "cand"):
                ok = sum(1 for r in runs[side] if r and r.get("correct") is True)
                failed = sum(r.get("failed", 0) for r in runs[side] if r)
                bad |= ok != pairs or failed != 0
                checks.append(f"{side} {ok}/{pairs}, {failed}")
            cells.append("; ".join(checks))
        print(f"| {workload} ({seed}, {pairs}) | " + " | ".join(cells) + " |")
    return bad


bad = table(spec["end_to_end"], True)
if layers:
    print()
    table([per_layer[name] for name in layers], False)
print("\nmedian (IQR) base → cand, pairs where cand is better")
sys.exit(1 if bad else 0)
EOF
exit "$status"
