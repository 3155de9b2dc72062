#!/usr/bin/env bash
# Perf gate: the served benchmark (benchmark/run.sh, named by
# BENCHMARK.json) on a base revision and on the working tree, alternating
# on the same host. For every workload it runs N seed pairs: pair i runs
# seed i on both builds, the base first in odd pairs and the change first
# in even ones, so the host's drift falls on both sides. It prints, per
# workload x end-to-end metric, the two medians, how much worse the change
# is as a share of the base (positive is worse), the bound, the base's
# spread (interquartile range over median, given from N = 4 up) and in
# how many pairs the change read better than the base. Exits
# non-zero when a median is worse than its bound, or when a run fails or
# reports a failed round.
#
#   bash scripts/ab.sh BASE [--pairs N] [--seconds S] [workload ...]
#
# BASE is any git revision (default 4 pairs, BENCHMARK.json's run_seconds,
# every workload). Its tree is exported with `git archive` into
# .bench_build/ab/<commit> and runs its own benchmark/run.sh, so both
# sides are built from source exactly as the benchmark's contract says.
# Run from the repository root. Needs python3 for the arithmetic.
set -euo pipefail
if [ "$#" -lt 1 ]; then
	echo "usage: bash scripts/ab.sh BASE [--pairs N] [--seconds S] [workload ...]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_rev="$(git rev-parse --verify "$1^{commit}")"
shift
pairs=4
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads=()
while [ "$#" -gt 0 ]; do
	case "$1" in
	--pairs) pairs="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	*) workloads+=("$1"); shift ;;
	esac
done
if [ "${#workloads[@]}" -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

base="$root/.bench_build/ab/$base_rev"
if [ ! -f "$base/benchmark/run.sh" ]; then
	mkdir -p "$base"
	git archive "$base_rev" | tar -x -C "$base"
fi
out="$root/.bench_build/ab/out"
rm -rf "$out"
mkdir -p "$out"

status=0
bench() { # side tree workload seed
	if ! bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 >"$out/$3.$4.$1.txt"; then
		echo "FAILED: $1 $3 seed $4 (see $out/$3.$4.$1.txt)" >&2
		status=1
	fi
}
echo "ab: base $(git rev-parse --short "$base_rev") vs working tree, $pairs pair(s) x ${seconds}s: ${workloads[*]}"
for wl in "${workloads[@]}"; do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			bench base "$base" "$wl" "$seed"
			bench change "$root" "$wl" "$seed"
		else
			bench change "$root" "$wl" "$seed"
			bench base "$base" "$wl" "$seed"
		fi
	done
done
[ "$status" -eq 0 ] || exit "$status"
python3 - "$out" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0
def values(wl, side):
    global bad
    got = {}
    for s in range(1, n + 1):
        res = json.loads(open(f"{out}/{wl}.{s}.{side}.txt").read().strip().splitlines()[-1])
        if res["failed"] or not res["correct"]:
            print(f"FAILED ROUNDS: {side} {wl} seed {s}: {res['failed']} of {res['attempted']}, correct={res['correct']}")
            bad += 1
        for name, v in res["metrics"].items():
            got.setdefault(name, []).append(v["value"])
    return got
def spread(v):
    if len(v) < 4:
        return float("nan")
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)
print(f"{'workload':14} {'metric':15} {'base':>11} {'change':>11} {'worse':>8} {'bound':>6} {'iqr':>6} {'wins':>5}")
for wl in workloads:
    a, b = values(wl, "base"), values(wl, "change")
    for name, m in spec.items():
        ma, mb = statistics.median(a[name]), statistics.median(b[name])
        lower = m["better"] == "lower"
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        wins = sum(1 for x, y in zip(a[name], b[name]) if (y < x if lower else y > x))
        flag = ""
        if worse > m["bound"]:
            flag, bad = "  EXCEEDS", bad + 1
        print(f"{wl:14} {name:15} {ma:11.4f} {mb:11.4f} {worse:+8.3f} {m['bound']:6.2f} {spread(a[name]):6.3f} {wins:>2}/{n:<2}{flag}")
sys.exit(1 if bad else 0)
EOF
