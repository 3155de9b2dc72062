#!/usr/bin/env bash
# A/A check: two sets of runs of the same code must agree within the
# benchmark's own bounds. For every workload it runs N seeds twice (set A
# = seeds 1..N, set B = seeds N+1..2N; default N = 2), then prints per
# workload x end-to-end metric the two medians, how much worse B is than
# A as a share of A, the bound, and each set's spread (interquartile
# range over median, given from N = 4 up). Exits non-zero if any
# difference exceeds its bound or any run fails.
#
#   bash benchmark/aa.sh [N] [workload ...]
#
# Run from the repository root. Needs python3 for the arithmetic.
set -euo pipefail
n="${1:-2}"
shift || true
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="$root/.bench_build/aa"
rm -rf "$out"
mkdir -p "$out"
if [ "$#" -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
status=0
for wl in "${workloads[@]}"; do
	for seed in $(seq 1 $((2 * n))); do
		if ! bash "$here/run.sh" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$wl.$seed.txt"; then
			echo "FAILED: $wl seed $seed (see $out/$wl.$seed.txt)" >&2
			status=1
		fi
	done
done
python3 - "$out" "$n" "${workloads[@]}" <<'EOF' || status=1
import json, statistics, sys
out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
def values(wl, seeds):
    got = {}
    for s in seeds:
        last = open(f"{out}/{wl}.{s}.txt").read().strip().splitlines()[-1]
        for name, v in json.loads(last)["metrics"].items():
            got.setdefault(name, []).append(v["value"])
    return got
def spread(v):
    if len(v) < 4:
        return float("nan")
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)
bad = 0
print(f"{'workload':14} {'metric':15} {'A':>11} {'B':>11} {'worse':>8} {'bound':>6} {'iqrA':>6} {'iqrB':>6}")
for wl in workloads:
    a, b = values(wl, range(1, n + 1)), values(wl, range(n + 1, 2 * n + 1))
    for name, m in spec.items():
        ma, mb = statistics.median(a[name]), statistics.median(b[name])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = ""
        if worse > m["bound"]:
            flag, bad = "  EXCEEDS", bad + 1
        print(f"{wl:14} {name:15} {ma:11.4f} {mb:11.4f} {worse:+8.3f} {m['bound']:6.2f} {spread(a[name]):6.3f} {spread(b[name]):6.3f}{flag}")
sys.exit(1 if bad else 0)
EOF
exit "$status"
