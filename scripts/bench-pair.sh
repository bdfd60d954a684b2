#!/usr/bin/env bash
# bench-pair: paired runs of one benchmark workload (or, with `all`, of
# each workload BENCHMARK.json names, one table each — what a change
# that claims no gain has to show) at a parent commit and at the working
# tree, judged by the rule a performance claim has to meet
# (choosing-metrics §8): at least ten pairs, alternating which side runs
# first, a fresh seed per pair; a gain needs the change to win nine
# tenths of the pairs and the medians to lie further apart than the
# parent's own interquartile range.
#
#   scripts/bench-pair.sh <parent-ref> <workload>|all [pairs=10]
#   make bench-pair PARENT=HEAD~1 WORKLOAD=solve_paper
#
# With LAYERS=1 in the environment each side also gets one traced run
# (--trace 1) after the pairs, and the per-layer metrics BENCHMARK.json
# names that differ by more than 5 % between the two are printed side by
# side: where the end-to-end difference sits (choosing-metrics §6.6). One
# run a side says where to look; it is not a measurement.
#
# The parent is exported (git archive, so .git is not touched and a
# killed run leaves nothing to prune) under .bench_build/pair/, each
# side's harness is built once from its own bench/ against its own
# module, and every run uses the benchmark's own length. The script
# reads bench/ and BENCHMARK.json and edits neither. Needs git, go and
# python3.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-ref> <workload>|all [pairs=10]" >&2
	exit 2
fi
ref="$1"
workloads="$2"
pairs="${3:-10}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/pair"
parent="$work/parent"
commit="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
if [ "$workloads" = all ]; then
	workloads="$(python3 -c 'import json, sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$root/BENCHMARK.json")"
fi

rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$commit" | tar -x -C "$parent"

# build <checkout>: what bench/run.sh does before it runs the harness.
build() {
	local build="$1/.bench_build"
	mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
	(cd "$1/bench" && GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false \
		GOWORK=off GOTOOLCHAIN=local go build -o "$build/bin/bench" .)
}
echo "bench-pair: building parent ${commit:0:12} and the working tree" >&2
build "$parent"
build "$root"

# run <checkout> <seed> <trace>: one run of $workload; the result is the
# last line of standard output.
run() {
	(cd "$1/bench" && "$1/.bench_build/bin/bench" --workload "$workload" --seed "$2" --trace "$3") | tail -n 1
}

for workload in $workloads; do
	: >"$work/parent.$workload.jsonl"
	: >"$work/change.$workload.jsonl"
	for i in $(seq 1 "$pairs"); do
		seed=$((100 + i))
		if [ $((i % 2)) -eq 1 ]; then
			order="parent change"
		else
			order="change parent"
		fi
		for side in $order; do
			echo "bench-pair: $workload pair $i/$pairs seed $seed: $side" >&2
			if [ "$side" = parent ]; then
				run "$parent" "$seed" 0 >>"$work/parent.$workload.jsonl"
			else
				run "$root" "$seed" 0 >>"$work/change.$workload.jsonl"
			fi
		done
	done

	python3 - "$root/BENCHMARK.json" "$work/parent.$workload.jsonl" "$work/change.$workload.jsonl" "$workload" "${commit:0:12}" <<'EOF'
import json, statistics, sys

bench, parent_file, change_file, workload, commit = sys.argv[1:]
load = lambda path: [json.loads(line) for line in open(path)]
parent, change = load(parent_file), load(change_file)

def quartiles(vals):
    # statistics.quantiles needs two values; one pair's quartiles are
    # its one value.
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}: {len(parent)} pairs, parent {commit} vs working tree; "
      f"ops failed {sum(r['failed'] for r in parent)} vs {sum(r['failed'] for r in change)}")
if len(parent) < 10:
    print("fewer than ten pairs: a gain verdict below is an indication, not a claim")
print(f"{'metric':<20}{'parent q1 / median / q3':>40}{'change q1 / median / q3':>40}  {'won':>5}  {'bound':>5}  verdict")
for m in json.load(open(bench))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    won = sum(better(y, x) for x, y in zip(p, c))
    lost = sum(better(x, y) for x, y in zip(p, c))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
    iqr = pq3 - pq1
    # How much worse the change's median is, as a share of the parent's.
    worse = ((cmed - pmed) if lower else (pmed - cmed)) / pmed if pmed else 0.0
    all_better = all(better(y, x) for x in p for y in c)
    if won >= 0.9 * len(p) and better(cmed, pmed) and abs(cmed - pmed) > iqr:
        verdict = f"gain ({pmed / cmed if lower else cmed / pmed:.2f}x)"
    elif worse > m["bound"]:
        verdict = f"WORSE by {worse:.1%}, over the bound"
    elif pmed and iqr / pmed > m["bound"] and not all_better:
        verdict = "unresolved (parent spread wider than the bound)"
    else:
        verdict = "within the bound"
    fmt = lambda a, b, c: f"{a:.5g} / {b:.5g} / {c:.5g}"
    print(f"{name:<20}{fmt(pq1, pmed, pq3):>40}{fmt(cq1, cmed, cq3):>40}  {won:>2}-{lost:<2}  {m['bound']:>5.0%}  {verdict}")
EOF

	if [ "${LAYERS:-0}" = 1 ]; then
		echo "bench-pair: $workload traced run, seed 100: parent, then change" >&2
		run "$parent" 100 1 >"$work/parent.$workload.trace.json"
		run "$root" 100 1 >"$work/change.$workload.trace.json"
		python3 - "$root/BENCHMARK.json" "$work/parent.$workload.trace.json" "$work/change.$workload.trace.json" "$workload" <<'EOF'
import json, sys

bench, parent_file, change_file, workload = sys.argv[1:]
parent, change = json.load(open(parent_file)), json.load(open(change_file))
value = lambda run, name: run["metrics"].get(name, {}).get("value", 0.0)
print(f"{workload}: per-layer metrics of one traced run a side that differ by more than 5 %")
print(f"{'metric':<36}{'parent':>14}{'change':>14}  {'change/parent':>13}  better")
close = 0
for m in json.load(open(bench))["per_layer"]:
    p, c = value(parent, m["name"]), value(change, m["name"])
    if abs(c - p) <= 0.05 * abs(p):
        close += p != 0
        continue
    ratio = f"{c / p:.2f}x" if p else "-"
    print(f"{m['name']:<36}{p:>14.6g}{c:>14.6g}  {ratio:>13}  {m['better']}")
print(f"the other {close} per-layer metrics this workload reports are within 5 %")
EOF
	fi
done
