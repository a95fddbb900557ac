#!/usr/bin/env bash
# A/A check: two sets of full runs of the same tree, alternating sets,
# so that both sets see the same machine weather. Prints, as markdown,
# the per-set median and quartiles of every (workload, end-to-end
# metric), and exits 1 if a pair of set medians differs by more than
# the metric's bound, if any run failed an operation, or if a
# count-type per-layer metric did not repeat exactly.
#
#   bash benchmark/aa.sh [runs-per-set [seed]] > benchmark/AA.md
#
# runs-per-set defaults to 5 (about 25 minutes). Every run uses the
# same seed (default 1), so that the spread it reports is the machine's
# and not the seeds'.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-5}"
seed="${2:-1}"
if [ "$runs" -lt 5 ]; then
	echo "aa.sh: need at least 5 runs per set" >&2
	exit 2
fi
mkdir -p "$here/out"
tmp="$(mktemp -d "$here/out/aa.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# BENCHMARK.json is the tables of workloads.go and metrics.go; a test
# keeps the two equal.
cp "$here/../BENCHMARK.json" "$tmp/benchmark.json"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$tmp/benchmark.json")"

for run in $(seq 1 "$runs"); do
	for set in A B; do
		for w in $workloads; do
			echo "aa.sh: set $set run $run $w" >&2
			bash "$here/run.sh" -workload "$w" -seed "$seed" -trace 0 | tail -n 1 > "$tmp/e2e-$set-$w-$run.json"
		done
	done
done

# Counts: two traced runs per library workload. The
# service's counts come from /metrics deltas of a concurrent server and
# are not exact, so it is left out.
for rep in 1 2; do
	for w in $workloads; do
		[ "$w" = svc_small_jobs ] && continue
		echo "aa.sh: counts $rep $w" >&2
		bash "$here/run.sh" -workload "$w" -seed "$seed" -trace 1 | tail -n 1 > "$tmp/layers-$rep-$w.json"
	done
done

python3 - "$tmp" "$runs" "$seed" <<'EOF'
import json, statistics, sys, glob, os

tmp, runs, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open(os.path.join(tmp, "benchmark.json")))
ok = True

def load(pattern):
    out = []
    for path in sorted(glob.glob(os.path.join(tmp, pattern))):
        out.append(json.load(open(path)))
    return out

print("# A/A check\n")
print(f"Two sets of {runs} runs of every workload on the same tree, sets alternating, "
      f"seed {seed} throughout. `spread` is (q3-q1)/median of a set; `delta` is set B's median "
      "against set A's, positive when B is worse. A row passes when |delta| is within the bound, "
      "and reads `unresolved` when a set's own spread is wider than the bound.\n")
print("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | delta | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
failed_ops = 0
for w in bench["workloads"]:
    sets = {s: load(f"e2e-{s}-{w['name']}-*.json") for s in "AB"}
    for s in "AB":
        for r in sets[s]:
            failed_ops += r["failed"]
            if not r["correct"]:
                ok = False
    for m in bench["end_to_end"]:
        cells, med, spreads = [], {}, []
        for s in "AB":
            vals = [r["metrics"][m["name"]]["value"] for r in sets[s]]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med[s] = statistics.median(vals)
            cells.append(f"{med[s]:.5g} [{q1:.5g}, {q3:.5g}]")
            spreads.append((q3 - q1) / med[s])
        delta = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            delta = -delta
        good = abs(delta) <= m["bound"]
        ok = ok and good
        # A set whose own spread is wider than the bound cannot resolve a
        # change of the bound's size: the row is unresolved, not unchanged.
        verdict = "FAIL" if not good else "unresolved" if max(spreads) > m["bound"] else "ok"
        print(f"| {w['name']} | {m['name']} ({m['unit']}) | {cells[0]} | {cells[1]} | "
              f"{100*spreads[0]:.1f}% | {100*spreads[1]:.1f}% | {100*delta:+.1f}% | {100*m['bound']:.0f}% | "
              f"{verdict} |")

print(f"\nFailed operations over all {2*runs*len(bench['workloads'])} runs: {failed_ops}.\n")

print("## Counts\n")
print(f"Count-type per-layer metrics of two traced runs on seed {seed}; they must repeat exactly.\n")
print("| workload | metric | run 1 | run 2 | |")
print("|---|---|---|---|---|")
def is_count(name):
    return (name.startswith("dd.") and name.endswith("_per_traj")) or name == "noise.channel_apps_per_traj" \
        or name.startswith("stochastic.gates_") or name in ("stochastic.forks_per_traj", "stochastic.checkpoints_per_job", "dd.gc_runs_per_job")
for w in bench["workloads"]:
    if w["name"] == "svc_small_jobs":
        continue
    a, b = (json.load(open(os.path.join(tmp, f"layers-{i}-{w['name']}.json"))) for i in (1, 2))
    for m in bench["per_layer"]:
        if not is_count(m["name"]):
            continue
        va, vb = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        same = va == vb
        ok = ok and same
        print(f"| {w['name']} | {m['name']} | {va!r} | {vb!r} | {'ok' if same else 'FAIL'} |")

print("\n## Across worker counts\n")
print("`harness.worker_mismatch_jobs`: 2-worker jobs of a traced run (5 set-ups, 40 timed) whose result was not "
      "bit-equal to the 1-worker reference. It depends on scheduling and need not repeat; it is reported, not gated.\n")
print("| workload | run 1 | run 2 |")
print("|---|---|---|")
for w in bench["workloads"]:
    if w["name"] == "svc_small_jobs":
        continue
    a, b = (json.load(open(os.path.join(tmp, f"layers-{i}-{w['name']}.json"))) for i in (1, 2))
    print(f"| {w['name']} | {a['metrics']['harness.worker_mismatch_jobs']['value']:.0f} | "
          f"{b['metrics']['harness.worker_mismatch_jobs']['value']:.0f} |")

print()
print("Result: " + ("pass" if ok and failed_ops == 0 else "FAIL"))
sys.exit(0 if ok and failed_ops == 0 else 1)
EOF
