#!/usr/bin/env bash
# cluster_smoke.sh — boots a real multi-process cluster (two -worker
# ddsimd processes plus one coordinator, over real TCP) and gates on
# the distributed subsystem's two contracts on the default lease
# settings, exactly as CI's cluster-smoke job runs it:
#
#   1. bit-identity: a paper-noise benchmark submitted to the
#      coordinator returns results byte-identical to a single-node
#      ddsimd run of the same submission (scheduling artefacts —
#      elapsed wall time and worker count — stripped before the
#      comparison, every numerical field compared exactly);
#   2. conservation: ddload -target drives the coordinator and every
#      accepted job must reach a terminal state exactly once (ddload
#      exits non-zero itself on lost or duplicated jobs).
#
# Usage: bash scripts/cluster_smoke.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$BIN"' EXIT
go build -o "$BIN/ddsimd" ./cmd/ddsimd
go build -o "$BIN/ddload" ./cmd/ddload

W1=18461 W2=18462 COORD=18463 SINGLE=18464

"$BIN/ddsimd" -worker -addr 127.0.0.1:$W1 &
"$BIN/ddsimd" -worker -addr 127.0.0.1:$W2 &
"$BIN/ddsimd" -addr 127.0.0.1:$COORD \
  -coordinator "http://127.0.0.1:$W1,http://127.0.0.1:$W2" &
"$BIN/ddsimd" -addr 127.0.0.1:$SINGLE &

for port in $W1 $W2 $COORD $SINGLE; do
  ok=0
  for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null; then ok=1; break; fi
    sleep 0.2
  done
  if [ "$ok" -ne 1 ]; then
    echo "ddsimd on :$port never became healthy" >&2
    exit 1
  fi
done

# submit_and_wait PORT — submits the benchmark, polls to terminal,
# prints the results array with scheduling artefacts stripped.
submit_and_wait() {
  local port=$1 id status
  id=$(curl -sf "http://127.0.0.1:$port/jobs" -d '{
    "circuit": {"name": "ghz", "n": 6},
    "backend": "dd",
    "noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001},
    "options": {"runs": 160, "seed": 11, "shots": 2, "chunk_size": 8,
                "track_states": [0, 63], "track_fidelity": true}
  }' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
  for _ in $(seq 1 150); do
    status=$(curl -sf "http://127.0.0.1:$port/jobs/$id" |
      python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
    case "$status" in
      done) break ;;
      failed|cancelled) echo "job $id on :$port ended $status" >&2; return 1 ;;
    esac
    sleep 0.2
  done
  curl -sf "http://127.0.0.1:$port/jobs/$id" | python3 -c '
import json, sys
job = json.load(sys.stdin)
assert job["status"] == "done", job["status"]
for r in job["results"]:
    # Scheduling/work artefacts, not estimates: wall time, pool size,
    # and whether trajectories forked from a prefix checkpoint.
    r.pop("elapsed_ns", None)
    r.pop("workers", None)
    r.pop("checkpointed", None)
print(json.dumps(job["results"], sort_keys=True))
'
}

echo "== bit-identity: coordinator (2 workers) vs single node"
cluster_res=$(submit_and_wait $COORD)
single_res=$(submit_and_wait $SINGLE)
if [ "$cluster_res" != "$single_res" ]; then
  echo "BIT-IDENTITY VIOLATED between cluster and single-node results" >&2
  echo "cluster: $cluster_res" >&2
  echo "single:  $single_res" >&2
  exit 1
fi
echo "   identical: $(printf '%s' "$cluster_res" | wc -c) bytes of result JSON"

echo "== leases follow the job's part plan"
# The 160-run job of chunk size 8 plans 20 chunks, one per part, so the
# coordinator granted at least 20 leases for it (more if one was lost).
granted=$(curl -s "http://127.0.0.1:$COORD/metrics" |
  awk '/^ddsim_cluster_leases_granted_total / { print $2 }')
if [ "${granted%.*}" -lt 20 ]; then
  echo "LEASES: the coordinator granted ${granted:-no} leases, want at least 20 for 20 parts" >&2
  exit 1
fi
echo "   $granted leases granted"

echo "== conservation: ddload -target against the 2-worker cluster"
"$BIN/ddload" -target "http://127.0.0.1:$COORD" -n 40 -c 8 \
  -sse 0.1 -runs 16 -qubits 5 -duration 120s -max-error-rate 0

echo "== lease-plane metrics visible on the coordinator"
# One fetch, then grep the captured text: `curl | grep -q` under
# pipefail races — grep's early exit can SIGPIPE curl and fail the
# pipeline even on a match.
metrics=$(curl -s "http://127.0.0.1:$COORD/metrics")
for metric in ddsim_cluster_leases_granted_total \
              ddsim_cluster_parts_completed_total; do
  if ! grep -q "^$metric" <<<"$metrics"; then
    echo "MISSING METRIC: $metric" >&2
    exit 1
  fi
done

echo "cluster smoke OK: bit-identical results, conservation held"
