#!/usr/bin/env bash
# check_coverage.sh — test-coverage ratchet, run by CI (coverage job)
# and locally via `bash scripts/check_coverage.sh` from the repo root.
#
# Runs `go test -coverprofile` across the tree, compares the total
# statement coverage against the checked-in baseline
# (scripts/coverage_baseline.txt) and fails when it drops more than
# SLACK percentage points below it — the ratchet: coverage may only
# stay or grow. Per-package deltas against the baseline are printed
# either way, so a regression names its package.
#
# When coverage improves, refresh the baseline with:
#   bash scripts/check_coverage.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

profile="${COVER_PROFILE:-coverage.out}"
baseline_file=scripts/coverage_baseline.txt
# Tolerated drop in percentage points: absorbs scheduling-dependent
# lines (progress callbacks, GC paths) without letting real
# regressions through.
SLACK=0.7

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
fi

go test -count=1 -coverprofile="$profile" ./... > /dev/null

# Per-package coverage from the merged profile. Duplicate blocks (a
# file exercised by several test binaries) are deduplicated by block
# id, keeping the maximum hit count.
current="$(awk '
  NR > 1 {
    split($0, f, ":"); file = f[1]
    pkg = file; sub(/\/[^\/]*$/, "", pkg)
    n = split($0, w, " ")
    stmts = w[n-1]; cnt = w[n]
    key = $1
    if (!(key in seen)) { seen[key] = 1; stmt[key] = stmts; kpkg[key] = pkg }
    if (cnt > hit[key]) hit[key] = cnt
  }
  END {
    for (k in seen) {
      tot[kpkg[k]] += stmt[k]; ctot += stmt[k]
      if (hit[k] > 0) { cov[kpkg[k]] += stmt[k]; ccov += stmt[k] }
    }
    for (p in tot) printf "%s %.1f\n", p, 100 * cov[p] / tot[p]
    printf "total %.1f\n", 100 * ccov / ctot
  }' "$profile" | sort)"

if [ "$update" -eq 1 ] || [ ! -f "$baseline_file" ]; then
  echo "$current" > "$baseline_file"
  echo "coverage baseline written to $baseline_file:"
  echo "$current"
  exit 0
fi

echo "package coverage vs baseline:"
fail=0
total_cur=""
total_base=""
while read -r pkg cur; do
  base="$(awk -v p="$pkg" '$1 == p { print $2 }' "$baseline_file")"
  if [ -z "$base" ]; then
    printf "  %-40s %6.1f%%   (new package)\n" "$pkg" "$cur"
    continue
  fi
  delta="$(awk -v c="$cur" -v b="$base" 'BEGIN { printf "%+.1f", c - b }')"
  printf "  %-40s %6.1f%%  baseline %6.1f%%  (%s)\n" "$pkg" "$cur" "$base" "$delta"
  if [ "$pkg" = "total" ]; then
    total_cur="$cur"
    total_base="$base"
  fi
done <<< "$current"
# Baseline packages the tree no longer has are listed, not skipped:
# a deleted package leaves the total's denominator, which moves it.
awk 'NR == FNR { cur[$1]; next }
  !($1 in cur) { printf "  %-40s         baseline %6.1f%%  (removed package)\n", $1, $2 }' \
  <(echo "$current") "$baseline_file"

if [ -z "$total_cur" ] || [ -z "$total_base" ]; then
  echo "coverage check BROKEN: no total computed" >&2
  exit 1
fi

if awk -v c="$total_cur" -v b="$total_base" -v s="$SLACK" 'BEGIN { exit !(c < b - s) }'; then
  echo "coverage check FAILED: total ${total_cur}% is more than ${SLACK}pt below the ${total_base}% baseline" >&2
  echo "(raise coverage, or — if the drop is intended and reviewed — refresh with scripts/check_coverage.sh --update)" >&2
  exit 1
fi
if awk -v c="$total_cur" -v b="$total_base" 'BEGIN { exit !(c > b + 1) }'; then
  echo "coverage improved to ${total_cur}%; consider ratcheting: bash scripts/check_coverage.sh --update"
fi
echo "coverage check OK: total ${total_cur}% (baseline ${total_base}%, slack ${SLACK}pt)"
