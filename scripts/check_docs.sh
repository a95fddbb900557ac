#!/usr/bin/env bash
# check_docs.sh — documentation consistency gate, run by CI (docs job)
# and locally via `bash scripts/check_docs.sh` from the repo root.
#
# 1. Every relative markdown link in README.md and docs/*.md must
#    resolve to an existing file (anchors are stripped; external
#    http(s) links are not fetched).
# 2. Every HTTP route registered in cmd/ddsimd/server.go must be
#    documented in docs/API.md.
# 3. Every metric name registered in non-test Go under internal/ and
#    cmd/ must appear in docs/OPERATIONS.md.
# 4. Every DDSIM_* environment variable named in README.md or
#    docs/*.md must be read by non-test Go under internal/ or cmd/, so
#    a doc cannot keep advertising a deleted toggle.
# 5. Every internal/<pkg> path named in README.md or docs/*.md must be
#    an existing directory, so a doc cannot keep describing a deleted
#    package.
# 6. Every ddsim_* metric named in a docs/OPERATIONS.md table row must
#    be registered in non-test Go under internal/ or cmd/ (the reverse
#    of check 3), so the catalogue cannot keep describing a deleted
#    metric.
# 7. Every kind value in the docs/OPERATIONS.md row for
#    ddsim_checkpoints_total must appear as a CheckpointsTaken.With("…")
#    literal in non-test Go under internal/ or cmd/, so the row cannot
#    keep describing a checkpoint kind the engine no longer takes.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative link check -------------------------------------------------
# Markdown resolves relative links against the containing document's
# directory, and only there — a link that happens to resolve from the
# repo root but not from the doc is broken when rendered.
for doc in README.md docs/*.md; do
  # Extract [text](target) targets, one per line.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"          # strip anchor
    [ -z "$path" ] && continue    # pure in-page anchor
    base="$(dirname "$doc")"
    if [ ! -e "$base/$path" ]; then
      echo "BROKEN LINK: $doc -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. route coverage in docs/API.md --------------------------------------
# Routes are registered as mux.HandleFunc("METHOD /path", ...) or
# mux.Handle("METHOD /path", ...) in server.go.
routes="$(grep -oE '"(GET|POST|PUT|DELETE|PATCH) [^"]+"' cmd/ddsimd/server.go | tr -d '"' | sort -u)"
if [ -z "$routes" ]; then
  echo "NO ROUTES FOUND in cmd/ddsimd/server.go — checker broken?" >&2
  exit 1
fi
while IFS= read -r route; do
  method="${route%% *}"
  path="${route#* }"
  # Method and path must co-occur on one line (the routes table or a
  # section heading); docs/API.md writes path parameters exactly as
  # registered ({id}).
  if ! awk -v m="$method" -v p="$path" 'index($0, m) && index($0, p) { found = 1 } END { exit !found }' docs/API.md; then
    echo "UNDOCUMENTED ROUTE: $method $path missing from docs/API.md" >&2
    fail=1
  fi
done <<< "$routes"

# --- 3. metric coverage in docs/OPERATIONS.md -------------------------------
# Metrics are registered by name as "ddsim_..." string literals.
metrics="$(grep -rhoE --include='*.go' --exclude='*_test.go' '"ddsim_[a-z0-9_]+"' internal cmd | tr -d '"' | sort -u)"
if [ -z "$metrics" ]; then
  echo "NO METRICS FOUND under internal/ and cmd/ — checker broken?" >&2
  exit 1
fi
while IFS= read -r metric; do
  # The name must be followed by a non-name character, so a metric is
  # not covered by a longer one it prefixes.
  if ! grep -qE "${metric}([^a-z0-9_]|\$)" docs/OPERATIONS.md; then
    echo "UNDOCUMENTED METRIC: $metric missing from docs/OPERATIONS.md" >&2
    fail=1
  fi
done <<< "$metrics"

# --- 4. documented environment variables exist ------------------------------
envvars="$(grep -hoE 'DDSIM_[A-Z0-9_]+' README.md docs/*.md | sort -u || true)"
for v in $envvars; do
  if ! grep -rqw --include='*.go' --exclude='*_test.go' "$v" internal cmd; then
    echo "STALE ENV VAR: $v is documented but no non-test Go under internal/ or cmd/ mentions it" >&2
    fail=1
  fi
done

# --- 5. documented internal packages exist -----------------------------------
pkgs="$(grep -hoE 'internal/[a-z0-9_]+' README.md docs/*.md | sort -u || true)"
for p in $pkgs; do
  if [ ! -d "$p" ]; then
    echo "STALE PACKAGE: $p is documented but is not a directory" >&2
    fail=1
  fi
done

# --- 6. documented metrics are registered ------------------------------------
# Histogram series suffixes are stripped ({label} parts never match the
# name pattern), leaving the registered name.
documented="$(grep -E '^\|' docs/OPERATIONS.md | grep -oE 'ddsim_[a-z0-9_]+' \
  | sed -E 's/_(bucket|sum|count|p50|p95|p99)$//' | sort -u || true)"
for m in $documented; do
  if ! grep -qx "$m" <<< "$metrics"; then
    echo "STALE METRIC: $m is in a docs/OPERATIONS.md table but no non-test Go under internal/ or cmd/ registers it" >&2
    fail=1
  fi
done

# --- 7. documented checkpoint kinds are emitted -----------------------------
# The kinds are the backquoted words of the row's Meaning column.
row="$(grep -E '^\| `ddsim_checkpoints_total\{kind\}`' docs/OPERATIONS.md || true)"
kinds="$(cut -d'|' -f4- <<< "$row" | grep -oE '`[a-z0-9_]+`' | tr -d '`' | sort -u || true)"
if [ -z "$kinds" ]; then
  echo "NO CHECKPOINT KINDS FOUND in the docs/OPERATIONS.md row for ddsim_checkpoints_total — checker broken?" >&2
  exit 1
fi
emitted="$(grep -rhoE --include='*.go' --exclude='*_test.go' 'CheckpointsTaken\.With\("[a-z0-9_]+"\)' internal cmd \
  | sed -E 's/.*"([a-z0-9_]+)".*/\1/' | sort -u || true)"
for k in $kinds; do
  if ! grep -qx "$k" <<< "$emitted"; then
    echo "STALE CHECKPOINT KIND: $k is in the docs/OPERATIONS.md row for ddsim_checkpoints_total but no non-test Go under internal/ or cmd/ uses CheckpointsTaken.With(\"$k\")" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED" >&2
  exit 1
fi
echo "docs check OK: links resolve, all $(wc -l <<< "$routes") ddsimd routes and $(wc -l <<< "$metrics") metrics documented"
