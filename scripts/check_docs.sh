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
# 8. Every job-key generation token (ddsim-job-v<N>, "v<N> appendix",
#    "v<N> cache-key appendix", StreamVersion) named in README.md,
#    docs/*.md or .claude/skills/verify/SKILL.md must occur in non-test
#    Go under the repo root, internal/ or cmd/, so a doc cannot keep
#    describing a key format the code no longer writes.
# 9. Every paragraph of README.md, docs/*.md or
#    .claude/skills/verify/SKILL.md that names jobs/<id>.json or
#    results/<id>.json must say it describes an "older" layout: the
#    job store writes records and results inline in wal.log, so a doc
#    cannot keep describing per-job files as written.
# 10. Every paragraph of README.md, docs/*.md or
#    .claude/skills/verify/SKILL.md that names the -checkpoint flag,
#    Options.Checkpointing or Checkpoint{Auto,On,Off} must say
#    "removed": a job forks whenever its backend can, so a doc cannot
#    keep offering the knob as a choice.
# 11. No non-test Go outside internal/swiss may declare a swiss
#    control-word slice (a `ctrl []uint64` field or variable): the DD
#    unique tables and the weight cell directory are instances of
#    swiss.Table, so a hand-rolled probe table elsewhere is a second
#    copy of it.
# 12. Every backticked Test…, Fuzz…, Benchmark… or Example… name in
#    README.md or docs/*.md (brace lists such as
#    `BenchmarkUniqueTable{Hit,Miss,GC}` expanded) must be declared in
#    a _test.go file, and every paragraph of README.md or docs/*.md
#    that says "bit-identical" must name, in backticks, a Test… or
#    Fuzz… function that checks it, so a determinism claim cannot
#    outlive, or go without, its test. The same holds for comments in
#    non-test Go outside benchmark/ (a module of its own): a comment
#    paragraph — consecutive // lines up to a bare // — that says
#    "bit-identical" or "bit for bit" must name a Test… function that
#    a _test.go file declares.
# 13. "MPSC", "disruptor", "Vyukov" and "lock-free dispatch" appear
#    nowhere in README.md, docs/*.md or non-test Go outside benchmark/:
#    ddsimd's dispatcher is one mutex-guarded heap, so a doc or comment
#    cannot keep describing the submit ring it replaced.
# 14. Non-test Go under internal/stochastic declares no `type
#    accumulator` and no `func runOne`, and ranges over a Counts or
#    Classical histogram with key and value — merging it into a total —
#    only inside `func reduce`: ChunkSum is the one partial sum, reduce
#    the one reduction both executors share, and the ckptRunner the one
#    noise-free walker.
# 15. Every paragraph of README.md, docs/*.md or non-test Go outside
#    benchmark/ that names Options.ExactBackend, ExactBackends(), the
#    -exact-backend flag or an input options.exact_backend (the literal
#    path, or a JSON "options" block holding "exact_backend") must say
#    "removed": exact mode picks dense ρ or the density DD from the
#    circuit, so neither a doc nor a comment can keep offering the
#    representation as a choice. The result's "exact_backend" echo and
#    Result.ExactBackend stay allowed.
# 16. Exact mode has one kernel, the trajectory backends' (vec(ρ) on
#    2n qubits, internal/exact): internal/ddensity must not exist,
#    non-test Go under internal/dd must not declare ConjugateTranspose
#    or Kron (the matrix-DD engine's operations, and their caches), and
#    no non-test Go file may import ddsim/internal/density, the dense
#    test oracle that must stay independent of the code it checks.
# 17. The part plan is a function of the job, and dead API stays dead:
#    "lease-chunks" and "LeaseChunks" appear nowhere in non-test Go,
#    docs/ or scripts/ (this file aside); non-test Go under
#    internal/stochastic declares no Deterministic; non-test Go under
#    internal/density declares no MeasureProject, ProbOne, Clone, Mix
#    or Scale method, and none under internal/dd declares MNodeCount.
# 18. The job store reads one format, the result cache has no TTL and
#    a batch runs one mode: "loadLegacy", "removeLegacy", "SetTTL",
#    "cache-ttl" and "ddsim_rescache_ttl_evictions_total" appear
#    nowhere in non-test Go, docs/ or scripts/ (this file aside), and
#    ddsim.go does not say that batches "may mix modes".
# 19. ddsimd's flags and its one result store: every `-flag` row of
#    the docs/OPERATIONS.md "## Flags" table is registered in
#    cmd/ddsimd/main.go and every flag registered there has a row;
#    and "internal/rescache", "rescache.", "cache-entries",
#    "cache-mb", "ddsim_rescache_evictions_total",
#    "ddsim_rescache_entries" and "ddsim_rescache_bytes" appear nowhere
#    in non-test Go, docs/ or scripts/ (this file aside): the job table
#    answers cache hits, so neither a second cache nor its bounds may
#    come back.
# 20. One job state machine and one token source: non-test Go in
#    cmd/ddsimd has exactly one `&job{` literal, and writes a job's
#    `.status`, closes `j.done` and moves the JobsQueued, JobsRunning
#    or JobsDone telemetry only in cmd/ddsimd/lifecycle.go; and
#    "internal/clusterid" and "clusterid." appear nowhere in non-test
#    Go, docs/ or scripts/ (this file aside): fencing tokens come from
#    one counter in internal/cluster.
# 21. One pooled unit per DD package: non-test Go under internal/dd
#    and internal/cnum uses no sync.Pool, and the deleted pool and
#    channel-key names appear nowhere in non-test Go or docs/.
# 22. One streamed request per lease: "/work/lease", "/work/heartbeat",
#    "/work/complete", "-lease-heartbeat", "HeartbeatEvery",
#    "DropHeartbeats", "workerTask", "maxWorkerTasks" and "evictLocked"
#    appear nowhere in non-test Go, README.md, docs/ or scripts/ (this
#    file aside): a worker answers POST /work/run with its part's sums,
#    so neither the polling routes, their cadence knob nor the worker's
#    task table may come back.
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

# --- 8. documented job-key generations exist --------------------------------
keydocs="README.md docs/*.md"
[ -f .claude/skills/verify/SKILL.md ] && keydocs="$keydocs .claude/skills/verify/SKILL.md"
# shellcheck disable=SC2086 # keydocs is a word list of paths
keytokens="$(grep -hoE 'ddsim-job-v[0-9]+|v[0-9]+ (cache-key )?appendix|StreamVersion' $keydocs | sort -u || true)"
gosrc="$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go'; find internal cmd -name '*.go' ! -name '*_test.go')"
while IFS= read -r tok; do
  [ -z "$tok" ] && continue
  # shellcheck disable=SC2086 # gosrc is a word list of paths
  if ! grep -qF -- "$tok" $gosrc; then
    echo "STALE JOB-KEY TOKEN: '$tok' is documented but no non-test Go under the repo root, internal/ or cmd/ mentions it" >&2
    fail=1
  fi
done <<< "$keytokens"

# --- 9. per-job store files are documented only as the older layout --------
# Paragraph mode (blank-line separated), so a sentence wrapped across
# lines is judged whole.
# shellcheck disable=SC2086 # keydocs is a word list of paths
if ! awk 'BEGIN { RS = "" }
  /(jobs|results)\/<id>\.json/ && !/older/ {
    printf "PER-JOB STORE FILE: %s documents %s as written; the job store writes only wal.log (say \"older\" if describing the old layout)\n", FILENAME, ($0 ~ /jobs\/<id>/ ? "jobs/<id>.json" : "results/<id>.json") > "/dev/stderr"
    bad = 1
  }
  END { exit bad }' $keydocs; then
  fail=1
fi

# --- 10. the checkpointing knob is documented only as removed --------------
# shellcheck disable=SC2086 # keydocs is a word list of paths
if ! awk 'BEGIN { RS = "" }
  /(^|[^a-z-])-checkpoint([^a-z]|$)|Options\.Checkpointing|Checkpoint(Auto|On|Off)/ && !/removed/ {
    printf "CHECKPOINTING KNOB: a paragraph of %s offers -checkpoint, Options.Checkpointing or Checkpoint{Auto,On,Off}; jobs fork whenever the backend can (say \"removed\" if describing the old knob)\n", FILENAME > "/dev/stderr"
    bad = 1
  }
  END { exit bad }' $keydocs; then
  fail=1
fi

# --- 11. one swiss table ------------------------------------------------------
ctrlsrc="$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/swiss/*' ! -path './.bench_build/*')"
# shellcheck disable=SC2086 # ctrlsrc is a word list of paths
if ctrldecl="$(grep -nE 'ctrl +\[\]uint64' $ctrlsrc)"; then
  while IFS= read -r hit; do
    echo "HAND-ROLLED SWISS TABLE: $hit declares a control-word slice; use swiss.Table" >&2
  done <<< "$ctrldecl"
  fail=1
fi

# --- 12. named tests exist; bit-identity claims name their test ------------
testsrc="$(find . -name '*_test.go' ! -path './.bench_build/*')"
# shellcheck disable=SC2086 # testsrc is a word list of paths
declared="$(grep -hoE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' $testsrc | sed 's/^func //' | sort -u)"
testnames="$(grep -hoE '`[^`]+`' README.md docs/*.md \
  | grep -oE '(Test|Fuzz|Benchmark|Example)[A-Z0-9_{][A-Za-z0-9_]*(\{[A-Za-z0-9_,]*\}[A-Za-z0-9_]*)?' \
  | awk '{
      if (match($0, /\{[^}]*\}/)) {
        pre = substr($0, 1, RSTART - 1); post = substr($0, RSTART + RLENGTH)
        n = split(substr($0, RSTART + 1, RLENGTH - 2), alt, ",")
        for (i = 1; i <= n; i++) print pre alt[i] post
      } else print
    }' | sort -u || true)"
for name in $testnames; do
  if ! grep -qx "$name" <<< "$declared"; then
    echo "UNKNOWN TEST: \`$name\` is named in README.md or docs/*.md but no _test.go file declares it" >&2
    fail=1
  fi
done
if ! awk 'BEGIN { RS = "" }
  /bit-identical/ && !/`[^`]*(Test|Fuzz)[A-Z0-9_][A-Za-z0-9_]*[^`]*`/ {
    line = $0; sub(/\n.*/, "", line)
    printf "UNTESTED BIT-IDENTITY CLAIM: a paragraph of %s says \"bit-identical\" but names no test in backticks: %s\n", FILENAME, line > "/dev/stderr"
    bad = 1
  }
  END { exit bad }' README.md docs/*.md; then
  fail=1
fi

gosrc_nt="$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*')"
# shellcheck disable=SC2086 # gosrc_nt is a word list of paths
if ! awk 'NR == FNR { declared[$0] = 1; next }
  function flush() {
    if (para ~ /bit-identical|bit for bit/) {
      named = 0; rest = para
      while (match(rest, /Test[A-Z0-9_][A-Za-z0-9_]*/)) {
        if (substr(rest, RSTART, RLENGTH) in declared) named = 1
        rest = substr(rest, RSTART + RLENGTH)
      }
      if (!named) {
        printf "UNTESTED BIT-IDENTITY CLAIM: the comment paragraph at %s:%d-%d says \"bit-identical\" or \"bit for bit\" but names no declared Test… function\n", prevfile, start, end > "/dev/stderr"
        bad = 1
      }
    }
    para = ""
  }
  FNR == 1 { flush(); prevfile = FILENAME }
  /^[ \t]*\/\// {
    text = $0; sub(/^[ \t]*\/\/[ \t]*/, "", text)
    if (text == "") { flush(); next }
    if (para == "") start = FNR
    end = FNR
    para = para " " text
    next
  }
  { flush() }
  END { flush(); exit bad }' <(grep '^Test' <<< "$declared") $gosrc_nt; then
  fail=1
fi

# --- 13. no submit-ring vocabulary --------------------------------------------
# shellcheck disable=SC2086 # gosrc_nt is a word list of paths
if ringhits="$(grep -niE 'MPSC|disruptor|Vyukov|lock-free dispatch' README.md docs/*.md $gosrc_nt)"; then
  while IFS= read -r hit; do
    echo "SUBMIT-RING VOCABULARY: $hit; the dispatcher is one mutex-guarded heap" >&2
  done <<< "$ringhits"
  fail=1
fi

# --- 14. one partial sum, one reducer, one walker -----------------------------
stochsrc="$(find internal/stochastic -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086 # stochsrc is a word list of paths
if dups="$(grep -nE '^type accumulator\b|^func runOne\(' $stochsrc)"; then
  while IFS= read -r hit; do
    echo "SECOND PARTIAL SUM OR WALKER: $hit; use ChunkSum and reduce, or the ckptRunner" >&2
  done <<< "$dups"
  fail=1
fi
# shellcheck disable=SC2086 # stochsrc is a word list of paths
if ! awk '
  /^func / { fn = $0 }
  /for [a-z][A-Za-z0-9_]*, [a-z][A-Za-z0-9_]* := range [A-Za-z_.]*\.([Cc]ounts|[Cc]lassical) \{/ && fn !~ /^func reduce\(/ {
    printf "SECOND REDUCTION: %s:%d merges a histogram outside func reduce\n", FILENAME, FNR > "/dev/stderr"
    bad = 1
  }
  END { exit bad }' $stochsrc; then
  fail=1
fi

# --- 15. the exact-representation knob is documented only as removed -------
# shellcheck disable=SC2086 # gosrc_nt is a word list of paths
if ! awk 'BEGIN { RS = "" }
  (/Options\.ExactBackend|ExactBackends\(\)|(^|[^a-z-])-exact-backend([^a-z]|$)|options\.exact_backend/ ||
   (/"options": *\{/ && /"exact_backend"/)) && !/removed/ {
    printf "EXACT-BACKEND KNOB: a paragraph of %s offers Options.ExactBackend, ExactBackends(), -exact-backend or options.exact_backend; exact mode picks the representation from the circuit (say \"removed\" if describing the old knob)\n", FILENAME > "/dev/stderr"
    bad = 1
  }
  END { exit bad }' README.md docs/*.md $gosrc_nt; then
  fail=1
fi

# --- 16. one exact kernel; the dense oracle is test-only ---------------------
if [ -e internal/ddensity ]; then
  echo "SECOND EXACT ENGINE: internal/ddensity exists; exact mode runs vec(ρ) on the trajectory backends (internal/exact)" >&2
  fail=1
fi
ddsrc="$(find internal/dd -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086 # ddsrc is a word list of paths
if mmops="$(grep -nE '^func \([^)]*\) (ConjugateTranspose|Kron)\(' $ddsrc)"; then
  while IFS= read -r hit; do
    echo "MATRIX-DD ENGINE OP: $hit; exact mode needs no adjoint or Kronecker product" >&2
  done <<< "$mmops"
  fail=1
fi
allsrc_nt="$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*')"
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if oracle="$(grep -nE '"ddsim/internal/density"' $allsrc_nt)"; then
  while IFS= read -r hit; do
    echo "DENSE ORACLE IN PRODUCT CODE: $hit; internal/density is a test oracle, use internal/exact" >&2
  done <<< "$oracle"
  fail=1
fi

# --- 17. one part plan; the deleted API stays deleted -------------------------
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if knob="$(grep -nE 'lease-chunks|LeaseChunks' $allsrc_nt docs/*.md $(find scripts -type f ! -name check_docs.sh))"; then
  while IFS= read -r hit; do
    echo "LEASE-SIZE KNOB: $hit; a lease is one part of the job's ChunkPlan" >&2
  done <<< "$knob"
  fail=1
fi
densrc="$(find internal/density -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086 # stochsrc, densrc and ddsrc are word lists of paths
dead="$(grep -nHE '^func Deterministic\(' $stochsrc || true
  grep -nHE '^func \([^)]*\) (MeasureProject|ProbOne|Clone|Mix|Scale)\(' $densrc || true
  grep -nHE '^func \([^)]*\) MNodeCount\(' $ddsrc || true)"
if [ -n "$dead" ]; then
  while IFS= read -r hit; do
    echo "DELETED API DECLARED AGAIN: $hit" >&2
  done <<< "$dead"
  fail=1
fi

# --- 18. one store format, no cache TTL, one mode per batch -----------------
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if dead="$(grep -nE 'loadLegacy|removeLegacy|SetTTL|cache-ttl|ddsim_rescache_ttl_evictions_total' $allsrc_nt docs/*.md $(find scripts -type f ! -name check_docs.sh))"; then
  while IFS= read -r hit; do
    echo "DELETED STORE READER OR CACHE TTL: $hit; the job store refuses the older layout and cached results never age out" >&2
  done <<< "$dead"
  fail=1
fi
if mixed="$(grep -niE 'may mix modes' ddsim.go)"; then
  while IFS= read -r hit; do
    echo "MIXED-MODE BATCH: ddsim.go:$hit; BatchSimulate refuses a batch that mixes modes" >&2
  done <<< "$mixed"
  fail=1
fi

# --- 19. the flag table matches main.go; one result store -------------------
flagrows="$(awk '/^## / { inflags = ($0 == "## Flags") } inflags' docs/OPERATIONS.md \
  | grep -oE '^\| `-[a-z0-9-]+`' | sed -E 's/^\| `-//; s/`$//' | sort -u || true)"
registered="$(grep -oE 'flag\.[A-Za-z0-9]+\("[a-z0-9-]+"' cmd/ddsimd/main.go | sed -E 's/.*\("//; s/"$//' | sort -u)"
if [ -z "$flagrows" ] || [ -z "$registered" ]; then
  echo "NO DDSIMD FLAGS FOUND in docs/OPERATIONS.md or cmd/ddsimd/main.go — checker broken?" >&2
  exit 1
fi
while IFS= read -r f; do
  echo "UNREGISTERED FLAG: -$f has a row in the docs/OPERATIONS.md flag table but cmd/ddsimd/main.go does not register it" >&2
  fail=1
done < <(comm -23 <(echo "$flagrows") <(echo "$registered"))
while IFS= read -r f; do
  echo "UNDOCUMENTED FLAG: cmd/ddsimd/main.go registers -$f but the docs/OPERATIONS.md flag table has no row for it" >&2
  fail=1
done < <(comm -13 <(echo "$flagrows") <(echo "$registered"))
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if dead="$(grep -nE 'internal/rescache|rescache\.|cache-entries|cache-mb|ddsim_rescache_(evictions_total|entries|bytes)' $allsrc_nt docs/*.md $(find scripts -type f ! -name check_docs.sh))"; then
  while IFS= read -r hit; do
    echo "SECOND RESULT STORE: $hit; retained jobs answer cache hits and -max-jobs bounds them" >&2
  done <<< "$dead"
  fail=1
fi

# --- 20. one job state machine; one token source ----------------------------
ddsimdsrc="$(find cmd/ddsimd -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086 # ddsimdsrc is a word list of paths
literals="$(cat $ddsimdsrc | grep -o '&job{' | wc -l)"
if [ "$literals" -ne 1 ]; then
  echo "SECOND JOB CONSTRUCTOR: non-test Go in cmd/ddsimd has $literals &job{ literals, want 1 (newJob)" >&2
  fail=1
fi
# shellcheck disable=SC2086 # ddsimdsrc is a word list of paths
if edges="$(grep -nE '\.status = |close\(j\.done\)|Jobs(Queued|Running|Done)\.(Inc|Dec|Add|Set|With)\(' $ddsimdsrc | grep -v '^cmd/ddsimd/lifecycle\.go:')"; then
  while IFS= read -r hit; do
    echo "LIFECYCLE EDGE OUTSIDE lifecycle.go: $hit; use setStatusLocked, admit or settle" >&2
  done <<< "$edges"
  fail=1
fi
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if dead="$(grep -nE 'internal/clusterid|clusterid\.' $allsrc_nt docs/*.md $(find scripts -type f ! -name check_docs.sh))"; then
  while IFS= read -r hit; do
    echo "DELETED TOKEN GENERATOR: $hit; fencing tokens come from internal/cluster's counter" >&2
  done <<< "$dead"
  fail=1
fi

# --- 21. one pooled unit per DD package; no dead channel keys ---------------
kernelsrc="$(find internal/dd internal/cnum -name '*.go' ! -name '*_test.go')"
# shellcheck disable=SC2086 # kernelsrc is a word list of paths
if pools="$(grep -nH 'sync\.Pool' $kernelsrc)"; then
  while IFS= read -r hit; do
    echo "SYNC.POOL IN THE DD KERNEL: $hit; a package's memory is one unit on its register class's free list" >&2
  done <<< "$pools"
  fail=1
fi
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if dead="$(grep -nE 'vSlabPool|mSlabPool|valueSlabPool|cellTablePool|putCellTable|chanKeys|buildKey' $allsrc_nt docs/*.md)"; then
  while IFS= read -r hit; do
    echo "DELETED POOL OR CHANNEL KEY: $hit; slabs and directories stay in their package's unit, and channels carry no cache key" >&2
  done <<< "$dead"
  fail=1
fi

# --- 22. one streamed request per lease ---------------------------------------
# shellcheck disable=SC2086 # allsrc_nt is a word list of paths
if dead="$(grep -nE '/work/(lease|heartbeat|complete)|lease-heartbeat|HeartbeatEvery|DropHeartbeats|workerTask|maxWorkerTasks|evictLocked' $allsrc_nt README.md docs/*.md $(find scripts -type f ! -name check_docs.sh))"; then
  while IFS= read -r hit; do
    echo "LEASE POLLING: $hit; a lease is one POST /work/run whose stream carries keepalives and the part's sums" >&2
  done <<< "$dead"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED" >&2
  exit 1
fi
echo "docs check OK: links resolve, all $(wc -l <<< "$routes") ddsimd routes and $(wc -l <<< "$metrics") metrics documented"
