// Command ddsimd is the long-running stochastic-simulation service: an
// HTTP/JSON API over the same Monte-Carlo engine the CLIs use, with
// durable job persistence, a content-addressed result cache,
// admission control and live telemetry in Prometheus text format.
// The full HTTP reference lives in docs/API.md and the deployment
// runbook in docs/OPERATIONS.md.
//
// Endpoints:
//
//	POST   /jobs             submit a simulation job (JSON body below);
//	                         429 + Retry-After under admission control
//	GET    /jobs             list jobs, newest last
//	GET    /jobs/{id}        job status; includes results once finished
//	DELETE /jobs/{id}        cancel; completed trajectories are kept and
//	                         returned as a partial result (Interrupted).
//	                         On an already-finished job: no-op 200
//	GET    /jobs/{id}/events live progress stream (server-sent events:
//	                         "progress" snapshots, then one "result")
//	GET    /metrics          Prometheus metrics (jobs, trajectories,
//	                         cache and store activity, DD table hit
//	                         rates, per-backend wall time)
//	GET    /healthz          liveness probe
//
// A submission selects a circuit (inline OpenQASM 2.0 or a built-in
// benchmark family), a backend, a noise point — optionally swept over
// several scale factors through one shared worker pool — the engine
// options (runs, seed, shots, adaptive stopping, checkpointing, ...)
// and an optional "priority" (±100; higher starts sooner when
// simulation slots are contended):
//
//	curl -s localhost:8344/jobs -d '{
//	  "circuit": {"name": "ghz", "n": 16},
//	  "backend": "dd",
//	  "noise":   {"depolarizing": 0.001, "damping": 0.002,
//	              "phase_flip": 0.001, "damping_as_event": true},
//	  "options": {"runs": 2000, "seed": 1},
//	  "priority": 10
//	}'
//
//	curl -s localhost:8344/jobs/j1
//	curl -N localhost:8344/jobs/j1/events
//	curl -s -X DELETE localhost:8344/jobs/j1
//	curl -s localhost:8344/metrics
//
// Durability: with -data-dir set, every accepted submission and every
// final result is persisted (JSON records plus an fsync'd write-ahead
// log of status transitions). A restart — graceful or kill -9 —
// replays the store: finished jobs are served from disk and jobs that
// were queued or running are re-queued and re-run to bit-identical
// same-seed results. Without -data-dir the service is ephemeral.
//
// Caching: a simulation is a pure function of its canonical job key
// (circuit text, backend, noise points, seed-relevant options — see
// ddsim.JobKey), so finished results are cached in memory (LRU,
// bounded by -cache-entries and -cache-mb) and identical in-flight
// submissions run once and fan out ("cached": true in the job view;
// ddsim_rescache_* metrics count hits, misses, dedup joins, bytes and
// evictions).
//
// Admission control: per-client token-bucket rate limiting
// (-rate-limit, -rate-burst) and a bounded unfinished-job queue
// (-max-pending) both answer 429 with a Retry-After header when
// exceeded.
//
// Concurrency model: every job runs its noise points through one
// shared worker pool of -workers goroutines (the engine's
// BatchSimulate); at most -max-active jobs simulate at once and the
// rest queue in priority order (ties by submission order). Ctrl-C /
// SIGTERM drains cleanly: running jobs are cancelled and report
// partial results (and, with -data-dir, are re-queued on the next
// start).
//
// Cluster modes: with -worker the process is a stateless computation
// worker serving only the /work lease endpoints (POST /work/lease,
// /work/heartbeat, /work/complete) plus /metrics and /healthz; with
// -coordinator <urls> the job API is unchanged but every stochastic
// job's chunk ranges are leased to the listed workers under
// heartbeat-renewed fencing tokens and merged bit-identically to
// local simulation (-lease-ttl, -lease-heartbeat, -lease-chunks tune
// the leases; see docs/OPERATIONS.md for the cluster runbook).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ddsim/internal/cluster"
	"ddsim/internal/jobstore"
	"ddsim/internal/rescache"
)

// splitURLs parses the -coordinator worker list: comma-separated base
// URLs, surrounding space and trailing slashes trimmed.
func splitURLs(list string) []string {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		maxActive  = flag.Int("max-active", 2, "jobs simulating concurrently; further jobs queue in priority order")
		workers    = flag.Int("workers", 0, "worker-pool size per job (0 = all cores)")
		maxRuns    = flag.Int("max-runs", 10_000_000, "largest accepted per-point trajectory budget (0 = unlimited)")
		maxJobs    = flag.Int("max-jobs", 256, "retained jobs; the oldest finished jobs (and their results) are evicted beyond this (0 = unlimited)")
		maxPending = flag.Int("max-pending", 128, "unfinished jobs accepted before submissions are shed with 429 (0 = unlimited)")
		dataDir    = flag.String("data-dir", "", "job-store directory; empty disables persistence (jobs and results do not survive restarts)")
		cacheSize  = flag.Int("cache-entries", 1024, "result-cache entry bound (with -cache-mb 0 too: dedup-only mode)")
		cacheMB    = flag.Int("cache-mb", 256, "result-cache payload bound in MiB")
		rateLimit  = flag.Float64("rate-limit", 0, "per-client submissions per second (0 = unlimited)")
		rateBurst  = flag.Int("rate-burst", 10, "per-client submission burst capacity")
		keepalive  = flag.Duration("sse-keepalive", defaultSSEKeepalive, "keepalive-comment cadence on idle event streams (0 disables)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "result-cache entry lifetime; expired entries are swept periodically (0 = entries never age out)")
		compactEvr = flag.Duration("compact-every", 10*time.Minute, "jobstore WAL compaction cadence (0 disables; needs -data-dir)")

		// Cluster modes (see cluster.go and docs/OPERATIONS.md).
		workerMode  = flag.Bool("worker", false, "run as a stateless cluster worker: serve only the /work lease endpoints (plus /metrics and /healthz) and compute chunk ranges leased by a coordinator")
		coordinator = flag.String("coordinator", "", "comma-separated worker base URLs (e.g. http://h1:8345,http://h2:8345); run the job API as a cluster coordinator leasing every stochastic job's chunk ranges to these workers — results stay bit-identical to local simulation")
		leaseTTL    = flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "coordinator: lease lifetime without a heartbeat renewal; an expired lease is reassigned and re-simulated")
		leaseHB     = flag.Duration("lease-heartbeat", 0, "coordinator: heartbeat/renewal cadence per lease (0 = lease-ttl/3)")
		leaseChunks = flag.Int("lease-chunks", cluster.DefaultLeaseChunks, "coordinator: consecutive chunks per lease")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode && *coordinator != "" {
		fmt.Fprintln(os.Stderr, "ddsimd: -worker and -coordinator are mutually exclusive")
		os.Exit(1)
	}
	if *workerMode {
		runWorker(ctx, *addr)
		return
	}

	s := newServer(ctx, *maxActive, *workers, *maxRuns)
	if *coordinator != "" {
		cfg := cluster.Config{
			Workers:        splitURLs(*coordinator),
			LeaseTTL:       *leaseTTL,
			HeartbeatEvery: *leaseHB,
			LeaseChunks:    *leaseChunks,
			DataDir:        *dataDir,
		}
		if _, err := cluster.New(cfg); err != nil { // validate eagerly
			fmt.Fprintln(os.Stderr, "ddsimd:", err)
			os.Exit(1)
		}
		s.clusterCfg = &cfg
	}
	s.maxJobs = *maxJobs
	s.maxPending = *maxPending
	s.sseKeepalive = *keepalive
	s.compactEvery = *compactEvr
	s.cache = rescache.New(*cacheSize, int64(*cacheMB)<<20)
	s.cache.SetTTL(*cacheTTL)
	if *rateLimit > 0 {
		s.limiter = newRateLimiter(*rateLimit, *rateBurst)
	}
	if *dataDir != "" {
		store, err := jobstore.Open(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddsimd:", err)
			os.Exit(1)
		}
		s.store = store
		served, requeued := s.restore()
		fmt.Fprintf(os.Stderr, "ddsimd: store %s: restored %d finished jobs, re-queued %d in-flight jobs\n",
			*dataDir, served, requeued)
	}
	s.startMaintenance()
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.handler(),
		// No write timeout: /jobs/{id}/events streams indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ddsimd: listening on %s (max-active=%d workers=%d data-dir=%q)\n",
		*addr, *maxActive, *workers, *dataDir)

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, cancel jobs (ctx is the
		// jobs' parent), wait for them to flush partial results. With
		// a store attached, in-flight jobs keep their queued/running
		// status on disk and resume on the next start.
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		s.wait()
		s.close()
		if s.store != nil {
			_ = s.store.Close()
		}
		fmt.Fprintln(os.Stderr, "ddsimd: drained, bye")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ddsimd:", err)
			os.Exit(1)
		}
	}
}
