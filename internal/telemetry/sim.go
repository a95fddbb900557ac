package telemetry

import "fmt"

// Standard simulator instruments, shared by the stochastic engine, the
// CLIs and the ddsimd service. All live in the Default registry.
var (
	// Trajectories counts Monte-Carlo trajectories completed across
	// every simulation in the process.
	Trajectories = NewCounter("ddsim_trajectories_total",
		"Monte-Carlo trajectories completed.")

	// BackendSeconds accumulates per-backend simulation wall time.
	BackendSeconds = NewFloatCounterVec("ddsim_backend_seconds_total",
		"Wall-clock simulation time per backend.", "backend")

	// BackendJobs counts finished simulation jobs per backend.
	BackendJobs = NewCounterVec("ddsim_backend_jobs_total",
		"Simulation jobs finished per backend.", "backend")

	// DDUniqueLookups / DDUniqueHits measure the decision-diagram
	// unique-table (hash-consing) hit rate.
	DDUniqueLookups = NewCounter("ddsim_dd_unique_lookups_total",
		"Decision-diagram unique-table lookups.")
	DDUniqueHits = NewCounter("ddsim_dd_unique_hits_total",
		"Decision-diagram unique-table hits (node already existed).")

	// DDComputeLookups / DDComputeHits measure the combined hit rate of
	// the memoisation caches (add, multiply, norm, probability, ...).
	DDComputeLookups = NewCounter("ddsim_dd_compute_lookups_total",
		"Decision-diagram compute-table lookups.")
	DDComputeHits = NewCounter("ddsim_dd_compute_hits_total",
		"Decision-diagram compute-table hits.")

	// DDComputeConflicts counts compute-cache misses that evicted a
	// resident entry — the conflict-miss rate of the direct-mapped
	// caches (see docs/PERFORMANCE.md "DD kernel planes").
	DDComputeConflicts = NewCounter("ddsim_dd_compute_conflicts_total",
		"Decision-diagram compute-table misses that evicted a resident entry.")

	// DDUniqueProbeLen is the unique-table probe-length distribution:
	// control-word groups (cache lines) touched per hash-consing
	// lookup. The last bucket absorbs probes longer than 8. DDUniqueMaxProbe is the
	// longest probe any DD package ever performed in this process;
	// DDUniqueLoadFactor the unique-table load factor of the most
	// recently reported package snapshot.
	DDUniqueProbeLen = NewHistogram("ddsim_dd_unique_probe_len",
		"Unique-table probe length (cache lines touched per lookup).",
		[]float64{1, 2, 3, 4, 5, 6, 7, 8})
	DDUniqueMaxProbe = NewGauge("ddsim_dd_unique_max_probe",
		"Longest unique-table probe observed in any DD package.")
	DDUniqueLoadFactor = NewFloatGauge("ddsim_dd_unique_load_factor",
		"Unique-table load factor of the most recently reported DD package.")

	// DDNodesCreated counts vector nodes ever created, DDGCRuns the
	// number of DD garbage collections, and DDPeakNodes the largest
	// live vector-node population seen in any single DD package.
	DDNodesCreated = NewCounter("ddsim_dd_nodes_created_total",
		"Decision-diagram vector nodes created.")
	DDGCRuns = NewCounter("ddsim_dd_gc_runs_total",
		"Decision-diagram garbage collections.")
	DDPeakNodes = NewGauge("ddsim_dd_peak_nodes",
		"Largest live vector-node population observed in one DD package.")

	// DDBlockApplications counts the operators DD backends applied for
	// runs of gates: one per block product (internal/ddback), a block
	// of one gate included. Against GateApplications it shows how far
	// the runs fused.
	DDBlockApplications = NewCounter("ddsim_dd_block_applications_total",
		"Decision-diagram operators applied for runs of gates (block products, single gates included).")

	// GateApplications counts unitary gate applications executed by
	// simulation workers (trajectories, checkpoint-prefix construction
	// and fidelity reference runs alike).
	GateApplications = NewCounter("ddsim_gate_applications_total",
		"Unitary gate applications executed by simulation workers.")

	// CheckpointsTaken counts checkpoints captured by the trajectory
	// engine, by kind. The one kind is "prefix": a snapshot of a job's
	// noise-free reference path, at most 8 per worker and job.
	CheckpointsTaken = NewCounterVec("ddsim_checkpoints_total",
		"Checkpoints captured by the trajectory engine, by kind.", "kind")

	// CheckpointForks counts state restores served from checkpoints:
	// exactly one per forked trajectory.
	CheckpointForks = NewCounter("ddsim_checkpoint_forks_total",
		"Trajectory forks served from checkpoints (state restores).")

	// CheckpointGatesSkipped counts gate applications avoided by
	// forking from checkpoints instead of replaying deterministic ops.
	CheckpointGatesSkipped = NewCounter("ddsim_checkpoint_gates_skipped_total",
		"Gate applications avoided by forking from checkpoints.")

	// CheckpointNodesRetained / CheckpointBytesRetained are high-water
	// marks of the memory pinned by one worker's live checkpoints:
	// decision-diagram nodes (DD backend) and bytes (both backends;
	// dense checkpoints are full amplitude copies).
	CheckpointNodesRetained = NewGauge("ddsim_checkpoint_nodes_retained",
		"Largest decision-diagram node count pinned by one worker's checkpoints.")
	CheckpointBytesRetained = NewGauge("ddsim_checkpoint_bytes_retained",
		"Largest byte footprint retained by one worker's checkpoints.")

	// ExactChannelApplications counts single-qubit error-channel
	// applications (ρ → Σ K ρ K†) executed by the exact density-matrix
	// engine — its work unit, the analogue of GateApplications for
	// sampled noise.
	ExactChannelApplications = NewCounter("ddsim_exact_channel_applications_total",
		"Error-channel applications executed by the exact density-matrix engine.")

	// NoiseChannelApplications counts noise-channel applications by
	// channel kind (depolarizing / damping / phaseflip / twirled /
	// idle / crosstalk): sampled channel draws in the stochastic
	// engine, exact channel applications in the density-matrix engine.
	NoiseChannelApplications = NewCounterVec("ddsim_noise_channel_applications_total",
		"Noise-channel applications, by channel kind.", "kind")

	// ExactBranches is the high-water mark of simultaneously tracked
	// outcome-history branches in one exact-engine job (measurements
	// and classical conditions fork branches; equal classical histories
	// are merged back).
	ExactBranches = NewGauge("ddsim_exact_branches",
		"Largest outcome-history branch count tracked by one exact-engine job.")

	// ExactDDNodes is the high-water mark of vector nodes retained by
	// one exact-engine job's vec(ρ) diagram on 2n qubits (ddensity form
	// only; the paper's structural-compression measure, squared
	// representation included).
	ExactDDNodes = NewGauge("ddsim_exact_dd_nodes",
		"Largest vec(rho) DD node count retained by one exact-engine job.")

	// ExactPurity is tr(ρ²) of the most recently finished exact
	// simulation's final state: 1.0 for pure states, 1/2^n at the fully
	// mixed floor — a live measure of how much decoherence the noise
	// model injects.
	ExactPurity = NewFloatGauge("ddsim_exact_purity",
		"tr(rho^2) of the most recently finished exact simulation.")

	// JobsQueued / JobsRunning / JobsDone track the ddsimd service job
	// lifecycle (done is labelled by terminal status:
	// done / cancelled / failed).
	JobsQueued = NewGauge("ddsim_jobs_queued",
		"Service jobs accepted and waiting for a worker-pool slot.")
	JobsRunning = NewGauge("ddsim_jobs_running",
		"Service jobs currently simulating.")
	JobsDone = NewCounterVec("ddsim_jobs_done_total",
		"Service jobs finished, by terminal status.", "status")

	// JobsRejected counts submissions refused by admission control,
	// labelled by reason: "rate_limit" (per-client token bucket) or
	// "queue_full" (unfinished-job bound); both are answered 429.
	JobsRejected = NewCounterVec("ddsim_jobs_rejected_total",
		"Service submissions refused by admission control, by reason.", "reason")

	// JobsRecovered counts jobs reconstructed from the job store at
	// startup, labelled by outcome: "served" (terminal state replayed
	// from disk), "requeued" (in flight at the crash; re-run) or
	// "failed" (the spec no longer compiles under the current server
	// limits; recorded as permanently failed).
	JobsRecovered = NewCounterVec("ddsim_jobs_recovered_total",
		"Jobs reconstructed from the on-disk store at startup, by outcome.", "outcome")

	// WALAppends counts fsync'd appends to a write-ahead log: the job
	// store's accept, terminal and tombstone lines and the cluster
	// journals' entries; WALCompactions counts runtime WAL rewrites
	// (ticker-driven; one more happens inside every Open).
	WALAppends = NewCounter("ddsim_jobstore_wal_appends_total",
		"Fsync'd write-ahead-log appends in the job store.")
	WALCompactions = NewCounter("ddsim_jobstore_wal_compactions_total",
		"Runtime write-ahead-log compactions in the job store.")

	// ResCacheHits / ResCacheMisses / ResCacheJoins classify how ddsimd
	// resolves a keyed submission against its job table: served from a
	// retained finished job, led to a fresh simulation, or waited on an
	// identical in-flight job. Joins count waits, not submissions: a
	// follower whose leader ends without cacheable results resolves
	// again, and a second wait counts again, so hits + misses + joins
	// exceeds the keyed submissions whenever a leader is cancelled.
	ResCacheHits = NewCounter("ddsim_rescache_hits_total",
		"Submissions served the results of an identical retained job.")
	ResCacheMisses = NewCounter("ddsim_rescache_misses_total",
		"Submissions that led a fresh simulation.")
	ResCacheJoins = NewCounter("ddsim_rescache_dedup_joins_total",
		"Waits of a submission on an in-flight identical job; a submission whose leader ends uncacheable waits, and counts, again.")

	// QueueWaitSeconds / SimulateSeconds / PersistSeconds are the
	// per-phase latency histograms of the ddsimd job pipeline: time
	// from acceptance to a granted simulation slot, time simulating,
	// and time writing the terminal state to the job store.
	// E2ESeconds is the whole journey, acceptance to terminal state
	// (cache hits included, which is why it can undercut the sum of
	// the phases). All share one log-spaced ladder from 10µs to 100s;
	// p50/p95/p99 gauges are derived at scrape time.
	QueueWaitSeconds = NewHistogram("ddsim_queue_wait_seconds",
		"Time from job acceptance to a granted simulation slot.",
		LogBuckets(1e-5, 100, 5))
	SimulateSeconds = NewHistogram("ddsim_simulate_seconds",
		"Time simulating one job (all its noise points).",
		LogBuckets(1e-5, 100, 5))
	PersistSeconds = NewHistogram("ddsim_persist_seconds",
		"Time persisting one job's terminal state to the job store.",
		LogBuckets(1e-5, 100, 5))
	E2ESeconds = NewHistogram("ddsim_e2e_seconds",
		"Time from job acceptance to its terminal state.",
		LogBuckets(1e-5, 100, 5))

	// DispatchWaiting / DispatchGranted mirror ddsimd's dispatcher:
	// jobs waiting in its priority heap for a simulation slot, and
	// slots granted since start. Snapshots are refreshed by a ddsimd
	// maintenance ticker, not at scrape time.
	DispatchWaiting = NewGauge("ddsim_dispatch_waiting",
		"Submissions queued in the dispatch plane for a simulation slot.")
	DispatchGranted = NewGauge("ddsim_dispatch_granted",
		"Simulation slots granted by the dispatch plane since start.")

	// SSEKeepalives counts keepalive comments written to idle SSE
	// streams by their per-stream ticker.
	SSEKeepalives = NewCounter("ddsim_sse_keepalives_total",
		"Keepalive comments written to idle SSE event streams.")

	// RateBucketsEvicted counts per-client token buckets evicted by
	// the periodic refill pass; RateBuckets is the live count.
	RateBucketsEvicted = NewCounter("ddsim_rate_buckets_evicted_total",
		"Idle per-client rate-limit buckets evicted by the refill sweep.")
	RateBuckets = NewGauge("ddsim_rate_buckets",
		"Per-client rate-limit buckets currently tracked.")
)

// hitRate returns hits/lookups as a percentage, or 0 when idle.
func hitRate(hits, lookups *Counter) float64 {
	l := lookups.Value()
	if l == 0 {
		return 0
	}
	return 100 * float64(hits.Value()) / float64(l)
}

// Summary formats a compact one-line digest of the simulation counters
// for CLI footers (sqcsim -progress, benchtab).
func Summary() string {
	applied := GateApplications.Value()
	skipped := CheckpointGatesSkipped.Value()
	skipPct := 0.0
	if applied+skipped > 0 {
		skipPct = 100 * float64(skipped) / float64(applied+skipped)
	}
	s := fmt.Sprintf(
		"trajectories=%d gates[applied=%d skipped=%.1f%%] ckpt[forks=%d] dd[created=%d peak=%d gc=%d unique-hit=%.1f%% compute-hit=%.1f%%]",
		Trajectories.Value(), applied, skipPct, CheckpointForks.Value(),
		DDNodesCreated.Value(), DDPeakNodes.Value(), DDGCRuns.Value(),
		hitRate(DDUniqueHits, DDUniqueLookups),
		hitRate(DDComputeHits, DDComputeLookups))
	if ch := ExactChannelApplications.Value(); ch > 0 {
		s += fmt.Sprintf(" exact[channels=%d branches=%d purity=%.4f]",
			ch, ExactBranches.Value(), ExactPurity.Value())
	}
	if E2ESeconds.Count() > 0 {
		s += " " + phaseDigest()
	}
	return s
}

// phaseDigest formats the per-phase latency percentiles for Summary:
// p50/p95/p99 per pipeline phase, phases with no observations omitted.
func phaseDigest() string {
	quantiles := func(h *Histogram) string {
		return fmt.Sprintf("p50=%s p95=%s p99=%s",
			fmtSeconds(h.Quantile(0.5)), fmtSeconds(h.Quantile(0.95)), fmtSeconds(h.Quantile(0.99)))
	}
	s := "lat["
	first := true
	for _, ph := range [...]struct {
		label string
		h     *Histogram
	}{
		{"queue", QueueWaitSeconds},
		{"sim", SimulateSeconds},
		{"persist", PersistSeconds},
		{"e2e", E2ESeconds},
	} {
		if ph.h.Count() == 0 {
			continue
		}
		if !first {
			s += " | "
		}
		first = false
		s += ph.label + " " + quantiles(ph.h)
	}
	return s + "]"
}

// fmtSeconds renders a latency in the most readable unit.
func fmtSeconds(v float64) string {
	switch {
	case v >= 1:
		return fmt.Sprintf("%.2fs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.0fµs", v*1e6)
	}
}
