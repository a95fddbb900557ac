package telemetry

// Distributed-coordinator instruments (internal/cluster). All live in
// the Default registry.
var (
	// ClusterLeasesGranted counts leases granted by coordinators,
	// including reclaim grants after expiry.
	ClusterLeasesGranted = NewCounter("ddsim_cluster_leases_granted_total",
		"Chunk-range leases granted by the coordinator.")

	// ClusterLeaseRenewals counts renewals by a worker's keepalive
	// lines.
	ClusterLeaseRenewals = NewCounter("ddsim_cluster_lease_renewals_total",
		"Lease deadline extensions from worker keepalive lines.")

	// ClusterLeasesExpired counts leases that passed their deadline
	// with no line from their worker and were reclaimed, and
	// ClusterReassignments every lost lease whose part went back to
	// be leased again: an expired one, or one whose stream broke or
	// ended in an error.
	ClusterLeasesExpired = NewCounter("ddsim_cluster_leases_expired_total",
		"Leases reclaimed after their worker's stream stayed silent past the deadline.")
	ClusterReassignments = NewCounter("ddsim_cluster_reassignments_total",
		"Parts re-leased to another worker after a lease was lost.")

	// ClusterStaleCompletions counts completions rejected by the
	// fencing token — deliveries from a worker whose lease was
	// reassigned (or whose part already completed).
	ClusterStaleCompletions = NewCounter("ddsim_cluster_stale_completions_total",
		"Chunk completions rejected by lease fencing.")

	// ClusterWorkerFailures counts leases a worker let down, as seen
	// by coordinator drivers: connection refused, non-2xx, an error
	// line, malformed sums, or a stream that broke or went silent.
	ClusterWorkerFailures = NewCounter("ddsim_cluster_worker_failures_total",
		"Lease streams that failed between coordinator and worker.")

	// ClusterPartsCompleted counts parts accepted by the lease table
	// exactly once each.
	ClusterPartsCompleted = NewCounter("ddsim_cluster_parts_completed_total",
		"Chunk-range parts accepted by the coordinator.")

	// ClusterChunksComputed counts chunks computed in worker mode.
	ClusterChunksComputed = NewCounter("ddsim_cluster_chunks_computed_total",
		"Trajectory chunks computed by this process in worker mode.")

	// ClusterWorkerRequests counts worker-side requests by endpoint;
	// the one endpoint is run.
	ClusterWorkerRequests = NewCounterVec("ddsim_cluster_worker_requests_total",
		"Worker-mode requests served, by endpoint.", "endpoint")

	// ClusterLeaseSeconds distributes the grant-to-completion time of
	// accepted leases: the time a part took, since its sums arrive on
	// the stream the moment they exist.
	ClusterLeaseSeconds = NewHistogram("ddsim_cluster_lease_seconds",
		"Grant-to-completion time of accepted leases.",
		LogBuckets(1e-3, 1e3, 5))
)
