// Package cluster shards one stochastic simulation job's trajectory
// budget across a set of worker processes, bit-identically to a
// single-node run.
//
// The design leans entirely on the engine's determinism invariant
// (PR 1): run j draws from a random stream that is a function of
// (Seed, j) alone (stochastic/stream.go; every node of a cluster must
// run the same stochastic.StreamVersion), the run-index space is split
// into fixed chunks, and per-chunk sums merged strictly in chunk order
// reproduce the single-node result bit for bit. That makes distributed
// simulation an exercise in exactly-once chunk accounting rather than
// numerical reconciliation — a lost chunk is simply re-simulated (same
// seeds, same sums), and the only thing that must never happen is the
// same chunk merging twice or two workers' overlapping sums merging at
// all. The coordinator guarantees that with dlock-style leases: every
// lease carries a fencing token (a monotonic snowflake ID from
// internal/clusterid), and a completion is accepted only while its
// token is the part's current lease. Everything else — worker loss,
// lease expiry, duplicate delivery, coordinator restart — reduces to
// "the fence rejects it" or "the chunk runs again".
//
// Topology: the coordinator owns the job and initiates every
// connection; workers are stateless HTTP servers (ddsimd -worker)
// exposing three endpoints:
//
//	POST /work/lease      start computing a chunk range (async, 202)
//	POST /work/heartbeat  report phase and progress for a lease
//	POST /work/complete   hand over the per-chunk sums for a lease
//
// The coordinator journals its plan and every accepted part through a
// jobstore.WAL, so a restart on the same data dir resumes the job
// without recomputing finished parts and without double-counting.
package cluster

import (
	"fmt"

	"ddsim/internal/noise"
	"ddsim/internal/qasm"
	"ddsim/internal/stochastic"
)

// JobSpec is the wire form of one simulation job: everything a
// stateless worker needs to reconstruct the exact stochastic.Job the
// coordinator planned. The circuit travels as OpenQASM source (the
// repo's canonical circuit serialisation), and Options travels as its
// JSON form — prepareJob normalises options identically on every node,
// so coordinator and workers derive the same chunk plan.
type JobSpec struct {
	// Name labels the circuit (diagnostics only).
	Name string `json:"name,omitempty"`
	// QASM is the OpenQASM 2.0 source of the circuit.
	QASM string `json:"qasm"`
	// Backend selects the simulation backend ("dd", "statevec", ...);
	// workers resolve it through the same factory table as ddsimd.
	Backend string `json:"backend"`
	// Noise is the noise model applied to every trajectory.
	Noise noise.Model `json:"noise"`
	// Options are the engine options. OnProgress is not serialisable
	// and stays nil on workers; progress flows through heartbeats.
	Options stochastic.Options `json:"options"`
}

// Job parses the spec into the engine's job form.
func (s JobSpec) Job() (stochastic.Job, error) {
	name := s.Name
	if name == "" {
		name = "cluster-job"
	}
	c, err := qasm.Parse(name, s.QASM)
	if err != nil {
		return stochastic.Job{}, fmt.Errorf("cluster: parse job circuit: %w", err)
	}
	return stochastic.Job{Circuit: c, Model: s.Noise, Opts: s.Options}, nil
}

// leaseRequest asks a worker to start computing chunks
// [First, First+Count) of the job's plan. LeaseID is the fencing
// token; the worker echoes it in every subsequent exchange.
type leaseRequest struct {
	LeaseID string  `json:"lease_id"`
	Job     JobSpec `json:"job"`
	First   int     `json:"first"`
	Count   int     `json:"count"`
}

// Worker phase strings reported by heartbeats.
const (
	phaseRunning = "running"
	phaseDone    = "done"
	phaseFailed  = "failed"
)

// heartbeatRequest queries the status of a lease.
type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// heartbeatResponse reports a lease's worker-side state.
type heartbeatResponse struct {
	Phase      string `json:"phase"`
	ChunksDone int    `json:"chunks_done"`
	Error      string `json:"error,omitempty"`
}

// completeRequest fetches the finished sums of a lease. The transfer
// is pull-based: the worker keeps the sums until the coordinator
// collects them (or the worker process exits — re-simulation covers
// that).
type completeRequest struct {
	LeaseID string `json:"lease_id"`
}

// completeResponse carries the per-chunk sums of the leased range, in
// chunk order. JSON round-trips float64 bit-exactly (Go marshals
// shortest-round-trip), so these merge identically to locally computed
// sums.
type completeResponse struct {
	Sums []stochastic.ChunkSum `json:"sums"`
}

// errorResponse is the body of every non-2xx worker reply.
type errorResponse struct {
	Error string `json:"error"`
}
