// Package cluster shards one stochastic simulation job's trajectory
// budget across a set of worker processes.
//
// The design leans entirely on the engine's determinism invariant:
// run j draws from a random stream that is a function of (Seed, j)
// alone (stochastic/stream.go; every node of a cluster must run the
// same build), the run-index space is split into fixed chunks, and
// per-chunk sums are merged strictly in chunk order. Each lease runs
// on a fresh backend, and the parts are the job's own plan, so a
// cluster run reproduces itself bit for bit for the same job, whatever
// the failure schedule
// (TestClusterQFT16ReproducesItselfAcrossFailures), and reproduces the
// single-node result bit for bit on statevec, sparse and
// cache-resident DDs (TestClusterBitIdentical). A larger DD's rounding
// depends on what its package computed before, so there the cluster
// and a single-node run can differ. That makes distributed
// simulation an exercise in exactly-once chunk accounting rather than
// numerical reconciliation — a lost chunk is simply re-simulated (same
// seeds, same sums), and the only thing that must never happen is the
// same chunk merging twice or two workers' overlapping sums merging at
// all. The coordinator guarantees that with dlock-style leases: every
// lease carries a fencing token (drawn from a process-wide counter
// that only increases), and a completion is accepted only while its
// token is the part's current lease. Everything else — worker loss,
// lease expiry, duplicate delivery, coordinator restart — reduces to
// "the fence rejects it" or "the chunk runs again".
//
// Topology: the coordinator owns the job and initiates every
// connection; workers are stateless HTTP servers (ddsimd -worker)
// exposing one endpoint:
//
//	POST /work/run  compute a lease's chunk range, streaming NDJSON
//	                keepalive lines and then one final line with the
//	                per-chunk sums (or an error)
//
// A lease lives as long as its request: every keepalive line renews
// it, the final line completes it through the fence, and a stream that
// breaks, or stays silent past the lease's deadline, gives the part
// back. A coordinator that hangs up stops the worker's computation.
//
// The coordinator journals its plan and every accepted part through a
// jobstore.WAL, so a restart on the same data dir resumes the job
// without recomputing finished parts and without double-counting.
package cluster

import (
	"fmt"
	"time"

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
	// and stays nil on workers; the coordinator reports progress per
	// accepted part.
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

// runRequest asks a worker to compute chunks [First, First+Count) of
// the job's plan. LeaseID is the fencing token, for the worker's
// diagnostics and gates. Keepalive is the cadence of the keepalive
// lines the worker streams while it computes (LeaseTTL/3).
type runRequest struct {
	LeaseID   string        `json:"lease_id"`
	Job       JobSpec       `json:"job"`
	First     int           `json:"first"`
	Count     int           `json:"count"`
	Keepalive time.Duration `json:"keepalive_ns"`
}

// minKeepalive is the shortest keepalive cadence a worker accepts: a
// shorter one would spend the stream on keepalive lines.
const minKeepalive = time.Millisecond

// runLine is one line of a /work/run stream. A line with neither field
// is a keepalive; the last line carries either the per-chunk sums of
// the leased range, in chunk order, or the error that ended the
// computation. JSON round-trips float64 bit-exactly (Go marshals
// shortest-round-trip), so the sums merge identically to locally
// computed ones.
type runLine struct {
	Sums  []stochastic.ChunkSum `json:"sums,omitempty"`
	Error string                `json:"error,omitempty"`
}

// final reports whether the line ends the stream. A sums field that
// is present but empty ends it too, and the lease table rejects it.
func (l runLine) final() bool { return l.Sums != nil || l.Error != "" }
