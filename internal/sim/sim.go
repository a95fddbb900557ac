// Package sim defines the contract between simulation backends (the
// decision-diagram engine of the paper and the two state-of-the-art
// baselines it is compared against) and the stochastic Monte-Carlo
// driver. A Backend holds one evolving quantum state; the driver owns
// all randomness, classical bits and noise-model logic, so every
// backend sees exactly the same stream of operations and the backends
// stay interchangeable in benchmarks.
package sim

import (
	"math/rand"

	"ddsim/internal/circuit"
)

// Pauli selects one of the four Pauli operators used by the
// depolarising and phase-flip channels.
type Pauli int

// The Pauli operators.
const (
	// PauliI is the identity (no error applied).
	PauliI Pauli = iota
	// PauliX is the bit flip.
	PauliX
	// PauliY is the combined bit and phase flip.
	PauliY
	// PauliZ is the phase flip.
	PauliZ
)

// String names the Pauli operator.
func (p Pauli) String() string {
	switch p {
	case PauliI:
		return "I"
	case PauliX:
		return "X"
	case PauliY:
		return "Y"
	case PauliZ:
		return "Z"
	default:
		return "?"
	}
}

// Backend is one simulation engine instance, pre-compiled for a fixed
// circuit. Backends are stateful and NOT safe for concurrent use: the
// stochastic driver creates one backend per worker, realising the
// paper's "concurrency across runs" design.
type Backend interface {
	// Name identifies the engine ("dd", "statevec", "sparse").
	Name() string

	// NumQubits returns the register size.
	NumQubits() int

	// Reset restores the state to |0…0⟩ (start of a simulation run).
	Reset()

	// ApplyOp applies operation index i of the compiled circuit.
	// The operation is guaranteed to be a unitary gate.
	ApplyOp(i int)

	// ApplyPauli applies a Pauli operator to one qubit (noise event).
	ApplyPauli(p Pauli, qubit int)

	// ProbOne returns the probability that the given qubit measures 1.
	ProbOne(qubit int) float64

	// Collapse projects the qubit onto the given outcome and
	// renormalises; prob is the outcome probability, precomputed by
	// the caller from ProbOne, and must be positive.
	Collapse(qubit, outcome int, prob float64)

	// ApplyDamping applies one branch of the amplitude-damping channel
	// with damping parameter p to the qubit: the decay operator
	// A0 = [[0,√p],[0,0]] when fire is true, otherwise
	// A1 = [[1,0],[0,√(1−p)]]; the state is renormalised by the
	// precomputed branch probability branchProb (must be positive).
	ApplyDamping(qubit int, p float64, fire bool, branchProb float64)

	// ApplyKraus2 applies the 4×4 operator k to the ordered pair
	// (q0, q1), q0 on the high bit of the 2-qubit basis |q0 q1⟩, and
	// renormalises by the precomputed branch probability branchProb
	// (must be positive; 1 for a unitary k). The exact engine applies
	// its superoperators on vec(ρ) through it; a trajectory's
	// correlated Pauli pair goes through ApplyPauli, one qubit each.
	ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64)

	// SampleBasis draws one basis-state index from the current state.
	SampleBasis(rng *rand.Rand) uint64

	// Probability returns |⟨idx|ψ⟩|² for a basis state.
	Probability(idx uint64) float64

	// Norm2 returns ⟨ψ|ψ⟩ (diagnostics; should stay 1).
	Norm2() float64
}

// TableStats describes the decision-diagram table activity of a
// backend instance: hash-consing (unique-table) and memoisation
// (compute-table) lookups and hits, node construction work and
// garbage collections. Values are cumulative over the instance's
// lifetime; telemetry consumers report deltas between snapshots.
type TableStats struct {
	// UniqueLookups/UniqueHits: hash-consing probes / probes that
	// found an existing node.
	UniqueLookups, UniqueHits int64
	// ComputeLookups/ComputeHits: memoisation-cache probes / hits.
	ComputeLookups, ComputeHits int64
	// ComputeConflicts: compute-cache misses that evicted a resident
	// entry (direct-mapped collision) rather than filling an empty
	// slot.
	ComputeConflicts int64
	// NodesCreated counts vector nodes ever created.
	NodesCreated int64
	// PeakNodes is the high-water mark of live vector nodes.
	PeakNodes int64
	// GCRuns counts decision-diagram garbage collections.
	GCRuns int64
	// UniqueProbe is the unique-table probe-length histogram:
	// UniqueProbe[i] counts probes that examined i+1 control-word
	// groups (cache lines), the last bucket absorbing longer probes.
	// Its entries sum to UniqueLookups.
	UniqueProbe [9]int64
	// UniqueMaxProbe is the longest unique-table probe the instance
	// ever performed; UniqueLoad the resident fraction of the
	// unique tables' slot capacity at the snapshot.
	UniqueMaxProbe int64
	UniqueLoad     float64
	// BlockApplications counts the operators the instance applied to
	// its state for runs of gates: one per block product, a block of
	// one gate included. Fewer than the gates applied when runs fuse.
	BlockApplications int64
}

// TableStatser is an optional backend capability: exposing
// decision-diagram table statistics for telemetry. Only the DD backend
// implements it; dense baselines have no tables to report.
type TableStatser interface {
	// TableStats returns cumulative table statistics for this instance.
	TableStats() TableStats
}

// Releaser is an optional backend capability: retiring the instance
// and returning pooled kernel memory (decision-diagram node slabs,
// compute caches, weight-table slabs) for reuse by future instances.
// The stochastic driver calls it when a worker permanently retires a
// compiled backend; the backend — and every snapshot or state handle
// obtained from it — must not be used afterwards.
type Releaser interface {
	// Release retires the backend instance. Idempotent.
	Release()
}

// Snapshotter is an optional backend capability: capturing the current
// state and later computing the fidelity |⟨snapshot|ψ⟩|² against it.
// The stochastic driver uses it to estimate the paper's flagship
// quadratic property — fidelity with the noise-free output state.
type Snapshotter interface {
	// Snapshot captures the current state. The returned handle stays
	// valid for the backend's lifetime.
	Snapshot() Snapshot
	// FidelityTo returns |⟨snapshot|current⟩|².
	FidelityTo(s Snapshot) float64
}

// Snapshot is an opaque captured state.
type Snapshot interface{}

// State is an opaque captured simulation state, produced by
// Forker.Snapshot. It aliases Snapshot so that a backend implementing
// both capabilities (as the DD backend does) hands out one handle type
// that works with FidelityTo and Restore alike.
type State = Snapshot

// Forker is an optional backend capability: checkpointing the current
// state and later forking new trajectories from it. The stochastic
// driver uses it to simulate the deterministic prefix of a noisy
// circuit exactly once per worker and fork every trajectory from the
// checkpoint instead of replaying the prefix (the paper's observation
// that trajectories are identical up to the first probabilistic noise
// event).
//
// Snapshot must be cheap to restore many times: the DD backend pins
// the state diagram's root (bumping reference counts in the shared
// unique table), the dense backend copies the amplitude array. A
// handle stays valid for the backend's lifetime; Restore may be called
// any number of times, in any order, including after further mutation
// of the state.
type Forker interface {
	// Snapshot captures the current state as a restorable checkpoint.
	Snapshot() State
	// Restore makes the captured state the backend's current state.
	// The handle remains valid afterwards (restore is non-destructive).
	Restore(State)
}

// StateSizer is an optional capability of Forker backends: reporting
// the retention cost of a captured State, so telemetry can expose how
// much memory live checkpoints pin.
type StateSizer interface {
	// StateCost returns the approximate retention cost of s: live
	// decision-diagram nodes pinned (DD backends; 0 for dense ones)
	// and bytes held.
	StateCost(s State) (nodes, bytes int64)
}

// Factory creates fresh backend instances compiled for a circuit.
// The stochastic driver calls it once per worker.
type Factory func(c *circuit.Circuit) (Backend, error)

// ResolveOp extracts the 2×2 matrix of a gate operation. Shared by
// backend compilers.
func ResolveOp(op *circuit.Op) (circuit.Mat2, error) {
	return circuit.GateMatrix(op.Name, op.Params)
}
