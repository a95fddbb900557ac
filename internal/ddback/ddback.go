// Package ddback adapts the decision-diagram engine (internal/dd) to
// the sim.Backend interface. This is the paper's proposed simulator:
// one compiled gate diagram per circuit operation, and per-qubit
// caches for the small operators injected by the noise model, so each
// of the M stochastic runs reduces to a sequence of memoised
// DD matrix–vector products.
package ddback

import (
	"fmt"
	"math"
	"math/rand"

	"ddsim/internal/circuit"
	"ddsim/internal/dd"
	"ddsim/internal/sim"
)

type pauliKey struct {
	p sim.Pauli
	q int
}

type dampKey struct {
	q     int
	fire  bool
	pbits uint64
}

type projKey struct {
	q       int
	outcome int
}

type kraus2Key struct {
	q0, q1 int
	u      [4][4]complex128
}

// Backend is the decision-diagram simulation backend.
type Backend struct {
	pkg   *dd.Package
	circ  *circuit.Circuit
	gates []dd.MEdge // compiled unitary per op index (zero stub for non-gates)
	state dd.VEdge

	pauliCache  map[pauliKey]dd.MEdge
	dampCache   map[dampKey]dd.MEdge
	projCache   map[projKey]dd.MEdge
	kraus2Cache map[kraus2Key]dd.MEdge
}

// New compiles the circuit into gate diagrams and prepares |0…0⟩.
func New(c *circuit.Circuit) (*Backend, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{
		pkg:        dd.NewPackage(c.NumQubits),
		circ:       c,
		gates:      make([]dd.MEdge, len(c.Ops)),
		pauliCache: make(map[pauliKey]dd.MEdge),
		dampCache:  make(map[dampKey]dd.MEdge),
		projCache:  make(map[projKey]dd.MEdge),
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != circuit.KindGate {
			b.gates[i] = b.pkg.ZeroMEdge()
			continue
		}
		u, err := sim.ResolveOp(op)
		if err != nil {
			return nil, fmt.Errorf("ddback: op %d: %w", i, err)
		}
		g := b.pkg.ControlledGate(dd.Mat2(u), op.Target, ddControls(op.Controls))
		b.pkg.RefM(g)
		b.gates[i] = g
	}
	b.state = b.pkg.ZeroState()
	return b, nil
}

// Factory returns a sim.Factory creating DD backends.
func Factory() sim.Factory {
	return func(c *circuit.Circuit) (sim.Backend, error) { return New(c) }
}

func ddControls(cs []circuit.Control) []dd.Control {
	out := make([]dd.Control, len(cs))
	for i, c := range cs {
		out[i] = dd.Control{Qubit: c.Qubit, Negative: c.Negative}
	}
	return out
}

// Name implements sim.Backend.
func (b *Backend) Name() string { return "dd" }

// NumQubits implements sim.Backend.
func (b *Backend) NumQubits() int { return b.circ.NumQubits }

// Reset implements sim.Backend.
func (b *Backend) Reset() {
	b.setState(b.pkg.ZeroState())
}

// setState installs e as the live state. The state carries no
// standing reference pin: collections run only here, so it suffices
// to pin the diagram around the collection itself — that turns the
// per-gate cost from two full ref-walks (Ref new, Unref old) into a
// three-counter threshold check, and pays the walk only on the rare
// gate that actually collects. Gate diagrams and snapshots hold their
// own pins, so the live set at collection time is identical to the
// always-pinned scheme.
func (b *Backend) setState(e dd.VEdge) {
	b.state = e
	if b.pkg.NeedsGC() {
		b.pkg.Ref(e)
		b.pkg.MaybeGC()
		b.pkg.Unref(e)
	}
}

// ApplyOp implements sim.Backend.
func (b *Backend) ApplyOp(i int) {
	b.setState(b.pkg.MulMV(b.gates[i], b.state))
}

// ApplyPauli implements sim.Backend.
func (b *Backend) ApplyPauli(p sim.Pauli, qubit int) {
	if p == sim.PauliI {
		return
	}
	key := pauliKey{p: p, q: qubit}
	g, ok := b.pauliCache[key]
	if !ok {
		var u circuit.Mat2
		switch p {
		case sim.PauliX:
			u = circuit.MatX
		case sim.PauliY:
			u = circuit.MatY
		case sim.PauliZ:
			u = circuit.MatZ
		}
		g = b.pkg.SingleQubitGate(dd.Mat2(u), qubit)
		b.pkg.RefM(g)
		b.pauliCache[key] = g
	}
	b.setState(b.pkg.MulMV(g, b.state))
}

// ProbOne implements sim.Backend.
func (b *Backend) ProbOne(qubit int) float64 {
	return b.pkg.ProbOne(b.state, qubit)
}

// Collapse implements sim.Backend.
func (b *Backend) Collapse(qubit, outcome int, prob float64) {
	if prob <= 0 {
		panic("ddback: Collapse with non-positive probability")
	}
	key := projKey{q: qubit, outcome: outcome}
	proj, ok := b.projCache[key]
	if !ok {
		var u circuit.Mat2
		u[outcome][outcome] = 1
		proj = b.pkg.SingleQubitGate(dd.Mat2(u), qubit)
		b.pkg.RefM(proj)
		b.projCache[key] = proj
	}
	out := b.pkg.MulMV(proj, b.state)
	b.setState(b.rescale(out, prob))
}

// rescale divides the state by √norm2.
func (b *Backend) rescale(e dd.VEdge, norm2 float64) dd.VEdge {
	s := complex(1/math.Sqrt(norm2), 0)
	return dd.VEdge{N: e.N, W: b.pkg.W.LookupC(e.W.Complex() * s)}
}

// ApplyDamping implements sim.Backend (Example 6 of the paper).
func (b *Backend) ApplyDamping(qubit int, p float64, fire bool, branchProb float64) {
	if branchProb <= 0 {
		panic("ddback: ApplyDamping with non-positive branch probability")
	}
	key := dampKey{q: qubit, fire: fire, pbits: math.Float64bits(p)}
	k, ok := b.dampCache[key]
	if !ok {
		var u circuit.Mat2
		if fire {
			u = circuit.Mat2{{0, complex(math.Sqrt(p), 0)}, {0, 0}}
		} else {
			u = circuit.Mat2{{1, 0}, {0, complex(math.Sqrt(1-p), 0)}}
		}
		k = b.pkg.SingleQubitGate(dd.Mat2(u), qubit)
		b.pkg.RefM(k)
		b.dampCache[key] = k
	}
	out := b.pkg.MulMV(k, b.state)
	b.setState(b.rescale(out, branchProb))
}

// ApplyKraus2 implements sim.Backend: the 4×4 operator on (q0, q1)
// is decomposed into Σ_{ij} |i⟩⟨j|_{q0} ⊗ B_{ij,q1} — a sum of
// products of single-qubit diagrams on disjoint qubits — built once
// and memoised, so repeated crosstalk branches reduce to cached
// DD matrix–vector products like every other noise operator.
func (b *Backend) ApplyKraus2(q0, q1 int, u [4][4]complex128, branchProb float64) {
	if branchProb <= 0 {
		panic("ddback: ApplyKraus2 with non-positive branch probability")
	}
	if b.kraus2Cache == nil {
		b.kraus2Cache = make(map[kraus2Key]dd.MEdge)
	}
	key := kraus2Key{q0: q0, q1: q1, u: u}
	g, ok := b.kraus2Cache[key]
	if !ok {
		g = b.buildTwoQubitOp(q0, q1, u)
		b.pkg.RefM(g)
		b.kraus2Cache[key] = g
	}
	out := b.pkg.MulMV(g, b.state)
	if branchProb != 1 {
		out = b.rescale(out, branchProb)
	}
	b.setState(out)
}

// buildTwoQubitOp assembles the diagram of a 4×4 operator on the
// ordered pair (q0, q1), q0 on the high bit.
func (b *Backend) buildTwoQubitOp(q0, q1 int, u [4][4]complex128) dd.MEdge {
	acc := b.pkg.ZeroMEdge()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			blk := dd.Mat2{
				{u[i*2][j*2], u[i*2][j*2+1]},
				{u[i*2+1][j*2], u[i*2+1][j*2+1]},
			}
			if blk[0][0] == 0 && blk[0][1] == 0 && blk[1][0] == 0 && blk[1][1] == 0 {
				continue
			}
			var sel dd.Mat2
			sel[i][j] = 1
			op := b.pkg.MulMM(b.pkg.SingleQubitGate(sel, q0), b.pkg.SingleQubitGate(blk, q1))
			acc = b.pkg.AddM(acc, op)
		}
	}
	return acc
}

// SampleBasis implements sim.Backend.
func (b *Backend) SampleBasis(rng *rand.Rand) uint64 {
	return b.pkg.SampleBasis(b.state, rng)
}

// Probability implements sim.Backend.
func (b *Backend) Probability(idx uint64) float64 {
	return b.pkg.Probability(b.state, idx)
}

// Norm2 implements sim.Backend.
func (b *Backend) Norm2() float64 { return b.pkg.Norm2(b.state) }

// State exposes the current decision diagram (read-only) for
// diagnostics and experiments.
func (b *Backend) State() dd.VEdge { return b.state }

// Package exposes the underlying DD package for diagnostics.
func (b *Backend) Package() *dd.Package { return b.pkg }

// NodeCount returns the size of the current state's diagram — the
// paper's compactness measure.
func (b *Backend) NodeCount() int { return b.pkg.NodeCount(b.state) }

// TableStats implements sim.TableStatser with the underlying DD
// package's unique- and compute-table counters.
func (b *Backend) TableStats() sim.TableStats {
	s := b.pkg.Stats()
	out := sim.TableStats{
		UniqueLookups:    int64(s.UniqueLookups),
		UniqueHits:       int64(s.UniqueHits),
		ComputeLookups:   int64(s.ComputeLookups),
		ComputeHits:      int64(s.ComputeHits),
		ComputeConflicts: int64(s.ComputeConflicts),
		NodesCreated:     int64(s.NodesCreated),
		PeakNodes:        int64(s.PeakVNodes),
		GCRuns:           int64(s.GCRuns),
		UniqueMaxProbe:   int64(s.UniqueMaxProbe),
		UniqueLoad:       s.UniqueLoad,
	}
	for i, c := range s.UniqueProbe {
		out.UniqueProbe[i] = int64(c)
	}
	return out
}

// Snapshot implements sim.Snapshotter and sim.Forker: the state edge
// is pinned against garbage collection and returned as the handle.
// Taking a snapshot is O(size of the diagram) reference-count bumps;
// no nodes are copied — the checkpoint shares the package's unique and
// compute tables with the live state.
func (b *Backend) Snapshot() sim.Snapshot {
	b.pkg.Ref(b.state)
	return b.state
}

// Restore implements sim.Forker: the captured diagram becomes the
// current state again. Cheap by construction — one root-edge refcount
// bump plus the release of the previous state; the snapshot keeps its
// own pin, so it can be restored any number of times.
func (b *Backend) Restore(s sim.State) {
	b.setState(s.(dd.VEdge))
}

// approxVNodeBytes is the rough heap footprint of one vector node
// (two child edges, level, id, refcount, arena free-list link), used
// only for the checkpoint-retention telemetry.
const approxVNodeBytes = 56

// StateCost implements sim.StateSizer: the number of diagram nodes a
// checkpoint pins and their approximate byte footprint. Shared
// sub-diagrams are counted once per snapshot, matching what the pin
// actually keeps alive.
func (b *Backend) StateCost(s sim.State) (nodes, bytes int64) {
	n := int64(b.pkg.NodeCount(s.(dd.VEdge)))
	return n, n * approxVNodeBytes
}

// Release implements sim.Releaser: the underlying DD package returns
// its pooled kernel memory (node slabs, compute caches, weight slabs)
// for reuse by future backends. The backend, its snapshots and its
// state handles must not be used afterwards.
func (b *Backend) Release() {
	b.pkg.Release()
	b.state = dd.VEdge{}
	b.gates = nil
	b.pauliCache, b.dampCache, b.projCache, b.kraus2Cache = nil, nil, nil, nil
}

// FidelityTo implements sim.Snapshotter via the DD inner product.
func (b *Backend) FidelityTo(s sim.Snapshot) float64 {
	return b.pkg.Fidelity(s.(dd.VEdge), b.state)
}
