// Package ddback adapts the decision-diagram engine (internal/dd) to
// the sim.Backend interface. This is the paper's proposed simulator:
// one compiled gate diagram per circuit operation, and one cached
// diagram per single-qubit noise operator and qubit (crosstalk pairs
// are two Paulis), so each of the M stochastic runs reduces to a
// sequence of memoised DD matrix–vector products.
//
// Runs of gates are applied as products (the "combine operations"
// strategy of Zulehner and Wille, IEEE TCAD 2019). ApplyOp does not
// multiply: it extends a pending run [s, e) of consecutive op indices,
// and every other method that reads or replaces the state first
// applies the run. The run is covered greedily by aligned op-index
// blocks of 2^l ops (l ≤ maxBlockLevel), each the MulMM product of its
// two halves, so a run of g ops costs at most about
// 2·maxBlockLevel + g/2^maxBlockLevel MulMVs instead of g. Every block
// is built the first time the backend applies a run, in one fixed
// order, and pinned for the backend's life: each worker's package
// holds the same operators whatever its trajectories did. A block
// whose product costs more than blockStepsPerNode steps per node of
// its halves, or comes out larger than its halves together, is not
// kept, and neither is any block above it; runs there fall back to the
// smaller blocks.
package ddback

import (
	"fmt"
	"math"
	"math/rand"

	"ddsim/internal/circuit"
	"ddsim/internal/cnum"
	"ddsim/internal/dd"
	"ddsim/internal/sim"
)

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

	// op1Cache memoises the single-qubit noise operators (Paulis,
	// projectors, damping Kraus operators): per 2×2 matrix, its
	// diagram on each qubit, built on first use. Keying on the matrix
	// alone stores its 64 bytes once per operator, not once per qubit.
	op1Cache    map[circuit.Mat2][]dd.MEdge
	kraus2Cache map[kraus2Key]dd.MEdge

	// runStart, runEnd delimit the pending run: ops [runStart, runEnd)
	// have been applied by ApplyOp but not yet to state.
	runStart, runEnd int
	// blocks[l-1][k] is the product of ops [k·2^l, (k+1)·2^l), or an
	// edge without a weight where that block is not kept. Nil until
	// the first run is applied.
	blocks [][]dd.MEdge
	// blockApps counts the operators flush applied (blocks of one op
	// included), reported as sim.TableStats.BlockApplications.
	blockApps int64
}

// Block geometry. maxBlockLevel caps blocks at 2^4 = 16 ops: every level
// is a round of products each backend builds, and the 32- and 64-op
// levels cost a 256-trajectory QFT-10 job more to build than they
// saved it, while QFT-24 ran 3 % faster with them (docs/PERFORMANCE.md
// "Gap products"). blockStepsPerNode bounds a block's build: at most
// that many cache-missing MulMM/AddM steps per node of its two halves.
// Unbounded, dense-rotation circuits such as ising-12 grew products
// without end.
const (
	maxBlockLevel     = 4
	blockStepsPerNode = 16
)

// New compiles the circuit into gate diagrams and prepares |0…0⟩.
func New(c *circuit.Circuit) (*Backend, error) {
	return NewTol(c, cnum.Tolerance)
}

// NewTol is New on a package that interns edge weights within tol
// (dd.NewPackageTol). The exact engine's vec(ρ) uses a tolerance far
// below the trajectory default, so its deterministic probabilities
// carry no visible interning error.
func NewTol(c *circuit.Circuit, tol float64) (*Backend, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{
		pkg:      dd.NewPackageTol(c.NumQubits, tol),
		circ:     c,
		gates:    make([]dd.MEdge, len(c.Ops)),
		op1Cache: make(map[circuit.Mat2][]dd.MEdge),
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
	b.runStart = b.runEnd
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

// ApplyOp implements sim.Backend. It only records op i: it extends the
// pending run when i follows it, and otherwise applies the run first
// and starts a new one at i.
func (b *Backend) ApplyOp(i int) {
	if i != b.runEnd {
		b.flush()
		b.runStart = i
	}
	b.runEnd = i + 1
}

// flush applies the pending run to the state, largest aligned block
// first: from each position it takes the highest kept block that starts
// there and ends inside the run.
func (b *Backend) flush() {
	if b.runStart == b.runEnd {
		return
	}
	if b.blocks == nil {
		b.buildBlocks()
	}
	for i, end := b.runStart, b.runEnd; i < end; {
		op, l := b.gates[i], 0
		for l < len(b.blocks) && i&(2<<l-1) == 0 && i+2<<l <= end {
			blk := b.blocks[l][i>>(l+1)]
			if blk.W == nil {
				break
			}
			op = blk
			l++
		}
		b.setState(b.pkg.MulMV(op, b.state))
		b.blockApps++
		i += 1 << l
	}
	b.runStart = b.runEnd
}

// buildBlocks builds and pins the block products, level by level and
// in op order within a level. A block is built only when both halves
// are kept; a single op counts as kept when it is a gate. Its build
// may take blockStepsPerNode steps per node of the halves, and it is
// kept only when it has no more nodes than the halves together.
func (b *Backend) buildBlocks() {
	size := make([]int, len(b.gates)) // nodes per kept op; 0 = not kept
	for i, op := range b.circ.Ops {
		if op.Kind == circuit.KindGate {
			size[i] = b.pkg.NodeCountM(b.gates[i])
		}
	}
	below := b.gates
	b.blocks = make([][]dd.MEdge, 0, maxBlockLevel)
	for l := 0; l < maxBlockLevel && len(size) > 1; l++ {
		level := make([]dd.MEdge, len(size)/2)
		up := make([]int, len(level))
		for k := range level {
			s0, s1 := size[2*k], size[2*k+1]
			if s0 == 0 || s1 == 0 {
				continue
			}
			// Ops apply left to right: the later half multiplies last.
			m, nodes, ok := b.pkg.MulMMBounded(below[2*k+1], below[2*k], blockStepsPerNode*(s0+s1))
			if !ok || nodes > s0+s1 {
				continue
			}
			b.pkg.RefM(m)
			level[k], up[k] = m, nodes
		}
		b.blocks = append(b.blocks, level)
		below, size = level, up
	}
}

// ApplyPauli implements sim.Backend.
func (b *Backend) ApplyPauli(p sim.Pauli, qubit int) {
	if p == sim.PauliI {
		return
	}
	var u circuit.Mat2
	switch p {
	case sim.PauliX:
		u = circuit.MatX
	case sim.PauliY:
		u = circuit.MatY
	case sim.PauliZ:
		u = circuit.MatZ
	}
	b.flush()
	b.setState(b.pkg.MulMV(b.op1(u, qubit), b.state))
}

// op1 returns the diagram of the 2×2 noise operator u on qubit, built
// and pinned on first use and memoised for the backend's lifetime.
func (b *Backend) op1(u circuit.Mat2, qubit int) dd.MEdge {
	gs, ok := b.op1Cache[u]
	if !ok {
		gs = make([]dd.MEdge, b.circ.NumQubits)
		b.op1Cache[u] = gs
	}
	if gs[qubit].W == nil { // not built yet: every built edge has a weight
		gs[qubit] = b.pkg.SingleQubitGate(dd.Mat2(u), qubit)
		b.pkg.RefM(gs[qubit])
	}
	return gs[qubit]
}

// ProbOne implements sim.Backend.
func (b *Backend) ProbOne(qubit int) float64 {
	b.flush()
	return b.pkg.ProbOne(b.state, qubit)
}

// Collapse implements sim.Backend.
func (b *Backend) Collapse(qubit, outcome int, prob float64) {
	if prob <= 0 {
		panic("ddback: Collapse with non-positive probability")
	}
	b.flush()
	var u circuit.Mat2
	u[outcome][outcome] = 1
	out := b.pkg.MulMV(b.op1(u, qubit), b.state)
	b.setState(b.rescale(out, prob))
}

// ApplyMatrix applies the 2×2 u to target under the given controls.
// The stochastic path applies compiled ops through ApplyOp; this is
// the entry for matrices no circuit op names, such as the conjugated
// column half of a gate in the exact engine's vec(ρ) program.
func (b *Backend) ApplyMatrix(u circuit.Mat2, target int, controls []circuit.Control) {
	b.flush()
	g := b.pkg.ControlledGate(dd.Mat2(u), target, ddControls(controls))
	b.setState(b.pkg.MulMV(g, b.state))
}

// Mix folds a snapshot into the current state, ψ ← w·ψ + wo·s, and
// releases the snapshot's pin, so s must not be used afterwards.
// Mix(s, 0, 1) makes s the current state.
func (b *Backend) Mix(s sim.State, w, wo float64) {
	b.flush()
	o := s.(dd.VEdge)
	out := b.pkg.Add(b.scaled(b.state, w), b.scaled(o, wo))
	b.pkg.Unref(o)
	b.setState(out)
}

// scaled returns e with its weight multiplied by f.
func (b *Backend) scaled(e dd.VEdge, f float64) dd.VEdge {
	return dd.VEdge{N: e.N, W: b.pkg.W.LookupC(e.W.Complex() * complex(f, 0))}
}

// rescale divides the state by √norm2.
func (b *Backend) rescale(e dd.VEdge, norm2 float64) dd.VEdge {
	return b.scaled(e, 1/math.Sqrt(norm2))
}

// ApplyDamping implements sim.Backend (Example 6 of the paper).
func (b *Backend) ApplyDamping(qubit int, p float64, fire bool, branchProb float64) {
	if branchProb <= 0 {
		panic("ddback: ApplyDamping with non-positive branch probability")
	}
	u := circuit.Mat2{{1, 0}, {0, complex(math.Sqrt(1-p), 0)}}
	if fire {
		u = circuit.Mat2{{0, complex(math.Sqrt(p), 0)}, {0, 0}}
	}
	b.flush()
	out := b.pkg.MulMV(b.op1(u, qubit), b.state)
	b.setState(b.rescale(out, branchProb))
}

// ApplyKraus2 implements sim.Backend for the exact engine's 4×4
// superoperators: the operator on (q0, q1) is decomposed into
// Σ_{ij} |i⟩⟨j|_{q0} ⊗ B_{ij,q1}, a sum of products of single-qubit
// diagrams on disjoint qubits, built once per (q0, q1, u) and memoised.
func (b *Backend) ApplyKraus2(q0, q1 int, u [4][4]complex128, branchProb float64) {
	if branchProb <= 0 {
		panic("ddback: ApplyKraus2 with non-positive branch probability")
	}
	b.flush()
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
	b.flush()
	return b.pkg.SampleBasis(b.state, rng)
}

// Probability implements sim.Backend.
func (b *Backend) Probability(idx uint64) float64 {
	b.flush()
	return b.pkg.Probability(b.state, idx)
}

// Norm2 implements sim.Backend.
func (b *Backend) Norm2() float64 {
	b.flush()
	return b.pkg.Norm2(b.state)
}

// State exposes the current decision diagram (read-only) for
// diagnostics and experiments.
func (b *Backend) State() dd.VEdge {
	b.flush()
	return b.state
}

// Package exposes the underlying DD package for diagnostics, with the
// pending run applied.
func (b *Backend) Package() *dd.Package {
	b.flush()
	return b.pkg
}

// NodeCount returns the size of the current state's diagram — the
// paper's compactness measure.
func (b *Backend) NodeCount() int {
	b.flush()
	return b.pkg.NodeCount(b.state)
}

// TableStats implements sim.TableStatser with the underlying DD
// package's unique- and compute-table counters.
func (b *Backend) TableStats() sim.TableStats {
	b.flush()
	s := b.pkg.Stats()
	out := sim.TableStats{
		UniqueLookups:     int64(s.UniqueLookups),
		UniqueHits:        int64(s.UniqueHits),
		ComputeLookups:    int64(s.ComputeLookups),
		ComputeHits:       int64(s.ComputeHits),
		ComputeConflicts:  int64(s.ComputeConflicts),
		NodesCreated:      int64(s.NodesCreated),
		PeakNodes:         int64(s.PeakVNodes),
		GCRuns:            int64(s.GCRuns),
		UniqueMaxProbe:    int64(s.UniqueMaxProbe),
		UniqueLoad:        s.UniqueLoad,
		BlockApplications: b.blockApps,
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
	b.flush()
	b.pkg.Ref(b.state)
	return b.state
}

// Restore implements sim.Forker: the captured diagram becomes the
// current state again. Cheap by construction — one root-edge refcount
// bump plus the release of the previous state; the snapshot keeps its
// own pin, so it can be restored any number of times.
func (b *Backend) Restore(s sim.State) {
	b.runStart = b.runEnd
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

// Release implements sim.Releaser: the underlying DD package puts its
// memory (tables, compute caches, node slabs, weight table) back on its
// register class's free list for reuse by future backends. The backend, its snapshots and its
// state handles must not be used afterwards.
func (b *Backend) Release() {
	b.pkg.Release()
	b.state = dd.VEdge{}
	b.runStart = b.runEnd
	b.gates, b.blocks = nil, nil
	b.op1Cache, b.kraus2Cache = nil, nil
}

// FidelityTo implements sim.Snapshotter via the DD inner product.
func (b *Backend) FidelityTo(s sim.Snapshot) float64 {
	b.flush()
	return b.pkg.Fidelity(s.(dd.VEdge), b.state)
}
