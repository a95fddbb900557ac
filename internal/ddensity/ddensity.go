// Package ddensity implements deterministic noisy simulation with
// decision diagrams: the density matrix ρ itself is stored as a
// matrix DD and every error channel is applied exactly,
// ρ → Σ_k K_k ρ K_k†, using the DD engine's matrix algebra.
//
// This is the approach of Grurl, Fuß and Wille, "Considering
// decoherence errors in the simulation of quantum circuits using
// decision diagrams" (ICCAD 2020) — reference [20] of the reproduced
// paper, by the same group. The DATE 2021 paper positions stochastic
// simulation *against* this deterministic alternative: tracking ρ
// exactly squares the representation (2^n × 2^n), but produces exact
// probabilities with a single pass instead of M samples. Keeping both
// engines in one repository makes the trade-off measurable — see
// BenchmarkAblationDeterministicDensityDD in bench_test.go and the
// "Exact-mode read-outs" section of docs/PERFORMANCE.md.
package ddensity

import (
	"fmt"
	"math"

	"ddsim/internal/circuit"
	"ddsim/internal/dd"
	"ddsim/internal/noise"
)

// Simulator evolves a density-matrix decision diagram.
type Simulator struct {
	pkg *dd.Package
	rho dd.MEdge
	n   int

	// kraus caches the embedded channel operators per (channel, qubit).
	kraus map[krausKey][]dd.MEdge
	// kraus2 caches embedded two-qubit channel operators per
	// (channel, qubit pair).
	kraus2 map[krausKey2][]dd.MEdge
}

type krausKey struct {
	channel string
	qubit   int
}

type krausKey2 struct {
	channel string
	q0, q1  int
}

// WeightTolerance is the edge-weight interning tolerance of the
// density-matrix DD package: far tighter than the stochastic engine's
// cnum.Tolerance default, so that the deterministic probabilities
// this simulator produces agree with the dense reference to ~1e-12
// even over long channel sequences. The cost is reduced node sharing
// for weights that differ below the default tolerance — acceptable,
// since exactness is the entire point of this engine.
const WeightTolerance = 1e-14

// New returns a simulator initialised to ρ = |0…0⟩⟨0…0| (an n-node
// projector chain — linear, like the zero state's vector DD).
func New(n int) *Simulator { return newTol(n, WeightTolerance) }

// newTol is New interning edge weights at tol.
func newTol(n int, tol float64) *Simulator {
	p := dd.NewPackageTol(n, tol)
	p0 := dd.Mat2{{1, 0}, {0, 0}}
	factors := make([]*dd.Mat2, n)
	for i := range factors {
		factors[i] = &p0
	}
	rho := p.ProductOperator(factors)
	p.RefM(rho)
	return &Simulator{
		pkg: p, rho: rho, n: n,
		kraus:  make(map[krausKey][]dd.MEdge),
		kraus2: make(map[krausKey2][]dd.MEdge),
	}
}

// NumQubits returns the register size.
func (s *Simulator) NumQubits() int { return s.n }

// Package exposes the underlying DD package (diagnostics, node counts).
func (s *Simulator) Package() *dd.Package { return s.pkg }

// Rho returns the current density diagram (read-only).
func (s *Simulator) Rho() dd.MEdge { return s.rho }

// NodeCount returns the size of the density diagram — the paper's
// compactness measure, squared representation included.
func (s *Simulator) NodeCount() int { return s.pkg.NodeCountM(s.rho) }

func (s *Simulator) setRho(r dd.MEdge) {
	s.pkg.RefM(r)
	s.pkg.UnrefM(s.rho)
	s.rho = r
	s.pkg.MaybeGC()
}

// ApplyGate conjugates the state with a (controlled) unitary:
// ρ → UρU†.
func (s *Simulator) ApplyGate(u circuit.Mat2, target int, controls []circuit.Control) {
	ctl := make([]dd.Control, len(controls))
	for i, c := range controls {
		ctl[i] = dd.Control{Qubit: c.Qubit, Negative: c.Negative}
	}
	g := s.pkg.ControlledGate(dd.Mat2(u), target, ctl)
	gd := s.pkg.ConjugateTranspose(g)
	s.setRho(s.pkg.MulMM(s.pkg.MulMM(g, s.rho), gd))
}

// ApplyChannel applies a single-qubit channel given by Kraus
// operators: ρ → Σ_k K ρ K†. The embedded operators are cached per
// (channel name, qubit).
func (s *Simulator) ApplyChannel(name string, kraus [][2][2]complex128, qubit int) {
	key := krausKey{channel: name, qubit: qubit}
	ops, ok := s.kraus[key]
	if !ok {
		for _, k := range kraus {
			e := s.pkg.SingleQubitGate(dd.Mat2(k), qubit)
			s.pkg.RefM(e)
			ops = append(ops, e)
		}
		s.kraus[key] = ops
	}
	acc := s.pkg.ZeroMEdge()
	for _, k := range ops {
		term := s.pkg.MulMM(s.pkg.MulMM(k, s.rho), s.pkg.ConjugateTranspose(k))
		acc = s.pkg.AddM(acc, term)
	}
	s.setRho(acc)
}

// ApplyChans1 applies compiled single-qubit channels exactly, in
// order; the embedded operators are cached under each channel's content
// key.
func (s *Simulator) ApplyChans1(chs []noise.Chan1) {
	for i := range chs {
		s.ApplyChannel(chs[i].Key(), chs[i].Kraus(), chs[i].Qubit)
	}
}

// ApplyChan2 applies one compiled correlated two-qubit channel
// exactly.
func (s *Simulator) ApplyChan2(ch *noise.Chan2) {
	s.ApplyChannel2(ch.Key(), ch.Kraus(), ch.Q0, ch.Q1)
}

// ApplyChannel2 applies a two-qubit channel given by 4×4 Kraus
// operators on the ordered pair (q0, q1), q0 on the high bit:
// ρ → Σ_k K ρ K†. Each operator is embedded once as
// Σ_{ij} |i⟩⟨j|_{q0} ⊗ B_{ij,q1} and cached.
func (s *Simulator) ApplyChannel2(name string, kraus [][4][4]complex128, q0, q1 int) {
	key := krausKey2{channel: name, q0: q0, q1: q1}
	ops, ok := s.kraus2[key]
	if !ok {
		for _, k := range kraus {
			e := s.embed2(k, q0, q1)
			s.pkg.RefM(e)
			ops = append(ops, e)
		}
		s.kraus2[key] = ops
	}
	acc := s.pkg.ZeroMEdge()
	for _, k := range ops {
		term := s.pkg.MulMM(s.pkg.MulMM(k, s.rho), s.pkg.ConjugateTranspose(k))
		acc = s.pkg.AddM(acc, term)
	}
	s.setRho(acc)
}

// embed2 assembles the diagram of a 4×4 operator on (q0, q1) from
// single-qubit factors on the two (disjoint) qubits.
func (s *Simulator) embed2(u [4][4]complex128, q0, q1 int) dd.MEdge {
	acc := s.pkg.ZeroMEdge()
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
			op := s.pkg.MulMM(s.pkg.SingleQubitGate(sel, q0), s.pkg.SingleQubitGate(blk, q1))
			acc = s.pkg.AddM(acc, op)
		}
	}
	return acc
}

// MeasureDecohere dephases one qubit (ρ → P0ρP0 + P1ρP1), the
// ensemble-averaged measurement.
func (s *Simulator) MeasureDecohere(qubit int) {
	s.ApplyChannel("measure", [][2][2]complex128{
		{{1, 0}, {0, 0}},
		{{0, 0}, {0, 1}},
	}, qubit)
}

// projector returns the embedded single-qubit projector
// |outcome⟩⟨outcome| on the qubit.
func (s *Simulator) projector(qubit, outcome int) dd.MEdge {
	var p dd.Mat2
	if outcome&1 == 0 {
		p = dd.Mat2{{1, 0}, {0, 0}}
	} else {
		p = dd.Mat2{{0, 0}, {0, 1}}
	}
	return s.pkg.SingleQubitGate(p, qubit)
}

// ProbOne returns tr(P1 ρ), the probability that measuring the qubit
// yields |1⟩: a diagonal walk (like Trace) that keeps only the |1⟩
// quadrant at the qubit's level — one cached O(nodes) pass, no
// operator product, no new nodes. This is the exact engine's
// measurement hot path (called once per live branch per measurement).
func (s *Simulator) ProbOne(qubit int) float64 {
	level := s.n - qubit // qubit 0 is the top level n
	cache := make(map[*dd.MNode]complex128)
	var walk func(e dd.MEdge) complex128
	walk = func(e dd.MEdge) complex128 {
		if e.IsZero() {
			return 0
		}
		if e.IsTerminal() {
			// Diagrams never skip levels, so a non-zero terminal means
			// the qubit's level has already been traversed.
			return e.W.Complex()
		}
		if r, ok := cache[e.N]; ok {
			return e.W.Complex() * r
		}
		var r complex128
		if e.N.Level == level {
			r = walk(e.N.E[3]) // restrict to the |1⟩⟨1| quadrant
		} else {
			r = walk(e.N.E[0]) + walk(e.N.E[3])
		}
		cache[e.N] = r
		return e.W.Complex() * r
	}
	return real(walk(s.rho))
}

// MeasureProject projects the qubit onto the given measurement
// outcome and renormalises: ρ → P ρ P / tr(P ρ), returning the
// outcome probability tr(P ρ). A (numerically) impossible outcome —
// probability at or below zero — leaves the state untouched and
// returns 0; callers branching on outcomes must check the returned
// probability. Post-selected counterpart of MeasureDecohere, backing
// the exact engine's outcome-history branching.
func (s *Simulator) MeasureProject(qubit, outcome int) float64 {
	proj := s.projector(qubit, outcome)
	projected := s.pkg.MulMM(s.pkg.MulMM(proj, s.rho), proj)
	p := (&Simulator{pkg: s.pkg, rho: projected, n: s.n}).Trace()
	if p <= 0 {
		return 0
	}
	s.setRho(s.scaled(projected, 1/p))
	return p
}

// Reset applies the deterministic reset channel (noise.ResetKraus)
// to one qubit: ρ → K0 ρ K0† + K1 ρ K1†; trace preserving, final
// qubit state |0⟩ regardless of entanglement.
func (s *Simulator) Reset(qubit int) {
	s.ApplyChannel("reset", noise.ResetKraus(), qubit)
}

// scaled returns e with its root weight multiplied by f.
func (s *Simulator) scaled(e dd.MEdge, f float64) dd.MEdge {
	return dd.MEdge{N: e.N, W: s.pkg.W.LookupC(e.W.Complex() * complex(f, 0))}
}

// Clone returns a branch copy of the simulator: the density diagram
// is shared structurally inside the same DD package (only the root
// reference count is bumped — the DD analogue of the stochastic
// engine's cheap fork), and the two copies evolve independently from
// here on. The Kraus operator cache is shared too; it is keyed by
// (channel, qubit) and read-only per entry.
func (s *Simulator) Clone() *Simulator {
	s.pkg.RefM(s.rho)
	return &Simulator{pkg: s.pkg, rho: s.rho, n: s.n, kraus: s.kraus, kraus2: s.kraus2}
}

// Release drops the clone's reference on its density diagram. Call it
// when discarding a branch created by Clone so the shared package can
// garbage-collect the nodes.
func (s *Simulator) Release() {
	s.pkg.UnrefM(s.rho)
	s.rho = s.pkg.ZeroMEdge()
}

// Mix replaces the state with the convex combination
// ρ → w·ρ + wo·ρ_o, merging two outcome-history branches (which must
// share the same underlying DD package, i.e. stem from Clone).
func (s *Simulator) Mix(o *Simulator, w, wo float64) {
	if o.pkg != s.pkg {
		panic("ddensity: Mix across DD packages")
	}
	s.setRho(s.pkg.AddM(s.scaled(s.rho, w), s.scaled(o.rho, wo)))
}

// Scale multiplies ρ by a scalar (used to renormalise merged branch
// mixtures).
func (s *Simulator) Scale(f float64) {
	s.setRho(s.scaled(s.rho, f))
}

// FidelityWithPure returns ⟨ψ|ρ|ψ⟩ for a pure reference state given
// as a dense amplitude vector.
func (s *Simulator) FidelityWithPure(psi []complex128) float64 {
	if len(psi) != 1<<uint(s.n) {
		panic("ddensity: reference state dimension mismatch")
	}
	psiE := s.pkg.FromVector(psi)
	return real(s.pkg.Dot(psiE, s.pkg.MulMV(s.rho, psiE)))
}

// Probability returns ⟨idx|ρ|idx⟩ by walking the diagonal path of the
// diagram (quadrant 0 for bit 0, quadrant 3 for bit 1).
func (s *Simulator) Probability(idx uint64) float64 {
	if s.n < 64 && idx >= 1<<uint(s.n) {
		panic(fmt.Sprintf("ddensity: basis index %d out of range", idx))
	}
	w := s.rho.W.Complex()
	cur := s.rho
	for !cur.IsTerminal() {
		node := cur.N
		bit := (idx >> uint(node.Level-1)) & 1
		cur = node.E[bit*3]
		w *= cur.W.Complex()
		if cur.N == nil && cur.W.Mag2() == 0 {
			return 0
		}
	}
	return real(w)
}

// Trace returns tr(ρ); trace-preserving evolution keeps it at 1.
func (s *Simulator) Trace() float64 {
	cache := make(map[*dd.MNode]complex128)
	var walk func(e dd.MEdge) complex128
	walk = func(e dd.MEdge) complex128 {
		if e.IsZero() {
			return 0
		}
		if e.IsTerminal() {
			return e.W.Complex()
		}
		if r, ok := cache[e.N]; ok {
			return e.W.Complex() * r
		}
		r := walk(e.N.E[0]) + walk(e.N.E[3])
		cache[e.N] = r
		return e.W.Complex() * r
	}
	return real(walk(s.rho))
}

// Purity returns tr(ρ²) = Σ_ij ρ_ij ρ_ji without forming ρ²: a walk over
// node pairs, tr(A·B) = Σ_rc tr(A_rc·B_cr) per quadrant, memoised per
// pair. It creates no node, no interned weight and no compute-cache entry.
func (s *Simulator) Purity() float64 {
	type pair struct{ a, b *dd.MNode }
	cache := make(map[pair]complex128)
	var walk func(a, b dd.MEdge) complex128
	walk = func(a, b dd.MEdge) complex128 {
		if a.IsZero() || b.IsZero() {
			return 0
		}
		w := a.W.Complex() * b.W.Complex()
		if a.IsTerminal() {
			return w // diagrams never skip levels: b is terminal too
		}
		k := pair{a.N, b.N}
		r, ok := cache[k]
		if !ok {
			x, y := a.N.E, b.N.E
			r = walk(x[0], y[0]) + walk(x[1], y[2]) + walk(x[2], y[1]) + walk(x[3], y[3])
			cache[k] = r
		}
		return w * r
	}
	return real(walk(s.rho, s.rho))
}

// Probabilities returns the full diagonal for small registers.
func (s *Simulator) Probabilities() []float64 {
	if s.n > 20 {
		panic("ddensity: Probabilities limited to 20 qubits")
	}
	out := make([]float64, 1<<uint(s.n))
	for i := range out {
		out[i] = s.Probability(uint64(i))
	}
	return out
}

// RunCircuit evolves a whole circuit deterministically under the
// noise model: gates as conjugations, errors as channels,
// measurements as dephasing. Classically conditioned operations are
// not representable in a deterministic mixed-state pass and are
// rejected.
func RunCircuit(c *circuit.Circuit, model noise.Model) (*Simulator, error) {
	return runCircuit(c, model, WeightTolerance)
}

// runCircuit is RunCircuit on a package interning edge weights at tol.
func runCircuit(c *circuit.Circuit, model noise.Model, tol float64) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i := range c.Ops {
		if c.Ops[i].Cond != nil {
			return nil, fmt.Errorf("ddensity: classically conditioned gates are not supported")
		}
	}
	plan, err := model.Compile(c)
	if err != nil {
		return nil, err
	}
	s := newTol(c.NumQubits, tol)
	for i := range c.Ops {
		op := &c.Ops[i]
		switch op.Kind {
		case circuit.KindGate:
			u, err := circuit.GateMatrix(op.Name, op.Params)
			if err != nil {
				return nil, fmt.Errorf("ddensity: op %d: %w", i, err)
			}
			on := plan.At(i)
			if on != nil {
				s.ApplyChans1(on.Pre)
			}
			s.ApplyGate(u, op.Target, op.Controls)
			if on != nil {
				s.ApplyChans1(on.Post)
				for k := range on.Post2 {
					s.ApplyChan2(&on.Post2[k])
				}
			}
		case circuit.KindMeasure:
			s.MeasureDecohere(op.Target)
		case circuit.KindReset:
			s.Reset(op.Target)
		case circuit.KindBarrier:
		}
	}
	// Numerical hygiene: renormalise the trace, which can drift by
	// ~1e-12 per channel over long circuits.
	if tr := s.Trace(); math.Abs(tr-1) > 1e-9 && tr > 0 {
		scaled := dd.MEdge{N: s.rho.N, W: s.pkg.W.LookupC(s.rho.W.Complex() * complex(1/tr, 0))}
		s.setRho(scaled)
	}
	return s, nil
}
