// Package statevec implements the dense state-vector baseline: a
// 2^n-element amplitude array with per-gate bit-twiddling update
// kernels. This is the algorithm class of IBM Qiskit's statevector
// simulator (reference [12] of the paper), against which the proposed
// DD simulator is compared in Tables Ia–Ic. Its per-gate cost is
// Θ(2^n) regardless of state structure — the "curse of
// dimensionality" the paper's Section III describes — but not
// regardless of gate structure: every op is compiled once to the
// cheapest kernel the zeros of its 2×2 admit — diagonal, anti-diagonal,
// real (every imaginary part zero: H, RY) or general — and a kernel
// visits only the amplitudes its controls select, one index at a time
// where runs are too short to slice (kernels.go).
//
// ApplyOp only queues: it extends a pending run of consecutive op
// indices, and every other method that reads or replaces the state
// applies the run first. Each maximal run of at least minDiagRun
// consecutive diagonal ops is compiled in New to one table of its
// product diagonal, and a pending run that holds the whole of it
// applies it as one pass over the amplitudes it can touch (diagrun.go);
// every other op keeps its own kernel.
package statevec

import (
	"fmt"
	"math"
	"math/rand"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// MaxQubits bounds the register size: 2^26 amplitudes (1 GiB) is the
// largest state this baseline will allocate.
const MaxQubits = 26

// compiledGate is an op as the kernels run it: the matrix, the kernel
// its zeros admit, and the amplitude pairs its target and controls
// select. All three are fixed when the circuit is compiled.
type compiledGate struct {
	u      circuit.Mat2
	kernel kernel
	sub    subspace
	ctrl   uint64 // the control bits
}

// Backend is the dense state-vector simulation backend.
type Backend struct {
	n     int
	v     []complex128
	circ  *circuit.Circuit
	gates []compiledGate
	// diagAt[i] is the compiled diagonal run that starts at op i, or
	// nil.
	diagAt []*diagRun
	// runStart, runEnd delimit the pending run: ops [runStart, runEnd)
	// are queued and not yet applied to v.
	runStart, runEnd int
}

// New compiles the circuit and allocates the amplitude array.
func New(c *circuit.Circuit) (*Backend, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits exceeds the %d-qubit memory limit", c.NumQubits, MaxQubits)
	}
	gates, err := compileCircuit(c)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		n:     c.NumQubits,
		v:     make([]complex128, 1<<uint(c.NumQubits)),
		circ:  c,
		gates: gates,
	}
	b.compileRuns()
	b.Reset()
	return b, nil
}

// compileRuns plans the compiled gates' diagonal runs and builds their
// tables.
func (b *Backend) compileRuns() {
	b.diagAt = make([]*diagRun, len(b.gates))
	for _, r := range planDiagRuns(b.circ, b.gates) {
		r.build(b.gates)
		b.diagAt[r.start] = r
	}
}

// compileCircuit compiles every gate of c; other ops stay zero-valued.
func compileCircuit(c *circuit.Circuit) ([]compiledGate, error) {
	gates := make([]compiledGate, len(c.Ops))
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != circuit.KindGate {
			continue
		}
		u, err := sim.ResolveOp(op)
		if err != nil {
			return nil, fmt.Errorf("statevec: op %d: %w", i, err)
		}
		gates[i] = compileOp(c.NumQubits, u, op.Target, op.Controls)
	}
	return gates, nil
}

// Factory returns a sim.Factory creating state-vector backends.
func Factory() sim.Factory {
	return func(c *circuit.Circuit) (sim.Backend, error) { return New(c) }
}

// bitOf maps qubit index (0 = most significant) to its bit position in
// basis-state indices, matching the DD engine's convention.
func (b *Backend) bitOf(q int) uint { return bitOf(b.n, q) }

func bitOf(n, q int) uint { return uint(n - 1 - q) }

// Name implements sim.Backend.
func (b *Backend) Name() string { return "statevec" }

// NumQubits implements sim.Backend.
func (b *Backend) NumQubits() int { return b.n }

// Reset implements sim.Backend. It drops the pending run.
func (b *Backend) Reset() {
	b.runStart = b.runEnd
	for i := range b.v {
		b.v[i] = 0
	}
	b.v[0] = 1
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

// flush applies the pending run: each compiled diagonal run that lies
// wholly inside it as one table pass, every other op by its kernel.
func (b *Backend) flush() {
	for i, end := b.runStart, b.runEnd; i < end; {
		if r := b.diagAt[i]; r != nil && r.end <= end {
			r.apply(b.v)
			i = r.end
			continue
		}
		b.applyCompiled(&b.gates[i])
		i++
	}
	b.runStart = b.runEnd
}

// compileOp compiles u on a target qubit of an n-qubit register under
// controls.
func compileOp(n int, u circuit.Mat2, target int, controls []circuit.Control) compiledGate {
	var ctrlMask, ctrlWant uint64
	for _, ctl := range controls {
		m := uint64(1) << bitOf(n, ctl.Qubit)
		ctrlMask |= m
		if !ctl.Negative {
			ctrlWant |= m
		}
	}
	return compileGate(1<<uint(n), u, bitOf(n, target), ctrlMask, ctrlWant)
}

// ApplyMatrix applies the 2×2 u to target under the given controls.
// The stochastic path applies compiled ops through ApplyOp; this is
// the entry for matrices no circuit op names, such as the conjugated
// column half of a gate in the exact engine's vec(ρ) program.
func (b *Backend) ApplyMatrix(u circuit.Mat2, target int, controls []circuit.Control) {
	b.flush()
	g := compileOp(b.n, u, target, controls)
	b.applyCompiled(&g)
}

// Mix folds a snapshot into the current state, ψ ← w·ψ + wo·s.
// Mix(s, 0, 1) makes s the current state.
func (b *Backend) Mix(s sim.State, w, wo float64) {
	b.flush()
	o := s.([]complex128)
	cw, co := complex(w, 0), complex(wo, 0)
	for i := range b.v {
		b.v[i] = cw*b.v[i] + co*o[i]
	}
}

// compileGate classifies a 2×2 on the given target bit and control
// condition of a dim-amplitude register.
func compileGate(dim int, u circuit.Mat2, bit uint, ctrlMask, ctrlWant uint64) compiledGate {
	return compiledGate{u: u, kernel: classify(u), sub: newSubspace(dim, bit, ctrlMask, ctrlWant), ctrl: ctrlMask}
}

func (b *Backend) applyCompiled(g *compiledGate) {
	switch g.kernel {
	case kernDiag:
		// A factor of exactly 1 leaves its half alone: a controlled
		// phase is one multiply on the amplitudes with control = target
		// = 1, a quarter of the register.
		if g.u[0][0] != 1 {
			scale(b.v, g.sub, 0, g.u[0][0])
		}
		if g.u[1][1] != 1 {
			scale(b.v, g.sub, g.sub.stride, g.u[1][1])
		}
	case kernAntiDiag:
		swapScale(b.v, g.sub, g.u[0][1], g.u[1][0])
	case kernReal:
		generalReal(b.v, g.sub, g.u)
	default:
		general(b.v, g.sub, g.u)
	}
}

// target is the subspace of an uncontrolled op on a qubit: every pair.
func (b *Backend) target(qubit int) subspace {
	return newSubspace(len(b.v), b.bitOf(qubit), 0, 0)
}

// ApplyPauli implements sim.Backend: X swaps the target's halves, Z
// negates the target-1 half, Y does both with a factor ∓i.
func (b *Backend) ApplyPauli(p sim.Pauli, qubit int) {
	b.flush()
	sub := b.target(qubit)
	switch p {
	case sim.PauliI:
	case sim.PauliX:
		swapScale(b.v, sub, 1, 1)
	case sim.PauliY:
		swapScale(b.v, sub, circuit.MatY[0][1], circuit.MatY[1][0])
	case sim.PauliZ:
		scale(b.v, sub, sub.stride, -1)
	}
}

// ProbOne implements sim.Backend. The target-1 half is summed in index
// order into one accumulator, so the rounding is that of a plain scan.
func (b *Backend) ProbOne(qubit int) float64 {
	b.flush()
	sub := b.target(qubit)
	sum := 0.0
	for s := uint64(0); ; {
		i := s | sub.stride
		for _, a := range b.v[i : i+sub.run] {
			sum += real(a)*real(a) + imag(a)*imag(a)
		}
		if s = (s - sub.free) & sub.free; s == 0 {
			return sum
		}
	}
}

// Collapse implements sim.Backend.
func (b *Backend) Collapse(qubit, outcome int, prob float64) {
	if prob <= 0 {
		panic("statevec: Collapse with non-positive probability")
	}
	b.flush()
	sub := b.target(qubit)
	keep, drop := uint64(0), sub.stride
	if outcome == 1 {
		keep, drop = drop, keep
	}
	scale(b.v, sub, keep, complex(1/math.Sqrt(prob), 0))
	for s := uint64(0); ; {
		i := s | drop
		clear(b.v[i : i+sub.run])
		if s = (s - sub.free) & sub.free; s == 0 {
			return
		}
	}
}

// ApplyDamping implements sim.Backend: the branch's Kraus operator and
// the 1/√branchProb renormalisation in one pass over the pairs.
func (b *Backend) ApplyDamping(qubit int, p float64, fire bool, branchProb float64) {
	if branchProb <= 0 {
		panic("statevec: ApplyDamping with non-positive branch probability")
	}
	b.flush()
	damp(b.v, b.target(qubit), p, fire, 1/math.Sqrt(branchProb))
}

// ApplyKraus2 implements sim.Backend: the 4×4 update runs over all
// amplitude quadruples selected by the two target bits, with q0 on
// the high bit of the 2-qubit sub-basis. The quadruples' bases — the
// indices with both target bits 0 — are stepped through as the subsets
// of the other bits, in increasing order.
func (b *Backend) ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64) {
	if branchProb <= 0 {
		panic("statevec: ApplyKraus2 with non-positive branch probability")
	}
	b.flush()
	m0 := uint64(1) << b.bitOf(q0)
	m1 := uint64(1) << b.bitOf(q1)
	pair := m0 | m1
	free := uint64(len(b.v)-1) &^ pair
	for i := uint64(0); ; {
		a0 := b.v[i]
		a1 := b.v[i|m1]
		a2 := b.v[i|m0]
		a3 := b.v[i|pair]
		b.v[i] = k[0][0]*a0 + k[0][1]*a1 + k[0][2]*a2 + k[0][3]*a3
		b.v[i|m1] = k[1][0]*a0 + k[1][1]*a1 + k[1][2]*a2 + k[1][3]*a3
		b.v[i|m0] = k[2][0]*a0 + k[2][1]*a1 + k[2][2]*a2 + k[2][3]*a3
		b.v[i|pair] = k[3][0]*a0 + k[3][1]*a1 + k[3][2]*a2 + k[3][3]*a3
		if i = (i - free) & free; i == 0 {
			break
		}
	}
	if branchProb != 1 {
		s := complex(1/math.Sqrt(branchProb), 0)
		for i := range b.v {
			b.v[i] *= s
		}
	}
}

// SampleBasis implements sim.Backend.
func (b *Backend) SampleBasis(rng *rand.Rand) uint64 {
	b.flush()
	r := rng.Float64()
	acc := 0.0
	for i, a := range b.v {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return uint64(i)
		}
	}
	return uint64(len(b.v) - 1)
}

// Probability implements sim.Backend.
func (b *Backend) Probability(idx uint64) float64 {
	b.flush()
	a := b.v[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Norm2 implements sim.Backend.
func (b *Backend) Norm2() float64 {
	b.flush()
	sum := 0.0
	for _, a := range b.v {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return sum
}

// Amplitudes returns a copy of the state vector (tests and examples).
func (b *Backend) Amplitudes() []complex128 {
	b.flush()
	out := make([]complex128, len(b.v))
	copy(out, b.v)
	return out
}

// Snapshot implements sim.Snapshotter and sim.Forker by copying the
// amplitude array.
func (b *Backend) Snapshot() sim.Snapshot { return b.Amplitudes() }

// Restore implements sim.Forker: the captured amplitudes become the
// current state, and the pending run is dropped. The handle is copied
// from, never aliased, so it stays valid for further restores after the
// state mutates again.
func (b *Backend) Restore(s sim.State) {
	b.runStart = b.runEnd
	copy(b.v, s.([]complex128))
}

// StateCost implements sim.StateSizer: a dense checkpoint retains the
// full 2^n amplitude copy (16 bytes per amplitude) and pins no
// decision-diagram nodes.
func (b *Backend) StateCost(s sim.State) (nodes, bytes int64) {
	return 0, int64(len(s.([]complex128))) * 16
}

// FidelityTo implements sim.Snapshotter: |⟨snapshot|ψ⟩|².
func (b *Backend) FidelityTo(s sim.Snapshot) float64 {
	b.flush()
	ref := s.([]complex128)
	var dot complex128
	for i, a := range b.v {
		dot += complex(real(ref[i]), -imag(ref[i])) * a
	}
	return real(dot)*real(dot) + imag(dot)*imag(dot)
}
