// Package density implements an exact density-matrix simulator: the
// "rigorous mathematical formalism" of the paper's Section III
// (quantum channels and mixed states) that stochastic simulation
// deliberately avoids at scale. Here it serves as ground truth for
// small registers: the Monte-Carlo estimates of internal/stochastic
// must converge to the probabilities this simulator computes exactly,
// which is what the convergence tests and the Theorem 1 experiment
// verify.
package density

import (
	"fmt"
	"math/cmplx"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
)

// MaxQubits bounds the register size: density matrices are 4^n
// complex numbers, amplifying the curse of dimensionality exactly as
// the paper warns.
const MaxQubits = 10

// Simulator evolves a density matrix ρ under gates and channels.
type Simulator struct {
	n   int
	dim int
	rho [][]complex128

	// chanSuper/chanSuper2 cache the superoperators of compiled
	// channels, keyed by operator content: a run of adjacent same-qubit
	// channels under its joined Chan1.Key()s, a two-qubit channel under
	// its Chan2.Key(). Clones share the maps: branches of one exact run
	// evolve sequentially in a single goroutine.
	chanSuper  map[string]*[4][4]complex128
	chanSuper2 map[string]*[16][16]complex128
}

// New returns a simulator initialised to ρ = |0…0⟩⟨0…0|.
func New(n int) (*Simulator, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("density: %d qubits outside supported range 1..%d", n, MaxQubits)
	}
	dim := 1 << uint(n)
	s := &Simulator{n: n, dim: dim, rho: make([][]complex128, dim)}
	for i := range s.rho {
		s.rho[i] = make([]complex128, dim)
	}
	s.rho[0][0] = 1
	return s, nil
}

// NumQubits returns the register size.
func (s *Simulator) NumQubits() int { return s.n }

// bitOf maps qubit index to bit position (q0 most significant).
func (s *Simulator) bitOf(q int) uint { return uint(s.n - 1 - q) }

// ApplyGate conjugates ρ with the (controlled) single-target unitary:
// ρ → UρU†.
func (s *Simulator) ApplyGate(u circuit.Mat2, target int, controls []circuit.Control) {
	bit := s.bitOf(target)
	var mask, want uint64
	for _, c := range controls {
		m := uint64(1) << s.bitOf(c.Qubit)
		mask |= m
		if !c.Negative {
			want |= m
		}
	}
	s.leftMultiply(u, bit, mask, want)
	s.rightMultiplyDagger(u, bit, mask, want)
}

// leftMultiply sets ρ ← AρA acting on columns (ρ ← Aρ).
func (s *Simulator) leftMultiply(a circuit.Mat2, bit uint, mask, want uint64) {
	stride := uint64(1) << bit
	for col := 0; col < s.dim; col++ {
		for base := uint64(0); base < uint64(s.dim); base += 2 * stride {
			for i := base; i < base+stride; i++ {
				if i&mask != want {
					continue
				}
				r0 := s.rho[i][col]
				r1 := s.rho[i|stride][col]
				s.rho[i][col] = a[0][0]*r0 + a[0][1]*r1
				s.rho[i|stride][col] = a[1][0]*r0 + a[1][1]*r1
			}
		}
	}
}

// rightMultiplyDagger sets ρ ← ρA†, implemented as applying conj(A)
// to every row: (ρA†)[i][j] = Σ_k conj(A[j][k]) ρ[i][k].
func (s *Simulator) rightMultiplyDagger(a circuit.Mat2, bit uint, mask, want uint64) {
	stride := uint64(1) << bit
	c00, c01 := cmplx.Conj(a[0][0]), cmplx.Conj(a[0][1])
	c10, c11 := cmplx.Conj(a[1][0]), cmplx.Conj(a[1][1])
	for row := 0; row < s.dim; row++ {
		r := s.rho[row]
		for base := uint64(0); base < uint64(s.dim); base += 2 * stride {
			for j := base; j < base+stride; j++ {
				if j&mask != want {
					continue
				}
				r0 := r[j]
				r1 := r[j|stride]
				r[j] = c00*r0 + c01*r1
				r[j|stride] = c10*r0 + c11*r1
			}
		}
	}
}

// ApplyChannel applies a single-qubit channel with the given Kraus
// operators to one qubit: ρ → Σ_k K ρ K†.
func (s *Simulator) ApplyChannel(kraus [][2][2]complex128, qubit int) {
	bit := s.bitOf(qubit)
	acc := make([][]complex128, s.dim)
	for i := range acc {
		acc[i] = make([]complex128, s.dim)
	}
	saved := s.rho
	for _, k := range kraus {
		s.rho = cloneMatrix(saved)
		s.leftMultiply(circuit.Mat2(k), bit, 0, 0)
		s.rightMultiplyDagger(circuit.Mat2(k), bit, 0, 0)
		for i := range acc {
			for j := range acc[i] {
				acc[i][j] += s.rho[i][j]
			}
		}
	}
	s.rho = acc
}

func cloneMatrix(m [][]complex128) [][]complex128 {
	out := make([][]complex128, len(m))
	for i := range m {
		out[i] = make([]complex128, len(m[i]))
		copy(out[i], m[i])
	}
	return out
}

// ApplySuperOp applies a single-qubit superoperator to one qubit: for
// every 2×2 block of ρ over the qubit's bit position, the vectorised
// block [ρ00, ρ01, ρ10, ρ11] is mapped through sup. One pass touches
// every matrix entry exactly once, with no allocation.
func (s *Simulator) ApplySuperOp(sup *[4][4]complex128, qubit int) {
	stride := uint64(1) << s.bitOf(qubit)
	dim := uint64(s.dim)
	for rb := uint64(0); rb < dim; rb += 2 * stride {
		for r0 := rb; r0 < rb+stride; r0++ {
			r1 := r0 | stride
			rowA, rowB := s.rho[r0], s.rho[r1]
			for cb := uint64(0); cb < dim; cb += 2 * stride {
				for c0 := cb; c0 < cb+stride; c0++ {
					c1 := c0 | stride
					a, b := rowA[c0], rowA[c1]
					c, d := rowB[c0], rowB[c1]
					rowA[c0] = sup[0][0]*a + sup[0][1]*b + sup[0][2]*c + sup[0][3]*d
					rowA[c1] = sup[1][0]*a + sup[1][1]*b + sup[1][2]*c + sup[1][3]*d
					rowB[c0] = sup[2][0]*a + sup[2][1]*b + sup[2][2]*c + sup[2][3]*d
					rowB[c1] = sup[3][0]*a + sup[3][1]*b + sup[3][2]*c + sup[3][3]*d
				}
			}
		}
	}
}

// ApplyChans1 applies compiled single-qubit channels exactly, in
// order. Adjacent channels on one qubit — the depolarising → damping →
// phase-flip run a plan binds to every qubit a gate touched — are
// composed into a single cached superoperator, so the run costs one
// O(4^n) blockwise pass instead of one per channel: the dense engine's
// hot path.
func (s *Simulator) ApplyChans1(chs []noise.Chan1) {
	for i := 0; i < len(chs); {
		j := i + 1
		for j < len(chs) && chs[j].Qubit == chs[i].Qubit {
			j++
		}
		s.ApplySuperOp(s.fusedSuper(chs[i:j]), chs[i].Qubit)
		i = j
	}
}

// fusedSuper returns the superoperator of a run of same-qubit channels
// applied first to last.
func (s *Simulator) fusedSuper(run []noise.Chan1) *[4][4]complex128 {
	key := run[0].Key()
	for k := 1; k < len(run); k++ {
		key += "|" + run[k].Key()
	}
	if sup, ok := s.chanSuper[key]; ok {
		return sup
	}
	sup := noise.Super1(run[0].Kraus())
	for k := 1; k < len(run); k++ {
		next := noise.Super1(run[k].Kraus())
		var prod [4][4]complex128
		for i := range prod {
			for j := range prod[i] {
				for l := range next[i] {
					prod[i][j] += next[i][l] * sup[l][j]
				}
			}
		}
		sup = prod
	}
	if s.chanSuper == nil {
		s.chanSuper = make(map[string]*[4][4]complex128)
	}
	s.chanSuper[key] = &sup
	return &sup
}

// ApplyChan2 applies one compiled correlated two-qubit channel
// exactly, via a cached 16×16 superoperator.
func (s *Simulator) ApplyChan2(ch *noise.Chan2) {
	if s.chanSuper2 == nil {
		s.chanSuper2 = make(map[string]*[16][16]complex128)
	}
	sup, ok := s.chanSuper2[ch.Key()]
	if !ok {
		v := noise.Super2(ch.Kraus())
		sup = &v
		s.chanSuper2[ch.Key()] = sup
	}
	s.ApplySuperOp2(sup, ch.Q0, ch.Q1)
}

// ApplySuperOp2 applies a two-qubit superoperator to the ordered pair
// (q0, q1), q0 on the high bit: for every 4×4 block of ρ over the two
// bit positions, the vectorised block [ρ(ij)] (row index i*4+j) is
// mapped through sup. Like ApplySuperOp, one pass touches every
// matrix entry exactly once.
func (s *Simulator) ApplySuperOp2(sup *[16][16]complex128, q0, q1 int) {
	m0 := uint64(1) << s.bitOf(q0)
	m1 := uint64(1) << s.bitOf(q1)
	pair := m0 | m1
	offs := [4]uint64{0, m1, m0, pair}
	dim := uint64(s.dim)
	var vec, out [16]complex128
	for r := uint64(0); r < dim; r++ {
		if r&pair != 0 {
			continue
		}
		for c := uint64(0); c < dim; c++ {
			if c&pair != 0 {
				continue
			}
			for i := 0; i < 4; i++ {
				row := s.rho[r|offs[i]]
				for j := 0; j < 4; j++ {
					vec[i*4+j] = row[c|offs[j]]
				}
			}
			for k := 0; k < 16; k++ {
				var sum complex128
				for l := 0; l < 16; l++ {
					sum += sup[k][l] * vec[l]
				}
				out[k] = sum
			}
			for i := 0; i < 4; i++ {
				row := s.rho[r|offs[i]]
				for j := 0; j < 4; j++ {
					row[c|offs[j]] = out[i*4+j]
				}
			}
		}
	}
}

// MeasureDecohere dephases one qubit in the computational basis
// (ρ → P0ρP0 + P1ρP1) — the ensemble-average effect of a projective
// measurement whose outcome is not post-selected. This matches
// averaging the stochastic driver's measured trajectories.
func (s *Simulator) MeasureDecohere(qubit int) {
	p0 := [2][2]complex128{{1, 0}, {0, 0}}
	p1 := [2][2]complex128{{0, 0}, {0, 1}}
	s.ApplyChannel([][2][2]complex128{p0, p1}, qubit)
}

// ProbOne returns tr(P1 ρ), the probability that measuring the qubit
// yields |1⟩.
func (s *Simulator) ProbOne(qubit int) float64 {
	bit := s.bitOf(qubit)
	p := 0.0
	for i := uint64(0); i < uint64(s.dim); i++ {
		if i>>bit&1 == 1 {
			p += real(s.rho[i][i])
		}
	}
	return p
}

// MeasureProject projects the qubit onto the given measurement
// outcome and renormalises: ρ → P ρ P / tr(P ρ). It returns the
// outcome probability tr(P ρ). A (numerically) impossible outcome —
// probability at or below zero — leaves the state untouched and
// returns 0; callers branching on outcomes must check the returned
// probability. This is the post-selected counterpart of
// MeasureDecohere and the operation backing the exact engine's
// outcome-history branching.
func (s *Simulator) MeasureProject(qubit, outcome int) float64 {
	bit := s.bitOf(qubit)
	want := uint64(outcome) & 1
	p := 0.0
	for i := uint64(0); i < uint64(s.dim); i++ {
		if i>>bit&1 == want {
			p += real(s.rho[i][i])
		}
	}
	if p <= 0 {
		return 0
	}
	inv := complex(1/p, 0)
	for i := uint64(0); i < uint64(s.dim); i++ {
		for j := uint64(0); j < uint64(s.dim); j++ {
			if i>>bit&1 != want || j>>bit&1 != want {
				s.rho[i][j] = 0
			} else {
				s.rho[i][j] *= inv
			}
		}
	}
	return p
}

// Reset applies the deterministic reset channel (noise.ResetKraus)
// to one qubit: ρ → K0 ρ K0† + K1 ρ K1†, trace preserving, final
// qubit state |0⟩ regardless of prior state or entanglement.
func (s *Simulator) Reset(qubit int) {
	s.ApplyChannel(noise.ResetKraus(), qubit)
}

// Clone returns an independent deep copy of the simulator state, the
// fork point of the exact engine's outcome-history branching.
func (s *Simulator) Clone() *Simulator {
	return &Simulator{
		n: s.n, dim: s.dim, rho: cloneMatrix(s.rho),
		chanSuper: s.chanSuper, chanSuper2: s.chanSuper2,
	}
}

// Mix replaces the state with the convex combination
// ρ → w·ρ + wo·ρ_o, merging two outcome-history branches back into
// one mixed state (w and wo are the branch probabilities; they should
// sum to the combined branch weight).
func (s *Simulator) Mix(o *Simulator, w, wo float64) {
	if o.dim != s.dim {
		panic("density: Mix dimension mismatch")
	}
	cw, cwo := complex(w, 0), complex(wo, 0)
	for i := range s.rho {
		for j := range s.rho[i] {
			s.rho[i][j] = cw*s.rho[i][j] + cwo*o.rho[i][j]
		}
	}
}

// Scale multiplies ρ by a scalar (used to renormalise merged branch
// mixtures).
func (s *Simulator) Scale(f float64) {
	cf := complex(f, 0)
	for i := range s.rho {
		for j := range s.rho[i] {
			s.rho[i][j] *= cf
		}
	}
}

// Probability returns ⟨idx|ρ|idx⟩, the outcome probability of one
// basis state.
func (s *Simulator) Probability(idx uint64) float64 {
	return real(s.rho[idx][idx])
}

// Probabilities returns the diagonal of ρ.
func (s *Simulator) Probabilities() []float64 {
	out := make([]float64, s.dim)
	for i := range out {
		out[i] = real(s.rho[i][i])
	}
	return out
}

// Trace returns tr(ρ); it must remain 1 under trace-preserving
// evolution.
func (s *Simulator) Trace() complex128 {
	var t complex128
	for i := 0; i < s.dim; i++ {
		t += s.rho[i][i]
	}
	return t
}

// Purity returns tr(ρ²) ∈ (0, 1]; 1 for pure states, smaller for
// mixtures produced by noise.
func (s *Simulator) Purity() float64 {
	p := 0.0
	for i := 0; i < s.dim; i++ {
		for j := 0; j < s.dim; j++ {
			p += real(s.rho[i][j] * s.rho[j][i])
		}
	}
	return p
}

// FidelityWithPure returns ⟨ψ|ρ|ψ⟩ for a pure reference state.
func (s *Simulator) FidelityWithPure(psi []complex128) float64 {
	if len(psi) != s.dim {
		panic("density: reference state dimension mismatch")
	}
	var f complex128
	for i := 0; i < s.dim; i++ {
		for j := 0; j < s.dim; j++ {
			f += cmplx.Conj(psi[i]) * s.rho[i][j] * psi[j]
		}
	}
	return real(f)
}

// RunCircuit evolves the exact mixed state of the circuit under the
// noise model: gates as unitaries, noise as channels, measurements as
// dephasing channels, resets as dephasing followed by conditional
// flip-to-zero (amplitude set via the reset channel |0⟩⟨0|+|0⟩⟨1|).
func RunCircuit(c *circuit.Circuit, model noise.Model) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	hasCond := false
	for i := range c.Ops {
		if c.Ops[i].Cond != nil {
			hasCond = true
		}
	}
	if hasCond {
		return nil, fmt.Errorf("density: classically conditioned gates are not supported by the exact reference")
	}
	s, err := New(c.NumQubits)
	if err != nil {
		return nil, err
	}
	plan, err := model.Compile(c)
	if err != nil {
		return nil, err
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		switch op.Kind {
		case circuit.KindGate:
			u, err := circuit.GateMatrix(op.Name, op.Params)
			if err != nil {
				return nil, fmt.Errorf("density: op %d: %w", i, err)
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
	return s, nil
}
