package dd

import (
	"fmt"
	"math"
	"math/rand"
)

// Norm2 returns the squared 2-norm ⟨ψ|ψ⟩ of the represented vector.
// Per-node squared norms (with unit incoming weight) are cached, so
// repeated probability queries against an unchanged state are cheap.
func (p *Package) Norm2(e VEdge) float64 {
	return e.W.Mag2() * p.nodeNorm2(e.N)
}

func (p *Package) nodeNorm2(n *VNode) float64 {
	if n == nil {
		return 1
	}
	p.cLookups++
	c := p.caches.norm2
	ent := &c[mixHash(uint64(n.id), 41)&uint64(len(c)-1)]
	if ent.n == n.id {
		p.cHits++
		return ent.v
	}
	if ent.n != 0 {
		p.cConflicts++
	}
	r := n.E[0].W.Mag2()*p.nodeNorm2(n.E[0].N) +
		n.E[1].W.Mag2()*p.nodeNorm2(n.E[1].N)
	*ent = norm2Entry{n: n.id, v: r}
	return r
}

// Normalize rescales the root weight so the state has unit norm.
// Panics on the zero vector.
func (p *Package) Normalize(e VEdge) VEdge {
	n2 := p.Norm2(e)
	if n2 == 0 {
		panic("dd: cannot normalise the zero vector")
	}
	if math.Abs(n2-1) < 1e-14 {
		return e
	}
	s := 1 / math.Sqrt(n2)
	return VEdge{N: e.N, W: p.W.LookupC(e.W.Complex() * complex(s, 0))}
}

// ProbOne returns the probability that measuring the given qubit of
// the (normalised) state yields |1⟩. This is the quantity that drives
// the state-dependent amplitude-damping channel (Example 6).
func (p *Package) ProbOne(e VEdge, qubit int) float64 {
	level := p.qubitToLevel(qubit)
	return e.W.Mag2() * p.probOneNode(e.N, level)
}

func (p *Package) probOneNode(n *VNode, level int) float64 {
	if n == nil {
		// A zero stub above the target level contributes nothing; a
		// terminal below the target level cannot occur (no skipping).
		return 0
	}
	if n.Level == level {
		return n.E[1].W.Mag2() * p.nodeNorm2(n.E[1].N)
	}
	if n.Level < level {
		panic("dd: probOneNode descended past target level")
	}
	p.cLookups++
	c := p.caches.prob
	ent := &c[mixHash(uint64(n.id), uint64(level), 43)&uint64(len(c)-1)]
	if ent.n == n.id && int(ent.level) == level {
		p.cHits++
		return ent.v
	}
	if ent.n != 0 {
		p.cConflicts++
	}
	r := n.E[0].W.Mag2()*p.probOneNode(n.E[0].N, level) +
		n.E[1].W.Mag2()*p.probOneNode(n.E[1].N, level)
	*ent = probEntry{n: n.id, level: int32(level), v: r}
	return r
}

// SampleBasis draws one computational-basis outcome from the
// (normalised) state: a top-down walk choosing each branch with its
// conditional probability. Bit i of the result (LSB first) is the
// outcome of qubit q_{n-1-i}, i.e. the result is the state-vector
// index of the sampled basis state. Cost: O(n) per sample after the
// norm cache is warm.
func (p *Package) SampleBasis(e VEdge, rng *rand.Rand) uint64 {
	var bits uint64
	cur := e
	for !cur.IsTerminal() {
		n := cur.N
		p0 := n.E[0].W.Mag2() * p.nodeNorm2(n.E[0].N)
		p1 := n.E[1].W.Mag2() * p.nodeNorm2(n.E[1].N)
		total := p0 + p1
		if total <= 0 {
			panic("dd: SampleBasis on zero-norm subtree")
		}
		if rng.Float64()*total < p1 {
			bits |= 1 << uint(n.Level-1)
			cur = n.E[1]
		} else {
			cur = n.E[0]
		}
	}
	return bits
}

// Amplitude reconstructs the amplitude of basis state |idx⟩ by
// multiplying the edge weights along the corresponding path
// (Example 4 of the paper).
func (p *Package) Amplitude(e VEdge, idx uint64) complex128 {
	if p.nQubits < MaxQubits && idx >= 1<<uint(p.nQubits) {
		panic(fmt.Sprintf("dd: basis index %d out of range", idx))
	}
	w := e.W.Complex()
	cur := e
	for !cur.IsTerminal() {
		n := cur.N
		bit := (idx >> uint(n.Level-1)) & 1
		cur = n.E[bit]
		w *= cur.W.Complex()
		if cur.N == nil && cur.W.Mag2() == 0 {
			return 0
		}
	}
	return w
}

// Probability returns |⟨idx|ψ⟩|² for a basis state.
func (p *Package) Probability(e VEdge, idx uint64) float64 {
	a := p.Amplitude(e, idx)
	return real(a)*real(a) + imag(a)*imag(a)
}

// CollapseQubit projects the state onto the subspace where the given
// qubit reads outcome (0 or 1) and renormalises. It returns the
// post-measurement state together with the probability of the
// outcome. The probability of an impossible outcome is 0 and the
// returned state is the zero stub.
func (p *Package) CollapseQubit(e VEdge, qubit, outcome int) (VEdge, float64) {
	if outcome != 0 && outcome != 1 {
		panic("dd: measurement outcome must be 0 or 1")
	}
	p1 := p.ProbOne(e, qubit)
	prob := p1
	if outcome == 0 {
		prob = p.Norm2(e) - p1
	}
	if prob <= 0 {
		return p.ZeroEdge(), 0
	}

	proj := Mat2{}
	proj[outcome][outcome] = 1
	factors := p.factorSlice()
	factors[qubit] = &proj
	projected := p.MulMV(p.ProductOperator(factors), e)

	s := 1 / math.Sqrt(prob)
	return VEdge{N: projected.N, W: p.W.LookupC(projected.W.Complex() * complex(s, 0))}, prob
}

// MeasureQubit samples an outcome for one qubit, collapses the state
// accordingly and returns (outcome, collapsed state).
func (p *Package) MeasureQubit(e VEdge, qubit int, rng *rand.Rand) (int, VEdge) {
	p1 := p.ProbOne(e, qubit)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	collapsed, prob := p.CollapseQubit(e, qubit, outcome)
	if prob == 0 {
		// Numerical edge case: the sampled branch has zero mass.
		outcome = 1 - outcome
		collapsed, _ = p.CollapseQubit(e, qubit, outcome)
	}
	return outcome, collapsed
}

// ApplyKraus applies a (generally non-unitary) single-qubit Kraus
// operator to the state and returns the unnormalised result together
// with its squared norm — the probability weight of this branch when
// the input state was normalised (Example 6).
func (p *Package) ApplyKraus(e VEdge, k Mat2, qubit int) (VEdge, float64) {
	factors := p.factorSlice()
	factors[qubit] = &k
	out := p.MulMV(p.ProductOperator(factors), e)
	return out, p.Norm2(out)
}
