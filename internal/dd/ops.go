package dd

import (
	"fmt"
	"math/cmplx"
)

// Add returns the element-wise sum a+b of two vector diagrams. Both
// operands must represent vectors of the same size (same level).
//
// The recursion factors the weight of a out of the computation so the
// compute-table key is (a.N, b.N, b.W/a.W): by bilinearity the cached
// result can be rescaled for every incoming weight combination.
func (p *Package) Add(a, b VEdge) VEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	// A zero-weighted edge to a live node is semantically zero even
	// though it is not the zero stub (a weight product can underflow
	// the interning tolerance). Treat it as zero here: the
	// normalisation below divides by a.W.
	if a.W == p.W.Zero {
		return b
	}
	if b.W == p.W.Zero {
		return a
	}
	if a.IsTerminal() != b.IsTerminal() {
		panic("dd: Add of vectors with different levels")
	}
	if a.IsTerminal() {
		return p.TerminalEdge(p.W.Add(a.W, b.W))
	}
	if a.N == b.N {
		w := p.W.Add(a.W, b.W)
		if w == p.W.Zero {
			return p.ZeroEdge()
		}
		return VEdge{N: a.N, W: w}
	}
	if a.N.Level != b.N.Level {
		panic("dd: Add of vectors with different levels")
	}

	bw := p.W.Div(b.W, a.W)
	p.cLookups++
	c := p.caches.add
	ent := &c[mixHash(uint64(a.N.id), uint64(b.N.id), uint64(bw.ID()))&uint64(len(c)-1)]
	if ent.a == a.N.id && ent.b == b.N.id && ent.bw == bw.ID() {
		p.cHits++
		return p.scaleV(p.vEdgeOf(ent.r), a.W)
	}
	if ent.a != 0 {
		p.cConflicts++
	}

	e0 := p.Add(a.N.E[0], p.scaleV(b.N.E[0], bw))
	e1 := p.Add(a.N.E[1], p.scaleV(b.N.E[1], bw))
	r := p.makeVNode(a.N.Level, e0, e1)
	*ent = tripleEntry{a: a.N.id, b: b.N.id, bw: bw.ID(), r: vRef(r)}
	return p.scaleV(r, a.W)
}

// AddM returns the element-wise sum of two matrix diagrams.
func (p *Package) AddM(a, b MEdge) MEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	// See Add: zero-weighted edges to live nodes are semantically
	// zero and must not reach the weight division below.
	if a.W == p.W.Zero {
		return b
	}
	if b.W == p.W.Zero {
		return a
	}
	if a.IsTerminal() != b.IsTerminal() {
		panic("dd: AddM of matrices with different levels")
	}
	if a.IsTerminal() {
		return MEdge{N: nil, W: p.W.Add(a.W, b.W)}
	}
	if a.N == b.N {
		w := p.W.Add(a.W, b.W)
		if w == p.W.Zero {
			return p.ZeroMEdge()
		}
		return MEdge{N: a.N, W: w}
	}
	if a.N.Level != b.N.Level {
		panic("dd: AddM of matrices with different levels")
	}

	bw := p.W.Div(b.W, a.W)
	p.cLookups++
	c := p.caches.madd
	ent := &c[mixHash(uint64(a.N.id), uint64(b.N.id), uint64(bw.ID()))&uint64(len(c)-1)]
	if ent.a == a.N.id && ent.b == b.N.id && ent.bw == bw.ID() {
		p.cHits++
		return p.scaleM(p.mEdgeOf(ent.r), a.W)
	}
	if ent.a != 0 {
		p.cConflicts++
	}

	var kids [4]MEdge
	for i := 0; i < 4; i++ {
		kids[i] = p.AddM(a.N.E[i], p.scaleM(b.N.E[i], bw))
	}
	r := p.makeMNode(a.N.Level, kids)
	*ent = tripleEntry{a: a.N.id, b: b.N.id, bw: bw.ID(), r: mRef(r)}
	return p.scaleM(r, a.W)
}

// SubM returns a−b for matrix diagrams.
func (p *Package) SubM(a, b MEdge) MEdge {
	return p.AddM(a, p.scaleM(b, p.W.Lookup(-1, 0)))
}

// MulMV applies the operator m to the state v (matrix–vector product).
// This is the workhorse of simulation: one call per gate or error
// event. Results are memoised on the node pair; scalar weights are
// factored out, so the cache is valid for any incoming weights.
func (p *Package) MulMV(m MEdge, v VEdge) VEdge {
	if m.IsZero() || v.IsZero() {
		return p.ZeroEdge()
	}
	w := p.W.Mul(m.W, v.W)
	if m.IsTerminal() && v.IsTerminal() {
		return p.TerminalEdge(w)
	}
	if m.IsTerminal() || v.IsTerminal() {
		panic("dd: MulMV level mismatch")
	}
	if m.N.Level != v.N.Level {
		panic(fmt.Sprintf("dd: MulMV level mismatch (%d vs %d)", m.N.Level, v.N.Level))
	}

	p.cLookups++
	key := pairKey(m.N.id, v.N.id)
	c := p.caches.mv
	ent := &c[mixHash(uint64(m.N.id), uint64(v.N.id))&uint64(len(c)-1)]
	if ent.key == key {
		p.cHits++
		return p.scaleV(p.vEdgeOf(ent.r), w)
	}
	if ent.key != 0 {
		p.cConflicts++
	}

	var kids [2]VEdge
	for row := 0; row < 2; row++ {
		p0 := p.MulMV(m.N.E[2*row+0], v.N.E[0])
		p1 := p.MulMV(m.N.E[2*row+1], v.N.E[1])
		kids[row] = p.Add(p0, p1)
	}
	r := p.makeVNode(m.N.Level, kids[0], kids[1])
	*ent = pairEntry{key: key, r: vRef(r)}
	return p.scaleV(r, w)
}

// MulMM returns the matrix product a·b of two operator diagrams.
// Used by tests (unitarity checks) and by the matrix–matrix
// simulation mode of the ablation study (cf. reference [37]).
func (p *Package) MulMM(a, b MEdge) MEdge {
	if a.IsZero() || b.IsZero() {
		return p.ZeroMEdge()
	}
	w := p.W.Mul(a.W, b.W)
	if a.IsTerminal() && b.IsTerminal() {
		return MEdge{N: nil, W: w}
	}
	if a.IsTerminal() || b.IsTerminal() {
		panic("dd: MulMM level mismatch")
	}
	if a.N.Level != b.N.Level {
		panic("dd: MulMM level mismatch")
	}

	p.cLookups++
	key := pairKey(a.N.id, b.N.id)
	c := p.caches.mm
	ent := &c[mixHash(uint64(a.N.id), uint64(b.N.id), 7)&uint64(len(c)-1)]
	if ent.key == key {
		p.cHits++
		return p.scaleM(p.mEdgeOf(ent.r), w)
	}
	if ent.key != 0 {
		p.cConflicts++
	}

	var kids [4]MEdge
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			t0 := p.MulMM(a.N.E[2*row+0], b.N.E[0+col])
			t1 := p.MulMM(a.N.E[2*row+1], b.N.E[2+col])
			kids[2*row+col] = p.AddM(t0, t1)
		}
	}
	r := p.makeMNode(a.N.Level, kids)
	*ent = pairEntry{key: key, r: mRef(r)}
	return p.scaleM(r, w)
}

// Kron returns the Kronecker product a ⊗ b, where a acts on the more
// significant qubits. b's top level must leave room for a's levels
// below the package's qubit budget.
func (p *Package) Kron(a, b MEdge) MEdge {
	if a.IsZero() || b.IsZero() {
		return p.ZeroMEdge()
	}
	if a.IsTerminal() {
		return p.scaleM(b, a.W)
	}
	bTop := b.Level()

	p.cLookups++
	c := p.caches.kron
	ent := &c[mixHash(uint64(a.N.id), uint64(mid(b.N)), uint64(b.W.ID()), 13)&uint64(len(c)-1)]
	if ent.a == a.N.id && ent.b == mid(b.N) && ent.bw == b.W.ID() {
		p.cHits++
		return p.scaleM(p.mEdgeOf(ent.r), a.W)
	}
	if ent.a != 0 {
		p.cConflicts++
	}

	r := p.kronRec(MEdge{N: a.N, W: p.W.One}, b, bTop)
	*ent = tripleEntry{a: a.N.id, b: mid(b.N), bw: b.W.ID(), r: mRef(r)}
	return p.scaleM(r, a.W)
}

func (p *Package) kronRec(a, b MEdge, bTop int) MEdge {
	if a.IsZero() {
		return p.ZeroMEdge()
	}
	if a.IsTerminal() {
		return p.scaleM(b, a.W)
	}
	var kids [4]MEdge
	for i := 0; i < 4; i++ {
		kids[i] = p.kronRec(a.N.E[i], b, bTop)
	}
	e := p.makeMNode(a.N.Level+bTop, kids)
	return p.scaleM(e, a.W)
}

// Dot returns the inner product ⟨a|b⟩ (conjugate-linear in a).
func (p *Package) Dot(a, b VEdge) complex128 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	w := cmplx.Conj(a.W.Complex()) * b.W.Complex()
	if a.IsTerminal() && b.IsTerminal() {
		return w
	}
	if a.IsTerminal() || b.IsTerminal() || a.N.Level != b.N.Level {
		panic("dd: Dot of vectors with different levels")
	}

	p.cLookups++
	key := pairKey(a.N.id, b.N.id)
	c := p.caches.dot
	ent := &c[mixHash(uint64(a.N.id), uint64(b.N.id), 29)&uint64(len(c)-1)]
	if ent.key == key {
		p.cHits++
		return w * ent.r
	}
	if ent.key != 0 {
		p.cConflicts++
	}
	r := p.Dot(a.N.E[0], b.N.E[0]) + p.Dot(a.N.E[1], b.N.E[1])
	*ent = dotEntry{key: key, r: r}
	return w * r
}

// Fidelity returns |⟨a|b⟩|², the squared overlap of two pure states —
// the prototypical "quadratic property" of the paper's Section III.
func (p *Package) Fidelity(a, b VEdge) float64 {
	d := p.Dot(a, b)
	return real(d)*real(d) + imag(d)*imag(d)
}

// ConjugateTranspose returns the adjoint (dagger) of an operator
// diagram: quadrants 1 and 2 are swapped and all weights conjugated.
func (p *Package) ConjugateTranspose(m MEdge) MEdge {
	if m.IsTerminal() {
		return MEdge{N: nil, W: p.W.Conj(m.W)}
	}
	w := p.W.Conj(m.W)
	p.cLookups++
	c := p.caches.ct
	ent := &c[mixHash(uint64(m.N.id), 31)&uint64(len(c)-1)]
	if ent.m == m.N.id {
		p.cHits++
		return p.scaleM(p.mEdgeOf(ent.r), w)
	}
	if ent.m != 0 {
		p.cConflicts++
	}
	var kids [4]MEdge
	kids[0] = p.ConjugateTranspose(m.N.E[0])
	kids[1] = p.ConjugateTranspose(m.N.E[2])
	kids[2] = p.ConjugateTranspose(m.N.E[1])
	kids[3] = p.ConjugateTranspose(m.N.E[3])
	r := p.makeMNode(m.N.Level, kids)
	*ent = ctEntry{m: m.N.id, r: mRef(r)}
	return p.scaleM(r, w)
}
