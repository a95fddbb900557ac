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
	ent := &c[mixHash(p.vKey(a.N), p.vKey(b.N), uint64(bw.ID()))&uint64(len(c)-1)]
	if ent.a == a.N.id && ent.b == b.N.id && ent.bw == bw.ID() {
		p.cHits++
		return p.scaleV(p.vEdgeOf(ent.r), a.W)
	}
	if ent.a > p.vBase {
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
	ent := &c[mixHash(p.mKey(a.N), p.mKey(b.N), uint64(bw.ID()))&uint64(len(c)-1)]
	if ent.a == a.N.id && ent.b == b.N.id && ent.bw == bw.ID() {
		p.cHits++
		return p.scaleM(p.mEdgeOf(ent.r), a.W)
	}
	if ent.a > p.mBase {
		p.cConflicts++
	}
	if p.bound != nil && !p.bound.step() {
		return p.ZeroMEdge()
	}

	var kids [4]MEdge
	for i := 0; i < 4; i++ {
		kids[i] = p.AddM(a.N.E[i], p.scaleM(b.N.E[i], bw))
	}
	if p.bound != nil {
		if p.bound.abandoned {
			return p.ZeroMEdge()
		}
		p.bound.madd = append(p.bound.madd, maddUndo{ent, *ent})
	}
	r := p.makeMNode(a.N.Level, kids)
	*ent = tripleEntry{a: a.N.id, b: b.N.id, bw: bw.ID(), r: mRef(r)}
	return p.scaleM(r, a.W)
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
	ent := &c[mixHash(p.mKey(m.N), p.vKey(v.N))&uint64(len(c)-1)]
	if ent.key == key {
		p.cHits++
		return p.scaleV(p.vEdgeOf(ent.r), w)
	}
	if uint32(ent.key>>32) > p.mBase {
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
// Used to assemble two-qubit operators from single-qubit ones, by
// tests (unitarity checks) and by the matrix–matrix simulation mode of
// the ablation study (cf. reference [37]).
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
	ent := &c[mixHash(p.mKey(a.N), p.mKey(b.N), 7)&uint64(len(c)-1)]
	if ent.key == key {
		p.cHits++
		return p.scaleM(p.mEdgeOf(ent.r), w)
	}
	if uint32(ent.key>>32) > p.mBase {
		p.cConflicts++
	}
	if p.bound != nil && !p.bound.step() {
		return p.ZeroMEdge()
	}

	var kids [4]MEdge
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			t0 := p.MulMM(a.N.E[2*row+0], b.N.E[0+col])
			t1 := p.MulMM(a.N.E[2*row+1], b.N.E[2+col])
			kids[2*row+col] = p.AddM(t0, t1)
		}
	}
	if p.bound != nil {
		if p.bound.abandoned {
			return p.ZeroMEdge()
		}
		p.bound.mm = append(p.bound.mm, mmUndo{ent, *ent})
	}
	r := p.makeMNode(a.N.Level, kids)
	*ent = pairEntry{key: key, r: mRef(r)}
	return p.scaleM(r, w)
}

// mmBound is the state of one MulMMBounded build: the cache-missing
// MulMM/AddM steps it may still take, whether it ran out of them, and
// every mm and madd slot it wrote, with the slot's previous contents.
type mmBound struct {
	left      int
	abandoned bool
	mm        []mmUndo
	madd      []maddUndo
}

type mmUndo struct {
	slot *pairEntry
	old  pairEntry
}

type maddUndo struct {
	slot *tripleEntry
	old  tripleEntry
}

// step charges one cache-missing step to the build and reports whether
// the step may run. Once none is left the build is abandoned: every
// later miss returns at once, and no frame above it builds a node or
// writes a cache entry, so the recursion unwinds in a few cache probes
// per level.
func (b *mmBound) step() bool {
	if b.left == 0 {
		b.abandoned = true
		return false
	}
	b.left--
	return true
}

// MulMMBounded is MulMM within a work budget, for products that are
// worth keeping only while they stay small: it gives up after steps
// cache-missing MulMM and AddM recursions. An abandoned build puts back
// every mm and madd cache slot it wrote, in reverse order, so it leaves
// no entry behind; the nodes and weights it made are unpinned garbage
// for the next collection. A finished build also reports the product's
// node count.
func (p *Package) MulMMBounded(a, b MEdge, steps int) (r MEdge, nodes int, ok bool) {
	bound := &p.boundState
	*bound = mmBound{left: steps, mm: bound.mm[:0], madd: bound.madd[:0]}
	p.bound = bound
	r = p.MulMM(a, b)
	p.bound = nil
	if bound.abandoned {
		for i := len(bound.mm) - 1; i >= 0; i-- {
			*bound.mm[i].slot = bound.mm[i].old
		}
		for i := len(bound.madd) - 1; i >= 0; i-- {
			*bound.madd[i].slot = bound.madd[i].old
		}
		return MEdge{}, 0, false
	}
	return r, p.NodeCountM(r), true
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
	ent := &c[mixHash(p.vKey(a.N), p.vKey(b.N), 29)&uint64(len(c)-1)]
	if ent.key == key {
		p.cHits++
		return w * ent.r
	}
	if uint32(ent.key>>32) > p.vBase {
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
