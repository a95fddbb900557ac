// Package dd implements the decision-diagram engine at the heart of
// the reproduced paper: quantum states are represented as vector
// decision diagrams and quantum operations as matrix decision
// diagrams, both with interned complex edge weights, hash-consed nodes
// (a unique table), memoised recursive operations (compute tables) and
// reference-counting garbage collection.
//
// The design follows the JKU decision diagram package (references
// [22], [24], [37], [39] of the paper):
//
//   - qubit q0 is the most significant qubit and sits at the top of
//     the diagram; a node's level is its distance from the terminal
//     (terminal = level 0, top node = level n);
//   - diagrams never skip levels: along every path there is a node at
//     every level, except that an edge with weight 0 terminates
//     immediately in a "zero stub";
//   - nodes are normalised so that the outgoing weight of largest
//     magnitude (leftmost on ties) is exactly 1, with the factor
//     propagated to the incoming edge;
//   - equal sub-diagrams are identified structurally in the unique
//     table, so equality of diagrams is pointer equality of edges;
//   - unique tables are custom hash tables over small integer
//     node/weight IDs — instances of the generic open-addressing
//     swiss.Table with control-byte group probing (internal/swiss),
//     probed with this package's hashes and key comparisons — and
//     compute tables are direct-mapped caches (lossy, overwrite on
//     collision) whose entries hold node and weight IDs, not pointers,
//     and whose mat-vec cache is sized from the register — the same
//     engineering that makes the C++ package fast, because generic
//     hash maps on the innermost loop dominate the profile otherwise.
//
// A Package is deliberately NOT safe for concurrent use. The
// stochastic simulator (internal/stochastic) exploits concurrency
// *across* simulation runs — each worker owns a private Package — and
// not within a single run, exactly as proposed in Section IV-C of the
// paper.
package dd

import (
	"fmt"

	"ddsim/internal/cnum"
	"ddsim/internal/swiss"
)

// MaxQubits is the largest register size supported by the package.
// Basis states are addressed with uint64 bit masks, and the paper's
// evaluation tops out at 64 qubits as well.
const MaxQubits = 64

// VNode is a vector decision diagram node with two successors
// (the represented sub-vector split on this node's qubit).
type VNode struct {
	E     [2]VEdge
	Level int
	id    uint32
	ref   int32
	next  *VNode // free-list link (see freeVNode)
}

// MNode is a matrix decision diagram node with four successors
// (the represented sub-matrix split into quadrants: E[0] upper-left,
// E[1] upper-right, E[2] lower-left, E[3] lower-right).
type MNode struct {
	E     [4]MEdge
	Level int
	id    uint32
	ref   int32
	seen  uint64 // walk epoch that last visited the node (NodeCountM)
	next  *MNode
}

// VEdge is a weighted edge to a vector node. N == nil denotes the
// terminal: either a leaf amplitude (level-0 edge) or, when W is the
// canonical zero, a zero stub that cuts the diagram short.
type VEdge struct {
	N *VNode
	W *cnum.Value
}

// MEdge is a weighted edge to a matrix node, with the same terminal
// conventions as VEdge.
type MEdge struct {
	N *MNode
	W *cnum.Value
}

// IsTerminal reports whether the edge points to the terminal node.
func (e VEdge) IsTerminal() bool { return e.N == nil }

// IsZero reports whether the edge is the zero stub.
func (e VEdge) IsZero() bool { return e.N == nil && e.W.Mag2() == 0 }

// IsTerminal reports whether the edge points to the terminal node.
func (e MEdge) IsTerminal() bool { return e.N == nil }

// IsZero reports whether the edge is the zero stub.
func (e MEdge) IsZero() bool { return e.N == nil && e.W.Mag2() == 0 }

// Level returns the level of the sub-diagram the edge points to
// (0 for terminal edges).
func (e VEdge) Level() int {
	if e.N == nil {
		return 0
	}
	return e.N.Level
}

// Level returns the level of the sub-diagram the edge points to.
func (e MEdge) Level() int {
	if e.N == nil {
		return 0
	}
	return e.N.Level
}

func vid(n *VNode) uint32 {
	if n == nil {
		return 0
	}
	return n.id
}

func mid(n *MNode) uint32 {
	if n == nil {
		return 0
	}
	return n.id
}

// vKey is a vector node's ID relative to the package's ID window, 0 for
// the terminal: the form every hash mixes in, so slot choices are those
// of a package whose IDs start at 1.
func (p *Package) vKey(n *VNode) uint64 {
	if n == nil {
		return 0
	}
	return uint64(n.id - p.vBase)
}

// mKey is the matrix analogue of vKey.
func (p *Package) mKey(n *MNode) uint64 {
	if n == nil {
		return 0
	}
	return uint64(n.id - p.mBase)
}

// mixHash folds a sequence of small integers into a 64-bit hash
// (splitmix64-style finalisation between words).
func mixHash(words ...uint64) uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, w := range words {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// Compute-cache entries. Every cache is direct-mapped and lossy by
// design: a collision overwrites the previous entry, bounding memory and
// avoiding any per-operation allocation, exactly as in the reference
// C++ package (geometry in newCacheSet). Entries hold node and weight
// IDs instead of pointers — half the bytes per entry, and no cache
// memory for the Go collector to scan — and results are resolved back
// through the arenas (vnodeAt, mnodeAt, cnum.Table.ByID). A package's
// node IDs lie above the vBase/mBase of its ID window (see arena.go),
// so a slot whose key node ID is at or below the base is empty: never
// written, or written by an earlier package of the table set. Slot
// indices hash IDs relative to the base (vKey, mKey). An ID stays
// bound to its node or weight until the next GarbageCollect, the only
// point where slots are recycled, and that clears every cache.

// edgeRef is a cached result edge: node ID (0 = terminal) and weight ID.
type edgeRef struct{ n, w uint32 }

func vRef(e VEdge) edgeRef { return edgeRef{vid(e.N), e.W.ID()} }
func mRef(e MEdge) edgeRef { return edgeRef{mid(e.N), e.W.ID()} }

func (p *Package) vEdgeOf(r edgeRef) VEdge { return VEdge{N: p.vnodeAt(r.n), W: p.W.ByID(r.w)} }
func (p *Package) mEdgeOf(r edgeRef) MEdge { return MEdge{N: p.mnodeAt(r.n), W: p.W.ByID(r.w)} }

// pairEntry memoises an operation on two nodes (MulMV, MulMM); key is
// a.id<<32 | b.id.
type pairEntry struct {
	key uint64
	r   edgeRef
}

// pairKey packs two non-zero node IDs into a pairEntry key.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// tripleEntry memoises an operation on two nodes and a relative weight
// (Add, AddM).
type tripleEntry struct {
	a, b, bw uint32
	r        edgeRef
}

type dotEntry struct {
	key uint64 // pairKey
	r   complex128
}

type norm2Entry struct {
	n uint32
	v float64
}

type probEntry struct {
	n     uint32
	level int32
	v     float64
}

// Package owns every table required for DD-based simulation of one
// register size: the complex-value table, the unique tables, the
// compute tables and the squared-norm caches. Create one per worker
// goroutine; a Package must not be shared between goroutines.
type Package struct {
	nQubits int

	// tableSet is all the memory the package keeps (see arena.go): the
	// weight table W, the unique tables (open-addressing swiss tables,
	// see swisstable.go), the compute caches and the node slabs, taken
	// from and put back on the free list of the package's register
	// class. vCount/mCount track the live unique-table populations.
	tableSet
	vCount  int
	nextVID uint32
	mCount  int
	nextMID uint32

	// Free lists of node slots recycled by GarbageCollect.
	vFree        *VNode
	mFree        *MNode
	nodesCreated int
	released     bool

	// factorScratch is the reusable per-qubit factor list of
	// ProductOperator callers (gate builders, collapse, Kraus
	// application) — a Package is single-goroutine by contract.
	factorScratch []*Mat2

	// bound is the budget and cache journal of the MulMMBounded build
	// in progress, pointing at boundState; nil outside one.
	bound      *mmBound
	boundState mmBound

	// mEpoch numbers the NodeCountM walks: a node whose seen field
	// holds the current epoch was visited by the current walk. 64 bits
	// never wrap, and take no more room in MNode than 32 (padding).
	mEpoch uint64

	// gcThreshold triggers automatic garbage collection when the
	// combined unique-table population exceeds it; wGCThreshold does
	// the same for the weight table. Doubled when a collection frees
	// too little.
	gcThreshold  int
	wGCThreshold int
	gcRuns       int

	peakVNodes int

	// Table-activity counters (plain ints — a Package is
	// single-goroutine by design). Unique-table lookups/hits count
	// makeVNode/makeMNode hash-consing probes; compute lookups/hits
	// count probes of every memoisation cache (add, multiply, dot,
	// norm and probability).
	uLookups, uHits uint64
	cLookups, cHits uint64
	cConflicts      uint64

	// Probe-length telemetry for the unique tables (see noteProbe):
	// probeHist[i] counts probes of length i+1, the last bucket
	// absorbing longer ones; maxProbe is the longest probe observed
	// over the package's lifetime, across both tables.
	probeHist [9]uint64
	maxProbe  int
}

// Stats is a snapshot of a package's table statistics — the inputs to
// the paper's compactness discussion (node counts) and to the
// cache-effectiveness telemetry (hit rates).
type Stats struct {
	// VNodes and MNodes are the live unique-table populations;
	// Weights is the interned edge-weight count.
	VNodes, MNodes, Weights int
	// NodesCreated counts vector nodes ever created, PeakVNodes the
	// high-water mark of the live population, GCRuns the collections.
	NodesCreated, PeakVNodes, GCRuns int
	// UniqueLookups counts every makeVNode/makeMNode hash-consing
	// probe of this package (vector and matrix tables combined);
	// UniqueHits the subset that found an existing node. Both are
	// per-Package lifetime totals: they accumulate monotonically from
	// construction and survive GarbageCollect (a collection removes
	// nodes, not history).
	// ComputeLookups/ComputeHits: memoisation-cache probes that hit.
	UniqueLookups, UniqueHits   uint64
	ComputeLookups, ComputeHits uint64
	// ComputeConflicts counts the compute-cache misses that evicted a
	// resident entry (the slot held a different key) rather than
	// filling an empty slot — the conflict-miss rate of the
	// direct-mapped caches. Evictions fall with capacity: a larger
	// mat-vec cache is what recovered them, where 2-way sets of the
	// same size did not (docs/PERFORMANCE.md). Counted on the miss
	// path only, so the hot hit path is untouched.
	ComputeConflicts uint64
	// UniqueProbe is the unique-table probe-length histogram:
	// UniqueProbe[i] counts probes that examined i+1 control-word
	// groups, with the last bucket absorbing longer probes.
	// UniqueMaxProbe is the longest probe ever observed; UniqueLoad the
	// current resident fraction of the table's slot capacity. Together
	// they are the evidence that rehash-on-load keeps lookups at one
	// cache line.
	UniqueProbe    [9]uint64
	UniqueMaxProbe int
	UniqueLoad     float64
}

// Stats returns the package's current table statistics.
func (p *Package) Stats() Stats {
	s := Stats{
		VNodes:           p.vCount,
		MNodes:           p.mCount,
		Weights:          p.W.Count(),
		NodesCreated:     p.NodesCreated(),
		PeakVNodes:       p.peakVNodes,
		GCRuns:           p.gcRuns,
		UniqueLookups:    p.uLookups,
		UniqueHits:       p.uHits,
		ComputeLookups:   p.cLookups,
		ComputeHits:      p.cHits,
		ComputeConflicts: p.cConflicts,
		UniqueProbe:      p.probeHist,
		UniqueMaxProbe:   p.maxProbe,
	}
	if slots := (p.vt.Groups() + p.mt.Groups()) * swiss.GroupSize; slots > 0 {
		s.UniqueLoad = float64(p.vCount+p.mCount) / float64(slots)
	}
	return s
}

// NewPackage creates a package for registers of exactly n qubits
// (1 ≤ n ≤ MaxQubits), interning edge weights at the default
// cnum.Tolerance.
func NewPackage(n int) *Package {
	return NewPackageTol(n, cnum.Tolerance)
}

// NewPackageTol creates a package whose weight table identifies
// complex values within tol per component. The stochastic engine uses
// the default (maximal node sharing); the exact density-matrix engine
// passes a much tighter tolerance so deterministic results carry no
// visible interning error.
func NewPackageTol(n int, tol float64) *Package {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("dd: unsupported qubit count %d (want 1..%d)", n, MaxQubits))
	}
	return newPackageOn(n, tol, getTableSet(mvCacheBits(n)))
}

// newPackageOn builds a package on the unit ts, numbering its nodes
// from the unit's ID windows and interning weights at tol.
func newPackageOn(n int, tol float64, ts tableSet) *Package {
	ts.W.Reset(tol)
	return &Package{
		nQubits:      n,
		nextVID:      ts.vBase + 1,
		nextMID:      ts.mBase + 1,
		gcThreshold:  250000,
		wGCThreshold: 400000,
		tableSet:     ts,
	}
}

// NumQubits returns the register size the package was created for.
func (p *Package) NumQubits() int { return p.nQubits }

// qubitToLevel converts a qubit index (0 = most significant, as in the
// paper's figures) to a diagram level.
func (p *Package) qubitToLevel(q int) int {
	if q < 0 || q >= p.nQubits {
		panic(fmt.Sprintf("dd: qubit %d out of range [0,%d)", q, p.nQubits))
	}
	return p.nQubits - q
}

// levelToQubit converts a diagram level to a qubit index.
func (p *Package) levelToQubit(level int) int { return p.nQubits - level }

// clearCaches empties every compute cache. GarbageCollect needs it
// because it recycles node IDs; Release, only when it restarts the ID
// windows (see arena.go).
func (p *Package) clearCaches() {
	c := &p.caches
	clear(c.mv)
	clear(c.add)
	clear(c.madd)
	clear(c.mm)
	clear(c.dot)
	clear(c.norm2)
	clear(c.prob)
}

// ZeroEdge returns the canonical zero stub for vectors.
func (p *Package) ZeroEdge() VEdge { return VEdge{N: nil, W: p.W.Zero} }

// ZeroMEdge returns the canonical zero stub for matrices.
func (p *Package) ZeroMEdge() MEdge { return MEdge{N: nil, W: p.W.Zero} }

// TerminalEdge returns a terminal vector edge carrying weight w.
func (p *Package) TerminalEdge(w *cnum.Value) VEdge { return VEdge{N: nil, W: w} }

// VNodeCount returns the number of live vector nodes in the unique table.
func (p *Package) VNodeCount() int { return p.vCount }

// PeakVNodes returns the high-water mark of the vector unique table,
// a proxy for the memory footprint of a simulation.
func (p *Package) PeakVNodes() int { return p.peakVNodes }

// GCRuns returns how many garbage collections the package performed.
func (p *Package) GCRuns() int { return p.gcRuns }

// NodesCreated returns the total number of vector nodes ever
// materialised (fresh or recycled), a measure of construction work
// independent of garbage collection.
func (p *Package) NodesCreated() int { return p.nodesCreated }

// factorSlice returns the package's scratch per-qubit factor list,
// cleared. Callers must consume it before the next factorSlice call
// (gate builders, collapse and Kraus application do not nest).
func (p *Package) factorSlice() []*Mat2 {
	if p.factorScratch == nil {
		p.factorScratch = make([]*Mat2, p.nQubits)
	}
	clear(p.factorScratch)
	return p.factorScratch
}

// vHash hashes a vector node key (level, child ids, normalised weight
// ids).
func (p *Package) vHash(level int, e0, e1 VEdge) uint64 {
	return mixHash(uint64(level),
		p.vKey(e0.N), uint64(e0.W.ID()),
		p.vKey(e1.N), uint64(e1.W.ID()))
}

// mHash is the matrix analogue of vHash.
func (p *Package) mHash(level int, e [4]MEdge) uint64 {
	return mixHash(uint64(level),
		p.mKey(e[0].N), uint64(e[0].W.ID()),
		p.mKey(e[1].N), uint64(e[1].W.ID()),
		p.mKey(e[2].N), uint64(e[2].W.ID()),
		p.mKey(e[3].N), uint64(e[3].W.ID()))
}

// makeVNode normalises and hash-conses a vector node at the given
// level from two candidate child edges, returning the canonical edge.
//
// Normalisation divides both outgoing weights by the weight of largest
// magnitude (leftmost on ties), which becomes the weight of the
// returned edge. If both children are zero the zero stub is returned.
func (p *Package) makeVNode(level int, e0, e1 VEdge) VEdge {
	z0, z1 := e0.IsZero(), e1.IsZero()
	if z0 && z1 {
		return p.ZeroEdge()
	}
	// Normalise zero stubs to the canonical representation.
	if z0 {
		e0 = p.ZeroEdge()
	}
	if z1 {
		e1 = p.ZeroEdge()
	}

	var top *cnum.Value
	if e0.W.Mag2() >= e1.W.Mag2() {
		top = e0.W
	} else {
		top = e1.W
	}
	w0 := p.W.Div(e0.W, top)
	w1 := p.W.Div(e1.W, top)

	p.uLookups++
	h := p.vHash(level, VEdge{e0.N, w0}, VEdge{e1.N, w1})
	hit, plen, slot := p.findV(h, level, e0.N, w0, e1.N, w1)
	p.noteProbe(plen)
	if hit != nil {
		p.uHits++
		return VEdge{N: hit, W: top}
	}
	n := p.allocVNode()
	n.E[0] = VEdge{N: e0.N, W: w0}
	n.E[1] = VEdge{N: e1.N, W: w1}
	if p.vt.Full(p.vCount) {
		p.rehashV(false)  // skips n: its Level is still 0
		p.vt.Insert(h, n) // the rehash moved the insertion point
	} else {
		p.vt.Place(slot, h, n)
	}
	n.Level = level
	p.vCount++
	if p.vCount > p.peakVNodes {
		p.peakVNodes = p.vCount
	}
	return VEdge{N: n, W: top}
}

// makeMNode is the matrix analogue of makeVNode with four children.
func (p *Package) makeMNode(level int, e [4]MEdge) MEdge {
	allZero := true
	for i := range e {
		if e[i].IsZero() {
			e[i] = p.ZeroMEdge()
		} else {
			allZero = false
		}
	}
	if allZero {
		return p.ZeroMEdge()
	}

	top := e[0].W
	for i := 1; i < 4; i++ {
		if e[i].W.Mag2() > top.Mag2() {
			top = e[i].W
		}
	}
	var norm [4]MEdge
	for i := range e {
		norm[i] = MEdge{N: e[i].N, W: p.W.Div(e[i].W, top)}
	}

	p.uLookups++
	h := p.mHash(level, norm)
	hit, plen, slot := p.findM(h, level, norm)
	p.noteProbe(plen)
	if hit != nil {
		p.uHits++
		return MEdge{N: hit, W: top}
	}
	n := p.allocMNode()
	n.E = norm
	if p.mt.Full(p.mCount) {
		p.rehashM(false) // skips n: its Level is still 0
		p.mt.Insert(h, n)
	} else {
		p.mt.Place(slot, h, n)
	}
	n.Level = level
	p.mCount++
	return MEdge{N: n, W: top}
}

// scaleV returns e with its weight multiplied by w. A product that
// underflows the interning tolerance snaps to the canonical zero
// weight; the result is then the zero stub, never a zero-weighted
// edge to a live node (Add/AddM factor incoming weights out by
// division, so a semantically-zero edge must also be structurally
// zero).
func (p *Package) scaleV(e VEdge, w *cnum.Value) VEdge {
	if e.IsZero() || w == p.W.Zero {
		return p.ZeroEdge()
	}
	nw := p.W.Mul(e.W, w)
	if nw == p.W.Zero {
		return p.ZeroEdge()
	}
	return VEdge{N: e.N, W: nw}
}

// scaleM returns e with its weight multiplied by w, with the same
// zero-stub guarantee as scaleV.
func (p *Package) scaleM(e MEdge, w *cnum.Value) MEdge {
	if e.IsZero() || w == p.W.Zero {
		return p.ZeroMEdge()
	}
	nw := p.W.Mul(e.W, w)
	if nw == p.W.Zero {
		return p.ZeroMEdge()
	}
	return MEdge{N: e.N, W: nw}
}
