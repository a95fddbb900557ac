package dd

// The kernel memory plane: slab arenas and free lists for decision-
// diagram nodes, and process-wide pools (one per geometry) for the
// per-Package compute caches.
//
// makeVNode/makeMNode sit on the innermost simulation loop; allocating
// every transient node individually hands millions of short-lived,
// pointer-dense objects to the Go collector per noisy trajectory
// batch. Instead, nodes live in append-only slabs owned by their
// Package (backing arrays never move, so node pointers stay valid) and
// dead nodes are recycled through a free list when the package's own
// GarbageCollect drops them from the unique tables — the only point
// where no compute-cache entry or unique-table slot can still mention
// them. A recycled slot keeps the id it was assigned at first
// materialisation, so live node IDs stay dense and stable for the
// unique-table hashing, and an ID addresses its slot directly
// (vnodeAt, mnodeAt) — which is what lets the compute caches store IDs
// instead of pointers.
//
// The compute caches (nine direct-mapped tables, 3.1 or 6.1 MiB per
// Package depending on the register size, see newCacheSet) dominate
// the allocation profile of short jobs, where a fresh Package is
// compiled per worker per job. Release returns them — and the node
// slabs — to process-wide pools for the next Package.

import (
	"sync"

	"ddsim/internal/swiss"
)

// nodeSlabSize is the number of nodes per arena slab (VNode slabs are
// ~72 KiB, MNode slabs ~136 KiB at this size).
const nodeSlabSize = 1024

var vSlabPool = sync.Pool{
	New: func() interface{} {
		s := make([]VNode, 0, nodeSlabSize)
		return &s
	},
}

var mSlabPool = sync.Pool{
	New: func() interface{} {
		s := make([]MNode, 0, nodeSlabSize)
		return &s
	},
}

// cacheSet bundles the direct-mapped compute caches so they can be
// pooled as one unit across Package lifetimes. Sets are cleared before
// they are pooled, so a Get returns ready-to-use memory. Every cache
// length is a power of two; lookups index with hash & (len−1).
type cacheSet struct {
	mv    []pairEntry
	add   []tripleEntry
	madd  []tripleEntry
	mm    []pairEntry
	kron  []tripleEntry
	dot   []dotEntry
	ct    []ctEntry
	norm2 []norm2Entry
	prob  []probEntry
}

// Mat-vec cache geometries: 2^smallMVCacheBits entries below
// largeMVCacheQubits qubits, 2^largeMVCacheBits from there on.
const (
	smallMVCacheBits   = 16
	largeMVCacheBits   = 18
	largeMVCacheQubits = 24
)

// mvCacheBits sizes the mat-vec cache from the register. The mat-vec
// cache holds the gate × sub-state products that trajectories share:
// at 2^16 entries a 24-qubit QFT trajectory evicts a live entry on 412
// of its 1054 lookups, at 2^18 on 200 of 760, and beyond 2^18 time
// stays flat while memory grows. Smaller registers keep 2^16 entries
// because the 10-qubit service workload with 2^18 entries peaked
// 8 MiB higher in resident memory for no measured gain
// (docs/PERFORMANCE.md "Compute-cache geometry").
func mvCacheBits(n int) int {
	if n >= largeMVCacheQubits {
		return largeMVCacheBits
	}
	return smallMVCacheBits
}

// newCacheSet allocates a cache set whose mat-vec cache has 2^mvBits
// entries. The other caches have one geometry: add 2^16 (the partner
// of every mat-vec miss), the matrix-side caches (madd, mm, kron, ct)
// sized for gate construction and the exact engine, and the scalar
// read-out caches (dot, norm2, prob).
func newCacheSet(mvBits int) cacheSet {
	return cacheSet{
		mv:    make([]pairEntry, 1<<mvBits),
		add:   make([]tripleEntry, 1<<16),
		madd:  make([]tripleEntry, 1<<12),
		mm:    make([]pairEntry, 1<<12),
		kron:  make([]tripleEntry, 1<<10),
		dot:   make([]dotEntry, 1<<12),
		ct:    make([]ctEntry, 1<<10),
		norm2: make([]norm2Entry, 1<<15),
		prob:  make([]probEntry, 1<<13),
	}
}

// smallCacheSets and largeCacheSets pool the two geometries apart, so
// a 10-qubit job never draws (or clears) a 24-qubit job's cache.
var smallCacheSets, largeCacheSets sync.Pool

// cacheSetPool returns the pool for a mat-vec cache of mvLen entries.
func cacheSetPool(mvLen int) *sync.Pool {
	if mvLen == 1<<largeMVCacheBits {
		return &largeCacheSets
	}
	return &smallCacheSets
}

// getCacheSet returns a cleared cache set with a 2^mvBits-entry
// mat-vec cache, pooled when one is available.
func getCacheSet(mvBits int) cacheSet {
	if cs, ok := cacheSetPool(1 << mvBits).Get().(*cacheSet); ok {
		return *cs
	}
	return newCacheSet(mvBits)
}

// vnodeAt resolves a vector node ID to its arena slot; ID 0 is the
// terminal. allocVNode opens a slab only once the previous one is
// full, so ID k lives at slab (k−1)/nodeSlabSize, index
// (k−1)%nodeSlabSize.
func (p *Package) vnodeAt(id uint32) *VNode {
	if id == 0 {
		return nil
	}
	k := id - 1
	return &p.vSlabs[k/nodeSlabSize][k%nodeSlabSize]
}

// mnodeAt is the matrix analogue of vnodeAt.
func (p *Package) mnodeAt(id uint32) *MNode {
	if id == 0 {
		return nil
	}
	k := id - 1
	return &p.mSlabs[k/nodeSlabSize][k%nodeSlabSize]
}

// vTablePool/mTablePool recycle minimum-geometry swiss unique tables
// across Package lifetimes (same rationale as the cell-directory pool
// in cnum): short jobs compile a fresh Package per worker, and the
// initial table arrays would otherwise be re-allocated every time.
// Grown tables are dropped to the Go collector.
var vTablePool = sync.Pool{
	New: func() interface{} {
		t := swiss.NewTable[*VNode](minVGroups)
		return &t
	},
}

var mTablePool = sync.Pool{
	New: func() interface{} {
		t := swiss.NewTable[*MNode](minMGroups)
		return &t
	},
}

// allocVNode materialises a vector node: from the free list (recycled
// at the last GarbageCollect; the slot keeps its id) or from the
// current slab. The caller fills E and Level; ref is zero either way.
func (p *Package) allocVNode() *VNode {
	p.nodesCreated++
	if n := p.vFree; n != nil {
		p.vFree = n.next
		n.next = nil
		return n
	}
	if len(p.vSlabs) == 0 || len(p.vSlabs[len(p.vSlabs)-1]) == nodeSlabSize {
		p.vSlabs = append(p.vSlabs, (*vSlabPool.Get().(*[]VNode))[:0])
	}
	s := &p.vSlabs[len(p.vSlabs)-1]
	*s = append(*s, VNode{id: p.nextVID})
	p.nextVID++
	return &(*s)[len(*s)-1]
}

// allocMNode is the matrix analogue of allocVNode.
func (p *Package) allocMNode() *MNode {
	if n := p.mFree; n != nil {
		p.mFree = n.next
		n.next = nil
		return n
	}
	if len(p.mSlabs) == 0 || len(p.mSlabs[len(p.mSlabs)-1]) == nodeSlabSize {
		p.mSlabs = append(p.mSlabs, (*mSlabPool.Get().(*[]MNode))[:0])
	}
	s := &p.mSlabs[len(p.mSlabs)-1]
	*s = append(*s, MNode{id: p.nextMID})
	p.nextMID++
	return &(*s)[len(*s)-1]
}

// freeVNode pushes a node just dropped by GarbageCollect onto the free
// list. Edges are cleared so the dead node retains neither child nodes
// nor weights.
func (p *Package) freeVNode(n *VNode) {
	n.E[0] = VEdge{}
	n.E[1] = VEdge{}
	n.next = p.vFree
	p.vFree = n
}

// freeMNode is the matrix analogue of freeVNode.
func (p *Package) freeMNode(n *MNode) {
	for i := range n.E {
		n.E[i] = MEdge{}
	}
	n.next = p.mFree
	p.mFree = n
}

// Release returns the package's pooled kernel memory — compute caches,
// node slabs and the weight table's value slabs — to the process-wide
// pools for the next Package. The package (and every edge, node or
// weight obtained from it) must not be used afterwards; the unique
// tables are dropped so accidental use fails fast. Backends call this
// when a worker retires a compiled job (sim.Releaser).
func (p *Package) Release() {
	if p.released {
		return
	}
	p.released = true
	p.clearCaches()
	cs := p.caches
	cacheSetPool(len(cs.mv)).Put(&cs)
	p.caches = cacheSet{}
	for i := range p.vSlabs {
		s := p.vSlabs[i][:cap(p.vSlabs[i])]
		clear(s) // pooled slabs must not retain nodes or weights
		s = s[:0]
		vSlabPool.Put(&s)
	}
	for i := range p.mSlabs {
		s := p.mSlabs[i][:cap(p.mSlabs[i])]
		clear(s)
		s = s[:0]
		mSlabPool.Put(&s)
	}
	p.vSlabs, p.mSlabs = nil, nil
	p.vFree, p.mFree = nil, nil
	if p.vt.Groups() == minVGroups {
		t := p.vt
		t.Reset(0)
		vTablePool.Put(&t)
	}
	if p.mt.Groups() == minMGroups {
		t := p.mt
		t.Reset(0)
		mTablePool.Put(&t)
	}
	p.vt, p.mt = swiss.Table[*VNode]{}, swiss.Table[*MNode]{}
	p.W.Release()
}
