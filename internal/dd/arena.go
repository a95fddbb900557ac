package dd

// The kernel memory plane: everything a Package keeps is one unit, a
// tableSet, which NewPackageTol takes from the free list of its
// register class and Release puts back.
//
// makeVNode/makeMNode sit on the innermost simulation loop; allocating
// every transient node individually hands millions of short-lived,
// pointer-dense objects to the Go collector per noisy trajectory
// batch. Instead, nodes live in append-only slabs (backing arrays
// never move, so node pointers stay valid) and dead nodes are recycled
// through a free list when the package's own GarbageCollect drops them
// from the unique tables — the only point where no compute-cache entry
// or unique-table slot can still mention them. A recycled slot keeps
// the id it was assigned at first materialisation, so live node IDs
// stay dense and stable for the unique-table hashing, and an ID
// addresses its slot directly (vnodeAt, mnodeAt) — which is what lets
// the compute caches store IDs instead of pointers.
//
// The unit holds the two unique tables, the seven compute caches (3.1
// or 6.1 MiB depending on the register size, see newCacheSet) with
// their ID windows, the node slabs and the weight table (cnum.Table:
// its value slabs and cell directory). A short job builds a fresh
// Package per worker per job; with the unit reused, the next package
// of the same register class starts from the geometry the last one
// grew all of them to, instead of regrowing them and dropping every
// intermediate array. A slab never leaves its unit, so nothing is
// cleared for the Go collector's sake: the stale pointers a released
// package leaves in its slabs reach only memory of the same unit. The
// unique tables cross Release emptied (Reset) and the weight table is
// emptied when the next package takes the unit (cnum.Table.Reset, at
// that package's tolerance), so no node or weight survives. The caches
// cross uncleared, because a clear is a memclr of their whole size,
// which a small job would pay on every Release. Instead node IDs
// continue across the packages that share a unit. The unit records in
// vBase/mBase the highest vector and matrix node IDs its packages have
// handed out, and the next package numbers its nodes from base+1 (its
// ID window). Every entry an earlier package left keys on an ID at or
// below the base, which no live node has, so it never hits, and a slot
// holding one counts as empty. Every hash mixes IDs relative to the
// base, so a package probes the same slots, and counts the same hits
// and conflicts, as one on a zeroed set with IDs from 1; weight IDs
// still start at 1 in every package. Only when a base passes maxIDBase
// does Release clear the caches for real and restart the windows at 0.
// Geometry cannot change a result either, because GarbageCollect frees
// nodes in ID order (rehashV) and cnum.Table.Sweep frees weights in ID
// order, never in table-slot order.
//
// The free lists are LIFO and the Go collector never empties them: a
// class's list holds at most as many units as that class had packages
// live at once, each at the size its largest package grew it to.

import (
	"sync"

	"ddsim/internal/cnum"
	"ddsim/internal/swiss"
)

// nodeSlabSize is the number of nodes per arena slab (VNode slabs are
// ~72 KiB, MNode slabs ~136 KiB at this size).
const nodeSlabSize = 1024

// cacheSet bundles the direct-mapped compute caches. Every cache
// length is a power of two; lookups index with hash & (len−1).
type cacheSet struct {
	mv    []pairEntry
	add   []tripleEntry
	madd  []tripleEntry
	mm    []pairEntry
	dot   []dotEntry
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
// of every mat-vec miss), the matrix-side caches (madd, mm) sized for
// gate construction, and the scalar read-out caches (dot, norm2,
// prob).
func newCacheSet(mvBits int) cacheSet {
	return cacheSet{
		mv:    make([]pairEntry, 1<<mvBits),
		add:   make([]tripleEntry, 1<<16),
		madd:  make([]tripleEntry, 1<<12),
		mm:    make([]pairEntry, 1<<12),
		dot:   make([]dotEntry, 1<<12),
		norm2: make([]norm2Entry, 1<<15),
		prob:  make([]probEntry, 1<<13),
	}
}

// tableSet is the unit a Package takes from its register class's free
// list and Release puts back: the weight table, the unique tables (see
// swisstable.go), the compute caches and ID windows, and the node
// slabs. A unit on a free list has empty unique tables at the geometry
// its last package grew them to, node slabs kept in the spare capacity
// of vSlabs/mSlabs, and caches holding only entries keyed on IDs at or
// below vBase/mBase, the highest vector and matrix node IDs its
// packages have handed out.
type tableSet struct {
	// W interns all edge weights of diagrams managed by the package.
	W *cnum.Table

	vt           swiss.Table[*VNode]
	mt           swiss.Table[*MNode]
	caches       cacheSet
	vSlabs       [][]VNode
	mSlabs       [][]MNode
	vBase, mBase uint32
}

// maxIDBase bounds the ID windows. A Release that leaves a base above
// it clears the caches and restarts both windows at 0, so every package
// has at least 2^31 IDs of each kind ahead of it (more nodes than
// memory holds).
const maxIDBase = 1 << 31

// unitList is the free list of one register class, a LIFO of released
// units. Packages are built and released on many worker goroutines, so
// a mutex guards it.
type unitList struct {
	mu    sync.Mutex
	units []tableSet
}

// smallUnits and largeUnits keep the two register classes
// (mvCacheBits) apart, so a 10-qubit job never draws the tables a
// 24-qubit job grew.
var smallUnits, largeUnits unitList

// unitsOf returns the free list of the class whose mat-vec cache has
// mvLen entries.
func unitsOf(mvLen int) *unitList {
	if mvLen == 1<<largeMVCacheBits {
		return &largeUnits
	}
	return &smallUnits
}

// getTableSet takes the most recently released unit of the class with
// a 2^mvBits-entry mat-vec cache, or allocates one if none is free.
func getTableSet(mvBits int) tableSet {
	l := unitsOf(1 << mvBits)
	l.mu.Lock()
	n := len(l.units)
	if n == 0 {
		l.mu.Unlock()
		return newTableSet(mvBits)
	}
	ts := l.units[n-1]
	l.units[n-1] = tableSet{}
	l.units = l.units[:n-1]
	l.mu.Unlock()
	return ts
}

// putTableSet puts a released unit on its class's free list.
func putTableSet(ts tableSet) {
	l := unitsOf(len(ts.caches.mv))
	l.mu.Lock()
	l.units = append(l.units, ts)
	l.mu.Unlock()
}

// newTableSet allocates a unit: a minimum-size weight table and unique
// tables, no slabs, and fresh caches with a 2^mvBits-entry mat-vec
// cache.
func newTableSet(mvBits int) tableSet {
	return tableSet{
		W:      cnum.NewTable(),
		vt:     swiss.NewTable[*VNode](minVGroups),
		mt:     swiss.NewTable[*MNode](minMGroups),
		caches: newCacheSet(mvBits),
	}
}

// vnodeAt resolves a vector node ID to its arena slot; ID 0 is the
// terminal. allocVNode hands out IDs from vBase+1 and opens a slab only
// once the previous one is full, so ID vBase+k lives at slab
// (k−1)/nodeSlabSize, index (k−1)%nodeSlabSize.
func (p *Package) vnodeAt(id uint32) *VNode {
	if id == 0 {
		return nil
	}
	k := id - 1 - p.vBase
	return &p.vSlabs[k/nodeSlabSize][k%nodeSlabSize]
}

// mnodeAt is the matrix analogue of vnodeAt.
func (p *Package) mnodeAt(id uint32) *MNode {
	if id == 0 {
		return nil
	}
	k := id - 1 - p.mBase
	return &p.mSlabs[k/nodeSlabSize][k%nodeSlabSize]
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
		p.vSlabs = nextSlab(p.vSlabs)
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
		p.mSlabs = nextSlab(p.mSlabs)
	}
	s := &p.mSlabs[len(p.mSlabs)-1]
	*s = append(*s, MNode{id: p.nextMID})
	p.nextMID++
	return &(*s)[len(*s)-1]
}

// nextSlab appends an empty slab to list: the one an earlier package
// of the unit left in the list's spare capacity if it is a full-size
// slab, else a new one. The spare capacity can also hold nil entries
// (append grows the list in steps), and a slab of less than full
// capacity would move its nodes when it filled up.
func nextSlab[N VNode | MNode](list [][]N) [][]N {
	if n := len(list); n < cap(list) {
		if s := list[:n+1][n]; cap(s) == nodeSlabSize {
			return append(list, s[:0])
		}
	}
	return append(list, make([]N, 0, nodeSlabSize))
}

// freeVNode pushes a node just dropped by GarbageCollect onto the free
// list. Edges are cleared so the dead node retains neither child nodes
// nor weights, and Level 0 — which no interned node has — marks the
// slot free for the slab walk of rehashV.
func (p *Package) freeVNode(n *VNode) {
	n.E[0] = VEdge{}
	n.E[1] = VEdge{}
	n.Level = 0
	n.next = p.vFree
	p.vFree = n
}

// freeMNode is the matrix analogue of freeVNode.
func (p *Package) freeMNode(n *MNode) {
	for i := range n.E {
		n.E[i] = MEdge{}
	}
	n.Level = 0
	n.next = p.mFree
	p.mFree = n
}

// Release puts the package's unit back on its register class's free
// list for the next Package: the unique tables emptied at their grown
// geometry, the ID windows moved past this package's nodes, and the
// node slabs and weight table as they are. The package (and every
// edge, node or weight obtained from it) must not be used afterwards;
// its fields are dropped, W included, so accidental use fails fast.
// Backends call this when a worker retires a compiled job
// (sim.Releaser).
func (p *Package) Release() {
	if p.released {
		return
	}
	putTableSet(p.release())
}

// release retires the package and returns its unit instead of putting
// it on the free list. Moving the ID windows past the package's nodes
// retires every cache entry it wrote, so the caches are cleared only
// when a window would pass maxIDBase.
func (p *Package) release() tableSet {
	p.released = true
	p.vBase, p.mBase = p.nextVID-1, p.nextMID-1
	if p.vBase > maxIDBase || p.mBase > maxIDBase {
		p.clearCaches()
		p.vBase, p.mBase = 0, 0
	}
	p.vt.Reset(0) // keeps the geometry
	p.mt.Reset(0)
	p.vSlabs, p.mSlabs = p.vSlabs[:0], p.mSlabs[:0]
	ts := p.tableSet
	p.tableSet = tableSet{}
	p.vFree, p.mFree = nil, nil
	return ts
}
