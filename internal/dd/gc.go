package dd

// Reference counting and garbage collection.
//
// Long stochastic simulations create millions of transient nodes; the
// unique tables would grow without bound if dead nodes were never
// removed. Following the JKU package, live diagrams are pinned with
// explicit reference counts: Ref marks an externally held root (the
// current state, pre-built gate diagrams), Unref releases it. A sweep
// drops every node whose reference count is zero from the unique
// tables, rebuilds their control words from the survivors, and clears
// the compute caches (whose entries may mention swept nodes).
//
// Collections only run when the caller invokes GarbageCollect or
// MaybeGC — never from inside diagram construction — so freshly built,
// not-yet-referenced results are never swept out from under a caller.

// Ref pins the diagram rooted at e against garbage collection. The
// root weight is pinned in the weight table too: it hangs off the
// caller's edge, not off any node, so the mark phase cannot see it —
// and an unpinned swept weight is poisoned and recycled.
func (p *Package) Ref(e VEdge) {
	p.W.Pin(e.W)
	if e.N != nil {
		refV(e.N)
	}
}

// Unref releases a pin taken with Ref.
func (p *Package) Unref(e VEdge) {
	p.W.Unpin(e.W)
	if e.N != nil {
		unrefV(e.N)
	}
}

// RefM pins the operator diagram rooted at e.
func (p *Package) RefM(e MEdge) {
	p.W.Pin(e.W)
	if e.N != nil {
		refM(e.N)
	}
}

// UnrefM releases a pin taken with RefM.
func (p *Package) UnrefM(e MEdge) {
	p.W.Unpin(e.W)
	if e.N != nil {
		unrefM(e.N)
	}
}

func refV(n *VNode) {
	n.ref++
	if n.ref == 1 {
		for i := range n.E {
			if c := n.E[i].N; c != nil {
				refV(c)
			}
		}
	}
}

func unrefV(n *VNode) {
	if n.ref <= 0 {
		panic("dd: Unref of unreferenced vector node")
	}
	n.ref--
	if n.ref == 0 {
		for i := range n.E {
			if c := n.E[i].N; c != nil {
				unrefV(c)
			}
		}
	}
}

func refM(n *MNode) {
	n.ref++
	if n.ref == 1 {
		for i := range n.E {
			if c := n.E[i].N; c != nil {
				refM(c)
			}
		}
	}
}

func unrefM(n *MNode) {
	if n.ref <= 0 {
		panic("dd: UnrefM of unreferenced matrix node")
	}
	n.ref--
	if n.ref == 0 {
		for i := range n.E {
			if c := n.E[i].N; c != nil {
				unrefM(c)
			}
		}
	}
}

// GarbageCollect sweeps all unreferenced nodes from the unique tables
// and clears every compute table and cache. Diagrams not pinned with
// Ref/RefM become invalid. It returns the number of nodes collected.
//
// The sweep rebuilds the control words from the survivors (see
// gcSwissV/gcSwissM) — dead slots leave no tombstones, so probe
// lengths reset with every collection. The lookup/hit counters are
// untouched: they are lifetime totals (see Stats).
func (p *Package) GarbageCollect() int {
	collected := p.gcSwissV() + p.gcSwissM()
	// Sweep the weight table as well: long noisy simulations of
	// circuits with incommensurate rotation angles otherwise grow it
	// without bound. Every weight stored in a surviving node is
	// structural and must keep its identity; everything else can go.
	p.W.BeginMark()
	p.vt.forEach(func(n *VNode) {
		p.W.Mark(n.E[0].W)
		p.W.Mark(n.E[1].W)
	})
	p.mt.forEach(func(n *MNode) {
		for i := range n.E {
			p.W.Mark(n.E[i].W)
		}
	})
	p.W.Sweep()
	p.clearCaches()
	p.gcRuns++
	return collected
}

// SetGCThresholds overrides the populations at which MaybeGC triggers
// a collection: nodes is the combined unique-table population (vector
// plus matrix nodes; default 250000), weights the interned-weight
// count (default 400000). Non-positive arguments leave the respective
// threshold unchanged. Lower thresholds trade collection time for a
// smaller peak footprint, higher ones the reverse; either way the
// adaptive doubling of MaybeGC still applies on ineffective sweeps.
// See docs/PERFORMANCE.md for tuning guidance.
func (p *Package) SetGCThresholds(nodes, weights int) {
	if nodes > 0 {
		p.gcThreshold = nodes
	}
	if weights > 0 {
		p.wGCThreshold = weights
	}
}

// NeedsGC reports whether the unique tables or the weight table have
// outgrown their current thresholds, i.e. whether MaybeGC would
// collect. It is cheap (three counter loads) and inlinable, so hot
// loops can gate the pin-collect-unpin dance on it per gate.
func (p *Package) NeedsGC() bool {
	return p.vCount+p.mCount >= p.gcThreshold || p.W.Count() >= p.wGCThreshold
}

// MaybeGC collects garbage if the unique tables or the weight table
// have outgrown their current thresholds. If a collection frees less
// than half of the triggering population, that threshold doubles so
// workloads with genuinely large live sets are not throttled by
// useless sweeps. Callers must have pinned every diagram they still
// need.
func (p *Package) MaybeGC() bool {
	if !p.NeedsGC() {
		return false
	}
	pop := p.vCount + p.mCount
	nodesOver := pop >= p.gcThreshold
	weightsOver := p.W.Count() >= p.wGCThreshold
	wBefore := p.W.Count()
	collected := p.GarbageCollect()
	if nodesOver && collected*2 < pop {
		p.gcThreshold *= 2
	}
	if weightsOver && p.W.Count()*2 > wBefore {
		p.wGCThreshold *= 2
	}
	return true
}
