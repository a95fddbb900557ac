package dd

// The unique tables: two instances of swiss.Table, one of *VNode and
// one of *MNode. What stays here per node type is the hash
// (vHash/mHash), the lookup with its key comparison written inline
// over a swiss.Probe, and the survivor list of a rehash.
//
// Unlike the weight table, the unique tables are exact-match: a node's
// key is (level, child ids, normalised weight ids), and two distinct
// nodes never compare equal. Slots therefore store node pointers
// directly, with no per-cell chain.
//
// There are no tombstones. Nodes die only inside GarbageCollect, which
// rebuilds the control words from the survivors — the same
// rehash-on-load path growth uses, so a collection compacts the table
// and probe lengths do not degrade over the life of a long simulation.
// Node IDs live on the nodes themselves and are untouched by rebuilds:
// arena slots keep their identity across any number of rehashes.

import "ddsim/internal/cnum"

const (
	// minVGroups/minMGroups are the unique-table sizes of a new table
	// set (512 groups = 4096 slots and 128 groups = 1024 slots). Tables
	// never shrink, so a reused unit keeps what it grew to.
	minVGroups = 512
	minMGroups = 128
)

// findV returns the interned vector node with the given key (or nil),
// the probe length and, on a miss, the slot where the key belongs (see
// swiss.Probe.Empty). Fingerprint false positives are weeded out by
// the exact key comparison.
func (p *Package) findV(h uint64, level int, n0 *VNode, w0 *cnum.Value, n1 *VNode, w1 *cnum.Value) (*VNode, int, int) {
	for pr := p.vt.Probe(h); ; pr = p.vt.Next(pr) {
		for m := pr.Matches(); m.Any(); m = m.Next() {
			if n := *p.vt.At(m.Slot()); n.Level == level && n.E[0].N == n0 && n.E[0].W == w0 &&
				n.E[1].N == n1 && n.E[1].W == w1 {
				return n, pr.Len(), m.Slot()
			}
		}
		if i, ok := pr.Empty(); ok {
			return nil, pr.Len(), i
		}
	}
}

// findM is the matrix analogue of findV.
func (p *Package) findM(h uint64, level int, e [4]MEdge) (*MNode, int, int) {
	for pr := p.mt.Probe(h); ; pr = p.mt.Next(pr) {
		for m := pr.Matches(); m.Any(); m = m.Next() {
			if n := *p.mt.At(m.Slot()); n.Level == level && n.E == e {
				return n, pr.Len(), m.Slot()
			}
		}
		if i, ok := pr.Empty(); ok {
			return nil, pr.Len(), i
		}
	}
}

// rehashV rebuilds the vector table — the rehash-on-load path shared
// by growth (every resident survives, with room for one more) and GC
// compaction (gc: unreferenced nodes are freed, and the survivors'
// weights are marked for the weight table's Sweep). It walks the node
// slabs in ID order, skipping free slots (Level 0, see freeVNode),
// never the table's slots: the order in which dead nodes reach the
// free list decides the IDs handed out after a collection, and slot
// order depends on the geometry the table started at, which a reused
// table inherits from an earlier package (see arena.go). The table
// never shrinks (see swiss.Table.Reset), so steady-state collections
// allocate nothing and probe lengths still reset because the load
// factor only drops. It returns the number of nodes collected.
func (p *Package) rehashV(gc bool) int {
	if gc {
		p.vt.Reset(0)
	} else {
		p.vt.Reset(p.vCount + 1)
	}
	collected := 0
	for _, s := range p.vSlabs {
		for i := range s {
			switch n := &s[i]; {
			case n.Level == 0:
			case gc && n.ref == 0:
				collected++
				p.freeVNode(n)
			default:
				if gc {
					p.W.Mark(n.E[0].W)
					p.W.Mark(n.E[1].W)
				}
				p.vt.Insert(p.vHash(n.Level, n.E[0], n.E[1]), n)
			}
		}
	}
	p.vCount -= collected
	return collected
}

// rehashM is the matrix analogue of rehashV.
func (p *Package) rehashM(gc bool) int {
	if gc {
		p.mt.Reset(0)
	} else {
		p.mt.Reset(p.mCount + 1)
	}
	collected := 0
	for _, s := range p.mSlabs {
		for i := range s {
			switch n := &s[i]; {
			case n.Level == 0:
			case gc && n.ref == 0:
				collected++
				p.freeMNode(n)
			default:
				if gc {
					for j := range n.E {
						p.W.Mark(n.E[j].W)
					}
				}
				p.mt.Insert(p.mHash(n.Level, n.E), n)
			}
		}
	}
	p.mCount -= collected
	return collected
}

// noteProbe records one unique-table probe of length l in the
// probe-length telemetry: l counts control-word groups examined, i.e.
// metadata cache lines touched per lookup.
func (p *Package) noteProbe(l int) {
	if l > p.maxProbe {
		p.maxProbe = l
	}
	if l > len(p.probeHist) {
		l = len(p.probeHist)
	}
	p.probeHist[l-1]++
}
