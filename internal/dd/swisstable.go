package dd

// The unique tables: open-addressing swiss tables (see internal/swiss
// for the control-byte machinery).
//
// Unlike the weight table, the unique tables are exact-match: a node's
// key is (level, child ids, normalised weight ids), and two distinct
// nodes never compare equal. Slots therefore store node pointers
// directly — no per-cell chain: one 64-bit control-word load
// summarises eight candidate slots, so the hash-consing fast path
// touches a single metadata cache line instead of chasing list
// pointers through the slab arena.
//
// There are no tombstones. Nodes die only inside GarbageCollect, which
// threads the survivors through their (otherwise unused) next fields
// and rebuilds the control words from that list — the same
// rehash-on-load path growth uses, so a collection compacts the table
// and probe lengths do not degrade over the life of a long simulation.
// Node IDs live on the nodes themselves and are untouched by rebuilds:
// arena slots keep their identity across any number of rehashes.

import (
	"ddsim/internal/swiss"

	"ddsim/internal/cnum"
)

const (
	// minVGroups/minMGroups are the smallest unique-table sizes
	// (512 groups = 4096 slots and 128 groups = 1024 slots). GC never
	// compacts below them.
	minVGroups = 512
	minMGroups = 128
)

// vTable is the open-addressing vector unique table.
type vTable struct {
	ctrl   []uint64
	slots  []*VNode
	mask   uint64 // group count − 1
	growAt int    // vCount bound before the next insert rehashes
}

// mTable is the open-addressing matrix unique table.
type mTable struct {
	ctrl   []uint64
	slots  []*MNode
	mask   uint64
	growAt int
}

func newVTable(groups int) vTable {
	t := vTable{
		ctrl:   make([]uint64, groups),
		slots:  make([]*VNode, groups*swiss.GroupSize),
		mask:   uint64(groups - 1),
		growAt: swiss.GrowAt(groups),
	}
	for i := range t.ctrl {
		t.ctrl[i] = swiss.EmptyWord
	}
	return t
}

func newMTable(groups int) mTable {
	t := mTable{
		ctrl:   make([]uint64, groups),
		slots:  make([]*MNode, groups*swiss.GroupSize),
		mask:   uint64(groups - 1),
		growAt: swiss.GrowAt(groups),
	}
	for i := range t.ctrl {
		t.ctrl[i] = swiss.EmptyWord
	}
	return t
}

// find returns the interned node with the given key (or nil), the
// probe length (groups examined — the unit of the probe-length
// telemetry) and, on a miss, the slot index where the key belongs:
// with no tombstones the probe ends at the first group holding an
// empty slot, which is exactly where insertion goes, so the caller
// places a new node without a second probe. H2 false positives are
// weeded out by the exact key comparison.
func (t *vTable) find(h uint64, level int, n0 *VNode, w0 *cnum.Value, n1 *VNode, w1 *cnum.Value) (*VNode, int, int) {
	h2 := swiss.H2(h)
	pr := swiss.NewProbe(swiss.H1(h), t.mask)
	for plen := 1; ; plen++ {
		w := t.ctrl[pr.Group()]
		for m := swiss.MatchH2(w, h2); m != 0; m = swiss.Next(m) {
			i := int(pr.Group())*swiss.GroupSize + swiss.First(m)
			n := t.slots[i]
			if n.Level == level && n.E[0].N == n0 && n.E[0].W == w0 &&
				n.E[1].N == n1 && n.E[1].W == w1 {
				return n, plen, i
			}
		}
		if m := swiss.MatchEmpty(w); m != 0 {
			return nil, plen, int(pr.Group())*swiss.GroupSize + swiss.First(m)
		}
		pr.Advance()
	}
}

func (t *mTable) find(h uint64, level int, e [4]MEdge) (*MNode, int, int) {
	h2 := swiss.H2(h)
	pr := swiss.NewProbe(swiss.H1(h), t.mask)
	for plen := 1; ; plen++ {
		w := t.ctrl[pr.Group()]
		for m := swiss.MatchH2(w, h2); m != 0; m = swiss.Next(m) {
			i := int(pr.Group())*swiss.GroupSize + swiss.First(m)
			n := t.slots[i]
			if n.Level == level && n.E == e {
				return n, plen, i
			}
		}
		if m := swiss.MatchEmpty(w); m != 0 {
			return nil, plen, int(pr.Group())*swiss.GroupSize + swiss.First(m)
		}
		pr.Advance()
	}
}

// place fills the empty slot find reported for a missed key. slot is a
// global slot index (group·8 + byte).
func (t *vTable) place(slot int, h uint64, n *VNode) {
	g := slot >> swiss.GroupShift
	t.ctrl[g] = swiss.SetByte(t.ctrl[g], slot&(swiss.GroupSize-1), swiss.H2(h))
	t.slots[slot] = n
}

func (t *mTable) place(slot int, h uint64, n *MNode) {
	g := slot >> swiss.GroupShift
	t.ctrl[g] = swiss.SetByte(t.ctrl[g], slot&(swiss.GroupSize-1), swiss.H2(h))
	t.slots[slot] = n
}

// insert places a node absent from the table into its first empty
// probe slot. The caller has ensured capacity.
func (t *vTable) insert(h uint64, n *VNode) {
	pr := swiss.NewProbe(swiss.H1(h), t.mask)
	for {
		g := pr.Group()
		if m := swiss.MatchEmpty(t.ctrl[g]); m != 0 {
			i := swiss.First(m)
			t.ctrl[g] = swiss.SetByte(t.ctrl[g], i, swiss.H2(h))
			t.slots[int(g)*swiss.GroupSize+i] = n
			return
		}
		pr.Advance()
	}
}

func (t *mTable) insert(h uint64, n *MNode) {
	pr := swiss.NewProbe(swiss.H1(h), t.mask)
	for {
		g := pr.Group()
		if m := swiss.MatchEmpty(t.ctrl[g]); m != 0 {
			i := swiss.First(m)
			t.ctrl[g] = swiss.SetByte(t.ctrl[g], i, swiss.H2(h))
			t.slots[int(g)*swiss.GroupSize+i] = n
			return
		}
		pr.Advance()
	}
}

// chainLive threads every resident node through its next field and
// returns the head — the allocation-free survivor list that rehashV
// consumes. Outside GarbageCollect a resident node's next field is
// unused.
func (t *vTable) chainLive() *VNode {
	var head *VNode
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			n := t.slots[g*swiss.GroupSize+swiss.First(m)]
			n.next = head
			head = n
		}
	}
	return head
}

func (t *mTable) chainLive() *MNode {
	var head *MNode
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			n := t.slots[g*swiss.GroupSize+swiss.First(m)]
			n.next = head
			head = n
		}
	}
	return head
}

// rehashV rebuilds the vector table for n residents from a survivor
// list (linked through next) — the shared rehash-on-load path of
// growth and GC compaction. The table never shrinks: compaction clears
// the existing arrays in place, so steady-state collections allocate
// nothing and probe lengths still reset because the load factor only
// drops.
func (p *Package) rehashV(live *VNode, n int) {
	groups := swiss.GroupsFor(n, len(p.vt.ctrl))
	if groups != len(p.vt.ctrl) {
		p.vt = newVTable(groups)
	} else {
		for i := range p.vt.ctrl {
			p.vt.ctrl[i] = swiss.EmptyWord
		}
		clear(p.vt.slots)
	}
	for nd := live; nd != nil; {
		next := nd.next
		nd.next = nil
		p.vt.insert(p.vHash(nd.Level, nd.E[0], nd.E[1]), nd)
		nd = next
	}
}

func (p *Package) rehashM(live *MNode, n int) {
	groups := swiss.GroupsFor(n, len(p.mt.ctrl))
	if groups != len(p.mt.ctrl) {
		p.mt = newMTable(groups)
	} else {
		for i := range p.mt.ctrl {
			p.mt.ctrl[i] = swiss.EmptyWord
		}
		clear(p.mt.slots)
	}
	for nd := live; nd != nil; {
		next := nd.next
		nd.next = nil
		p.mt.insert(p.mHash(nd.Level, nd.E), nd)
		nd = next
	}
}

// gcSwissV is GarbageCollect's vector pass: free dead slots, thread
// survivors through their next fields, rebuild the control words.
// Compaction comes for free — there is no tombstone state to
// accumulate.
func (p *Package) gcSwissV() int {
	collected := 0
	var live *VNode
	t := &p.vt
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			n := t.slots[g*swiss.GroupSize+swiss.First(m)]
			if n.ref == 0 {
				collected++
				p.vCount--
				p.freeVNode(n)
			} else {
				n.next = live
				live = n
			}
		}
	}
	p.rehashV(live, p.vCount)
	return collected
}

func (p *Package) gcSwissM() int {
	collected := 0
	var live *MNode
	t := &p.mt
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			n := t.slots[g*swiss.GroupSize+swiss.First(m)]
			if n.ref == 0 {
				collected++
				p.mCount--
				p.freeMNode(n)
			} else {
				n.next = live
				live = n
			}
		}
	}
	p.rehashM(live, p.mCount)
	return collected
}

// forEachV/forEachM visit every resident node (weight marking during
// GarbageCollect).
func (t *vTable) forEach(fn func(*VNode)) {
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			fn(t.slots[g*swiss.GroupSize+swiss.First(m)])
		}
	}
}

func (t *mTable) forEach(fn func(*MNode)) {
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			fn(t.slots[g*swiss.GroupSize+swiss.First(m)])
		}
	}
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
