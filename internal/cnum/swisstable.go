package cnum

// The cell directory of the weight-interning table (see internal/swiss
// for the control-byte machinery).
//
// The open-addressing table is keyed on tolerance-grid cells, not on
// individual values: one slot per occupied 4·tol cell, holding the
// cell's values as a newest-first chain (almost always length one —
// two values share a cell only when they are between tol and 4·tol
// apart). A lookup probes the home cell and at most the
// boundary-adjacent cells reported by neighborDir, scanning each
// cell's values newest first.
//
// There are no tombstones: values die only inside Sweep (the DD
// package's garbage collection), which filters the cell chains and
// rebuilds the control words from the surviving cells.

import (
	"sync"

	"ddsim/internal/swiss"
)

// cellTablePool recycles minimum-geometry cell directories across
// Table lifetimes (like the value-slab pool): a short job builds one
// weight table per worker, and the ~100 KiB directory would otherwise
// dominate its allocation profile. Tables that grew past the minimum
// are left to the Go collector.
var cellTablePool = sync.Pool{
	New: func() interface{} {
		t := newCellTable(minCellGroups)
		return &t
	},
}

// getCellTable draws a clean minimum-size directory from the pool.
func getCellTable() cellTable { return *cellTablePool.Get().(*cellTable) }

// putCellTable returns a directory to the pool, scrubbed of value
// pointers. Grown directories are dropped.
func putCellTable(t *cellTable) {
	if len(t.ctrl) != minCellGroups {
		return
	}
	for i := range t.ctrl {
		t.ctrl[i] = swiss.EmptyWord
	}
	clear(t.slots)
	clear(t.scratch)
	t.scratch = t.scratch[:0]
	t.resident = 0
	ct := *t
	cellTablePool.Put(&ct)
}

// minCellGroups is the smallest cell-table size (512 groups = 4096
// slots). Sweep never compacts below it, so steady-state workloads do
// not thrash between shrink and regrow.
const minCellGroups = 512

// cellSlot is one occupied tolerance-grid cell: its coordinates and
// the newest-first chain of values interned into it.
type cellSlot struct {
	qr, qi int64
	head   *Value
}

// cellTable is the open-addressing cell directory: one control byte
// and one slot per cell, probed in groups of eight.
type cellTable struct {
	ctrl     []uint64
	slots    []cellSlot
	mask     uint64 // group count − 1
	resident int    // occupied cells
	growAt   int    // resident bound before the next insert rehashes

	// scratch stashes the live cells during an in-place rebuild (the
	// directory cannot be read while it is being re-inserted into).
	// Reused across sweeps, cleared after use so it roots no values.
	scratch []cellSlot
}

func newCellTable(groups int) cellTable {
	t := cellTable{
		ctrl:   make([]uint64, groups),
		slots:  make([]cellSlot, groups*swiss.GroupSize),
		mask:   uint64(groups - 1),
		growAt: swiss.GrowAt(groups),
	}
	for i := range t.ctrl {
		t.ctrl[i] = swiss.EmptyWord
	}
	return t
}

// findCell returns the slot of cell (qr,qi), or nil. One control-word
// load covers eight cells; H2 false positives are weeded out by the
// exact cell-coordinate comparison.
func (t *cellTable) findCell(qr, qi int64) *cellSlot {
	h := cellHash(qr, qi)
	h2 := swiss.H2(h)
	p := swiss.NewProbe(swiss.H1(h), t.mask)
	for {
		w := t.ctrl[p.Group()]
		for m := swiss.MatchH2(w, h2); m != 0; m = swiss.Next(m) {
			s := &t.slots[int(p.Group())*swiss.GroupSize+swiss.First(m)]
			if s.qr == qr && s.qi == qi {
				return s
			}
		}
		if swiss.MatchEmpty(w) != 0 {
			return nil
		}
		p.Advance()
	}
}

// addCell inserts a slot for cell (qr,qi), which must not be resident.
// The caller has already ensured capacity (see Table.Lookup).
func (t *cellTable) addCell(qr, qi int64, head *Value) {
	h := cellHash(qr, qi)
	p := swiss.NewProbe(swiss.H1(h), t.mask)
	for {
		g := p.Group()
		if m := swiss.MatchEmpty(t.ctrl[g]); m != 0 {
			i := swiss.First(m)
			t.ctrl[g] = swiss.SetByte(t.ctrl[g], i, swiss.H2(h))
			t.slots[int(g)*swiss.GroupSize+i] = cellSlot{qr: qr, qi: qi, head: head}
			t.resident++
			return
		}
		p.Advance()
	}
}

// rebuild re-inserts every cell with a non-empty chain into a table
// sized for n cells — the rehash-on-load path shared by growth (n >
// current capacity) and Sweep compaction (dead cells dropped, control
// words rebuilt). Chains move as units, so within-cell value order is
// untouched. The directory never shrinks: when the geometry is
// unchanged the existing arrays are rebuilt in place through the
// scratch buffer, so steady-state sweeps allocate nothing.
func (t *cellTable) rebuild(n int) {
	groups := swiss.GroupsFor(n, len(t.ctrl))
	if groups != len(t.ctrl) {
		nt := newCellTable(groups)
		for g := range t.ctrl {
			for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
				s := &t.slots[int(g)*swiss.GroupSize+swiss.First(m)]
				if s.head != nil {
					nt.addCell(s.qr, s.qi, s.head)
				}
			}
		}
		*t = nt
		return
	}
	t.scratch = t.scratch[:0]
	for g := range t.ctrl {
		for m := swiss.MatchOccupied(t.ctrl[g]); m != 0; m = swiss.Next(m) {
			s := &t.slots[int(g)*swiss.GroupSize+swiss.First(m)]
			if s.head != nil {
				t.scratch = append(t.scratch, *s)
			}
		}
		t.ctrl[g] = swiss.EmptyWord
	}
	clear(t.slots)
	t.resident = 0
	for i := range t.scratch {
		t.addCell(t.scratch[i].qr, t.scratch[i].qi, t.scratch[i].head)
	}
	clear(t.scratch)
	t.scratch = t.scratch[:0]
}

// scanCell walks one cell's value chain for a within-tolerance match.
func (t *Table) scanCell(s *cellSlot, re, im float64) *Value {
	if s == nil {
		return nil
	}
	for v := s.head; v != nil; v = v.next {
		if t.closeEnough(v.re, re) && t.closeEnough(v.im, im) {
			return v
		}
	}
	return nil
}
