package cnum

// The cell directory of the weight-interning table: a swiss.Table (see
// internal/swiss) keyed on tolerance-grid cells, not on
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

import "ddsim/internal/swiss"

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

// cellTable is the cell directory: a swiss.Table of cells plus the
// occupied-cell count.
type cellTable struct {
	swiss.Table[cellSlot]
	resident int // occupied cells

	// scratch stashes the live cells during an in-place rebuild (the
	// directory cannot be read while it is being re-inserted into).
	// Reused across sweeps, cleared after use so it roots no values.
	scratch []cellSlot
}

// findCell returns the slot of cell (qr,qi), or nil. Fingerprint
// false positives are weeded out by the exact cell-coordinate
// comparison.
func (t *cellTable) findCell(qr, qi int64) *cellSlot {
	for p := t.Probe(cellHash(qr, qi)); ; p = t.Next(p) {
		for m := p.Matches(); m.Any(); m = m.Next() {
			if s := t.At(m.Slot()); s.qr == qr && s.qi == qi {
				return s
			}
		}
		if _, ok := p.Empty(); ok {
			return nil
		}
	}
}

// addCell inserts cell s, which must not be resident. The caller has
// already ensured capacity (see Table.Lookup).
func (t *cellTable) addCell(s cellSlot) {
	t.Insert(cellHash(s.qr, s.qi), s)
	t.resident++
}

// rebuild re-inserts every cell with a non-empty chain, in slot order,
// into a table sized for n cells — the rehash-on-load path shared by
// growth (n > current capacity) and Sweep compaction (dead cells
// dropped, control words rebuilt). Chains move as units, so
// within-cell value order is untouched. Growth moves the cells
// straight from the old arrays into the new ones; otherwise the
// directory is rebuilt in place through the scratch buffer, so
// steady-state sweeps allocate nothing.
func (t *cellTable) rebuild(n int) {
	t.resident = 0
	if t.Full(n) {
		old := t.Table
		t.Reset(n)
		old.ForEach(func(s *cellSlot) {
			if s.head != nil {
				t.addCell(*s)
			}
		})
		return
	}
	t.ForEach(func(s *cellSlot) {
		if s.head != nil {
			t.scratch = append(t.scratch, *s)
		}
	})
	t.Reset(n)
	for _, s := range t.scratch {
		t.addCell(s)
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
