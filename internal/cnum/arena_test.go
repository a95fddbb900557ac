package cnum

import (
	"math"
	"testing"
)

// TestMarkSweepRecycles drives the full mark/sweep/recycle cycle the
// DD garbage collector runs: unmarked unpinned values are dropped,
// their slots are NaN-poisoned onto the free list, and the next
// Lookup reuses a slot while keeping its (still unique) ID.
func TestMarkSweepRecycles(t *testing.T) {
	tb := NewTable()
	keep := tb.Lookup(0.25, 0.5)
	drop := tb.Lookup(0.125, -0.5)
	dropID := drop.ID()
	before := tb.Count()

	tb.BeginMark()
	tb.Mark(keep)
	tb.Mark(nil) // ignored
	if dropped := tb.Sweep(); dropped != 1 {
		t.Fatalf("Sweep dropped %d values, want 1", dropped)
	}
	if tb.Count() != before-1 {
		t.Fatalf("Count %d after sweep, want %d", tb.Count(), before-1)
	}
	if !math.IsNaN(drop.Re()) || !math.IsNaN(drop.Im()) {
		t.Fatalf("swept slot not poisoned: %v", drop.Complex())
	}
	// The recycled slot keeps its id and is reused by the next insert.
	reborn := tb.Lookup(0.375, 0.75)
	if reborn.ID() != dropID {
		t.Errorf("recycled value has id %d, want reused id %d", reborn.ID(), dropID)
	}
	if reborn != drop {
		t.Errorf("free-list slot not reused: got %p, want %p", reborn, drop)
	}
	if tb.ByID(dropID) != reborn || tb.ByID(keep.ID()) != keep {
		t.Error("ByID does not resolve a recycled or surviving ID to its value")
	}
	if keep.Re() != 0.25 || keep.Im() != 0.5 {
		t.Errorf("marked value corrupted by sweep: %v", keep.Complex())
	}
}

// TestPinSurvivesSweep: pinned root weights survive an unmarked
// sweep; unpinning re-exposes them, and over-unpinning panics.
func TestPinSurvivesSweep(t *testing.T) {
	tb := NewTable()
	v := tb.Lookup(0.3, 0.7)
	tb.Pin(v)
	tb.Pin(v) // pins nest
	tb.Pin(nil)
	tb.BeginMark()
	if dropped := tb.Sweep(); dropped != 0 {
		t.Fatalf("pinned value swept (%d dropped)", dropped)
	}
	if v.Re() != 0.3 {
		t.Fatalf("pinned value corrupted: %v", v.Complex())
	}
	tb.Unpin(v)
	tb.Unpin(v)
	tb.Unpin(nil)
	tb.BeginMark()
	if dropped := tb.Sweep(); dropped != 1 {
		t.Fatalf("unpinned value not swept (%d dropped)", dropped)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unpinned value did not panic")
		}
	}()
	tb.Unpin(tb.One)
}

// TestZeroOneSurviveSweep: the canonical constants survive any sweep
// unmarked and unpinned — every diagram's terminal weights alias them.
func TestZeroOneSurviveSweep(t *testing.T) {
	tb := NewTable()
	tb.BeginMark()
	tb.Sweep()
	if tb.Zero.Re() != 0 || tb.One.Re() != 1 {
		t.Fatalf("canonical constants swept: zero=%v one=%v", tb.Zero.Complex(), tb.One.Complex())
	}
}

// growDirectory interns n distinct values into tb at a tight
// tolerance spacing, enough to grow the cell directory past its
// minimum and to fill several value slabs.
func growDirectory(tb *Table, n int) {
	for i := 0; i < n; i++ {
		tb.Lookup(float64(i%541)*1e-3, float64(i/541)*1e-3)
	}
}

// internRun interns a fixed value sequence into tb, sweeps away two
// values in three, and interns a second sequence into the recycled
// slots. It returns every value it interned, as IDs and numbers.
func internRun(tb *Table) (ids []uint32, vals []complex128) {
	note := func(v *Value) *Value {
		ids = append(ids, v.ID())
		vals = append(vals, v.Complex())
		return v
	}
	var kept []*Value
	for i := 0; i < 3000; i++ {
		v := note(tb.Lookup(math.Cos(float64(i)*0.37), math.Sin(float64(i)*1.1)))
		if i%3 == 0 {
			kept = append(kept, v)
		}
	}
	tb.BeginMark()
	for _, v := range kept {
		tb.Mark(v)
	}
	tb.Sweep()
	for i := 0; i < 2500; i++ {
		note(tb.Lookup(math.Sin(float64(i)*0.53), math.Cos(float64(i)*0.29)))
	}
	return ids, vals
}

// TestResetKeepsSlabsAndDirectory: Reset keeps the value slabs and the
// grown cell directory, reuses the slabs in order, and the table then
// interns — through a sweep — with the same IDs and values as a table
// from NewTable.
func TestResetKeepsSlabsAndDirectory(t *testing.T) {
	tb := NewTableTol(1e-12) // tight tolerance: every insert is distinct
	growDirectory(tb, 20000)
	groups := tb.cells.Groups()
	if groups <= minCellGroups {
		t.Fatalf("the directory stayed at %d groups; the test needs a grown one", groups)
	}
	var firsts []*Value
	for _, s := range tb.slabs {
		firsts = append(firsts, &s[0])
	}
	tb.Reset(Tolerance)
	if tb.cells.Groups() != groups {
		t.Fatalf("Reset left %d directory groups, want the grown %d", tb.cells.Groups(), groups)
	}
	if len(tb.slabs) != 1 || cap(tb.slabs) < len(firsts) || tb.Count() != 2 {
		t.Fatalf("after Reset: %d slabs in use, %d kept, %d values; want 1, ≥ %d, 2",
			len(tb.slabs), cap(tb.slabs), tb.Count(), len(firsts))
	}
	fresh := NewTable()
	gotIDs, gotVals := internRun(tb)
	wantIDs, wantVals := internRun(fresh)
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] || gotVals[i] != wantVals[i] {
			t.Fatalf("value %d: id %d %v after Reset, id %d %v on a new table",
				i, gotIDs[i], gotVals[i], wantIDs[i], wantVals[i])
		}
	}
	if tb.Count() != fresh.Count() || tb.HitRate() != fresh.HitRate() {
		t.Fatalf("count/hit rate %d/%v after Reset, %d/%v on a new table",
			tb.Count(), tb.HitRate(), fresh.Count(), fresh.HitRate())
	}
	for i := range tb.slabs {
		if i < len(firsts) && &tb.slabs[i][0] != firsts[i] {
			t.Fatalf("slab %d was not reused in place", i)
		}
	}
}

// TestSweepIDsIndependentOfDirectoryGeometry: the same workload through
// a sweep hands out the same weight IDs on a new table and on a Reset
// one whose cell directory grew eight times larger. The slot order of
// the two directories differs, so a sweep that put dead values on the
// free list in slot order would recycle them in another order, and the
// IDs after the sweep — which key the DD compute caches — would depend
// on what the table interned before its Reset.
func TestSweepIDsIndependentOfDirectoryGeometry(t *testing.T) {
	grown := NewTableTol(1e-12)
	growDirectory(grown, 20000)
	grown.Reset(Tolerance)
	fresh := NewTable()
	if grown.cells.Groups() == fresh.cells.Groups() {
		t.Fatalf("both directories have %d groups; the test compares two geometries", fresh.cells.Groups())
	}
	gotIDs, _ := internRun(grown)
	wantIDs, _ := internRun(fresh)
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("value %d: id %d on the grown directory, %d on a new one", i, gotIDs[i], wantIDs[i])
		}
	}
}

// TestGrowRehashes: inserting past the initial cell-directory load
// factor grows the table; every previously interned value must still be
// found at its identity afterwards.
func TestGrowRehashes(t *testing.T) {
	tb := NewTableTol(1e-12) // tight tolerance: every insert is distinct
	type pair struct {
		re, im float64
		v      *Value
	}
	var vals []pair
	for i := 0; i < 20000; i++ {
		re := float64(i%541) * 1e-3
		im := float64(i/541) * 1e-3
		vals = append(vals, pair{re, im, tb.Lookup(re, im)})
	}
	for _, p := range vals {
		if got := tb.Lookup(p.re, p.im); got != p.v {
			t.Fatalf("value (%v,%v) lost its identity after grow", p.re, p.im)
		}
		if tb.ByID(p.v.ID()) != p.v { // 20000 values span ten slabs
			t.Fatalf("ByID(%d) does not resolve to value (%v,%v)", p.v.ID(), p.re, p.im)
		}
	}
}
