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

// TestReleaseReturnsSlabs: Release pools the slabs, is idempotent,
// and a fresh table allocating afterwards (likely from the pooled
// slabs) starts clean.
func TestReleaseReturnsSlabs(t *testing.T) {
	tb := NewTable()
	// Force more than one slab so the loop in Release iterates.
	for i := 0; i < valueSlabSize+10; i++ {
		tb.Lookup(float64(i)*1e-3, 1)
	}
	if len(tb.slabs) < 2 {
		t.Fatalf("expected ≥2 slabs, got %d", len(tb.slabs))
	}
	tb.Release()
	tb.Release() // idempotent
	if tb.slabs != nil || tb.cells.Groups() != 0 || tb.Zero != nil {
		t.Fatal("Release left table fields populated")
	}
	fresh := NewTable()
	v := fresh.Lookup(0.5, -0.5)
	if v.Re() != 0.5 || v.Im() != -0.5 {
		t.Fatalf("fresh table after Release returned %v", v.Complex())
	}
	if fresh.Zero.Re() != 0 || fresh.One.Re() != 1 {
		t.Fatal("fresh table constants wrong after pooled-slab reuse")
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
