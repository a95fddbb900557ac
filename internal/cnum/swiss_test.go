package cnum

import (
	"math"
	"math/rand"
	"testing"
)

// modelTable is the brute-force reference the interning table is held
// to: a plain slice of live values in intern order, with no hashing and
// no growth. It shares only the tolerance-grid geometry (snap,
// quantize, neighborDir, closeEnough — pure functions of tol) with
// Table, so it pins the tie order of tolerance matching: home cell,
// real-axis neighbour, imaginary-axis neighbour, diagonal, newest value
// first within a cell.
type modelTable struct {
	grid *Table        // geometry only; never interned into
	live []*modelValue // oldest first; [0] and [1] are Zero and One
}

type modelValue struct {
	re, im float64
	marked bool
	pins   int
}

func newModelTable(tol float64) *modelTable {
	m := &modelTable{grid: &Table{tol: tol, cell: 4 * tol}}
	m.Lookup(0, 0)
	m.Lookup(1, 0)
	return m
}

func (m *modelTable) Lookup(re, im float64) *modelValue {
	g := m.grid
	re, im = g.snap(re), g.snap(im)
	qr, qi := g.quantize(re), g.quantize(im)
	nr, ni := g.neighborDir(re, qr), g.neighborDir(im, qi)
	cells := [][2]int64{{qr, qi}}
	if nr != 0 {
		cells = append(cells, [2]int64{qr + nr, qi})
	}
	if ni != 0 {
		cells = append(cells, [2]int64{qr, qi + ni})
	}
	if nr != 0 && ni != 0 {
		cells = append(cells, [2]int64{qr + nr, qi + ni})
	}
	for _, c := range cells {
		for i := len(m.live) - 1; i >= 0; i-- {
			v := m.live[i]
			if g.closeEnough(v.re, re) && g.closeEnough(v.im, im) &&
				g.quantize(v.re) == c[0] && g.quantize(v.im) == c[1] {
				return v
			}
		}
	}
	v := &modelValue{re: re, im: im}
	m.live = append(m.live, v)
	return v
}

// Sweep drops every unmarked, unpinned value except Zero and One and
// clears the marks of the survivors (the next round's BeginMark).
func (m *modelTable) Sweep() int {
	zero, one := m.live[0], m.live[1]
	before := len(m.live)
	keep := m.live[:0]
	for _, v := range m.live {
		if v.marked || v.pins > 0 || v == zero || v == one {
			v.marked = false
			keep = append(keep, v)
		}
	}
	m.live = keep
	return before - len(keep)
}

// tablePair drives a Table and its model in lockstep.
type tablePair struct {
	t  *testing.T
	tb *Table
	md *modelTable
}

func newTablePair(t *testing.T, tol float64) *tablePair {
	return &tablePair{t: t, tb: NewTableTol(tol), md: newModelTable(tol)}
}

// same fails unless the table's and the model's representative are
// bit-identical.
func (p *tablePair) same(what string, v *Value, m *modelValue) {
	p.t.Helper()
	if math.Float64bits(v.Re()) != math.Float64bits(m.re) ||
		math.Float64bits(v.Im()) != math.Float64bits(m.im) {
		p.t.Fatalf("tol=%g %s: table %v%+vi, model %v%+vi", p.tb.tol, what, v.Re(), v.Im(), m.re, m.im)
	}
}

// lookup sends one lookup to both sides.
func (p *tablePair) lookup(re, im float64) (*Value, *modelValue) {
	p.t.Helper()
	v, m := p.tb.Lookup(re, im), p.md.Lookup(re, im)
	p.same("Lookup", v, m)
	return v, m
}

// sweep keeps vals[i]/mods[i] for every i that is a multiple of stride
// (plus whatever is pinned) and demands equal drop counts and
// populations.
func (p *tablePair) sweep(vals []*Value, mods []*modelValue, stride int) {
	p.t.Helper()
	p.tb.BeginMark()
	for i := 0; i < len(vals); i += stride {
		p.tb.Mark(vals[i])
		mods[i].marked = true
	}
	if dt, dm := p.tb.Sweep(), p.md.Sweep(); dt != dm {
		p.t.Fatalf("tol=%g: Sweep dropped %d (table) vs %d (model)", p.tb.tol, dt, dm)
	}
	p.count()
}

func (p *tablePair) count() {
	p.t.Helper()
	if p.tb.Count() != len(p.md.live) {
		p.t.Fatalf("tol=%g: table holds %d values, model %d", p.tb.tol, p.tb.Count(), len(p.md.live))
	}
}

// boundaryOffsets are the per-component displacements that straddle
// the hash-grid cell boundaries around a value: ±tol/2 (same
// representative), ±2·tol (distinct representative) and ±(cell−tol/2)
// (adjacent cell, reachable only through the neighbour probe).
func boundaryOffsets(tol float64) []float64 {
	cell := 4 * tol
	return []float64{tol / 2, -tol / 2, 2 * tol, -2 * tol, cell - tol/2, -(cell - tol/2)}
}

// TestLookupMatchesModel drives a random workload — including
// cell-boundary straddlers and derived Mul/Div/Add/Neg/Conj traffic —
// through the table and the brute-force model at the default and the
// exact-engine tolerance, demanding bit-identical representatives
// throughout: the swiss cell directory must resolve tolerance ties in
// the first-seen order a newest-first chain scan would.
func TestLookupMatchesModel(t *testing.T) {
	for _, tol := range []float64{Tolerance, 1e-14} {
		p := newTablePair(t, tol)
		tb := p.tb
		rng := rand.New(rand.NewSource(41))
		var vals []*Value
		for i := 0; i < 300; i++ { // the model scans every live value per lookup
			var re, im float64
			switch i % 3 {
			case 0: // generic amplitudes
				re, im = rng.NormFloat64(), rng.NormFloat64()
			case 1: // near-underflow magnitudes around the tolerance
				s := math.Pow(10, -4-6*rng.Float64()) // 1e-4 .. 1e-10
				re, im = s*rng.NormFloat64(), s*rng.NormFloat64()
			default: // revisit an earlier value's neighbourhood
				if len(vals) == 0 {
					continue
				}
				v := vals[rng.Intn(len(vals))]
				re = v.Re() + (rng.Float64()-0.5)*4*tol
				im = v.Im() + (rng.Float64()-0.5)*4*tol
			}
			a, _ := p.lookup(re, im)
			vals = append(vals, a)
			p.lookup(re, im) // the repeat must hit
			for _, d := range boundaryOffsets(tol) {
				p.lookup(re+d, im)
				p.lookup(re, im+d)
				p.lookup(re+d, im-d)
			}
			// Derived arithmetic traffic: the identity fast paths on
			// interned operands must agree with interning the plain
			// complex result.
			if len(vals) > 1 {
				b := vals[rng.Intn(len(vals)-1)]
				derived := func(what string, got *Value, want complex128) {
					p.same(what, got, p.md.Lookup(real(want), imag(want)))
				}
				derived("Mul", tb.Mul(a, b), a.Complex()*b.Complex())
				derived("Add", tb.Add(a, b), a.Complex()+b.Complex())
				derived("Neg", tb.Neg(a), -a.Complex())
				derived("Conj", tb.Conj(a), complex(a.Re(), -a.Im()))
				if b != tb.Zero {
					derived("Div", tb.Div(a, b), a.Complex()/b.Complex())
				}
			}
		}
		p.count()
	}
}

// TestSwissSweepIdentical marks the same survivor set in the table and
// the model and checks Sweep agrees on the drop count, the surviving
// population, and the representatives returned afterwards — covering
// the per-cell chain filtering and the tombstone-free control-word
// rebuild.
func TestSwissSweepIdentical(t *testing.T) {
	p := newTablePair(t, Tolerance)
	rng := rand.New(rand.NewSource(97))
	var vals []*Value
	var mods []*modelValue
	for i := 0; i < 3000; i++ {
		v, m := p.lookup(rng.NormFloat64(), rng.NormFloat64())
		vals = append(vals, v)
		mods = append(mods, m)
	}
	// Pin a few root weights; mark every third value.
	for i := 0; i < 10; i++ {
		p.tb.Pin(vals[i*7])
		mods[i*7].pins++
	}
	p.sweep(vals, mods, 3)
	// Survivors must still intern to themselves; new traffic must stay
	// identical after the rebuild (recycled slots included).
	for i := 0; i < len(vals); i += 3 {
		if got := p.tb.Lookup(vals[i].Re(), vals[i].Im()); got != vals[i] {
			t.Fatalf("marked survivor %d not found after sweep", i)
		}
	}
	for i := 0; i < 2000; i++ {
		p.lookup(rng.NormFloat64(), rng.NormFloat64())
	}
	p.count()
}

// TestSwissCellGrowth forces the cell directory through several
// rehashes and verifies no value is lost or duplicated: every
// previously interned representative is still found by a fresh lookup
// of its exact coordinates, and the live count matches.
func TestSwissCellGrowth(t *testing.T) {
	tb := NewTable()
	const n = 20000 // well past the 4096-slot initial directory
	vals := make([]*Value, 0, n)
	for i := 0; i < n; i++ {
		// Distinct cells: spacing 10·cell guarantees no sharing (i+1
		// keeps x away from 0, which would snap to the interned Zero).
		x := float64(i+1) * 10 * tb.cell
		vals = append(vals, tb.Lookup(x, -x))
	}
	if got := tb.Count(); got != n+2 { // +Zero +One
		t.Fatalf("Count() = %d, want %d", got, n+2)
	}
	for i, v := range vals {
		if got := tb.Lookup(v.Re(), v.Im()); got != v {
			t.Fatalf("value %d lost across cell-directory growth", i)
		}
	}
}

// TestSwissNeighborGuarantee: the 4·tol cell geometry must keep the
// "home cell plus at most the boundary-adjacent cell per axis"
// single-probe guarantee: a value interned just under a cell boundary
// is found when probed from the far side.
func TestSwissNeighborGuarantee(t *testing.T) {
	tb := NewTable()
	cell := tb.cell
	base := 123 * cell // a cell boundary
	v := tb.Lookup(base-tb.tol/4, 0)
	if got := tb.Lookup(base+tb.tol/4, 0); got != v {
		t.Fatalf("cross-boundary probe missed: %v vs %v", got, v)
	}
	w := tb.Lookup(0, base+cell-tb.tol/4)
	if got := tb.Lookup(0, base+cell+tb.tol/4); got != w {
		t.Fatalf("imaginary-axis cross-boundary probe missed")
	}
	// Diagonal: both components near a boundary.
	d := tb.Lookup(base-tb.tol/4, base-tb.tol/4)
	if got := tb.Lookup(base+tb.tol/4, base+tb.tol/4); got != d {
		t.Fatalf("diagonal cross-boundary probe missed")
	}
}

// TestSwissPinSurvivesSweep: a pinned root weight survives an unmarked
// sweep and its storage is not recycled.
func TestSwissPinSurvivesSweep(t *testing.T) {
	tb := NewTable()
	v := tb.Lookup(0.123456, -0.654321)
	tb.Pin(v)
	tb.BeginMark()
	if tb.Sweep() != 0 {
		t.Fatalf("pinned value swept")
	}
	if got := tb.Lookup(0.123456, -0.654321); got != v {
		t.Fatalf("pinned value lost identity after sweep")
	}
	tb.Unpin(v)
	tb.BeginMark()
	if tb.Sweep() != 1 {
		t.Fatalf("unpinned value not swept")
	}
}
