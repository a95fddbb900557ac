// Package cnum provides a tolerance-based interning table for complex
// numbers, following the approach of Zulehner, Hillmich and Wille,
// "How to efficiently handle complex values? Implementing decision
// diagrams for quantum computing" (ICCAD 2019) — reference [39] of the
// reproduced paper.
//
// Decision diagram canonicity requires that two edge weights that are
// "numerically the same" are represented by the *same* object, so that
// node equality reduces to pointer comparisons in the unique table.
// A Table interns float pairs with a fixed tolerance: looking up a
// value that is within Tolerance (per component) of a previously
// stored value returns the stored representative.
//
// Like the C++ package the paper builds on, the table is a custom
// hash table over tolerance-grid cells (not a Go map): weight
// interning sits on the innermost simulation loop, and the home-cell
// fast path plus cheap integer hashing are what keep it off the
// profile. The cells live in an open-addressing swiss table (see
// swisstable.go and internal/swiss). Tolerance ties resolve to the
// first match in a fixed order — home cell, real-axis neighbour,
// imaginary-axis neighbour, diagonal; newest value first within a cell
// — which the tests pin against a brute-force model.
package cnum

import (
	"fmt"
	"math"

	"ddsim/internal/swiss"
)

// Tolerance is the default per-component distance below which two
// complex values are identified. It matches the default of the JKU DD
// package. Tables can be built with a different tolerance
// (NewTableTol) — the exact density-matrix engine interns with a much
// tighter one so deterministic results hold to ~1e-12.
const Tolerance = 1e-10

// Value is an interned complex number. Within one Table, pointer
// equality of *Value implies numerical equality (up to Tolerance), so
// decision diagram code compares weights by pointer only.
type Value struct {
	re, im float64
	id     uint32 // table-unique, used for cheap hashing downstream
	pins   int32  // root-weight pin count (see Pin/Unpin)
	marked bool   // mark-and-sweep flag (see BeginMark/Mark/Sweep)
	next   *Value // grid-cell chain, or free-list chain once recycled
}

// Re returns the real part of the value.
func (v *Value) Re() float64 { return v.re }

// Im returns the imaginary part of the value.
func (v *Value) Im() float64 { return v.im }

// ID returns the table-unique identifier of the value (non-zero).
// Decision-diagram hash tables mix these instead of hashing floats.
func (v *Value) ID() uint32 { return v.id }

// Complex returns the value as a complex128.
func (v *Value) Complex() complex128 { return complex(v.re, v.im) }

// Mag2 returns the squared magnitude |v|².
func (v *Value) Mag2() float64 { return v.re*v.re + v.im*v.im }

// String formats the value for diagnostics and DOT export.
func (v *Value) String() string {
	switch {
	case v.im == 0:
		return trimFloat(v.re)
	case v.re == 0:
		return trimFloat(v.im) + "i"
	case v.im < 0:
		return trimFloat(v.re) + trimFloat(v.im) + "i"
	default:
		return trimFloat(v.re) + "+" + trimFloat(v.im) + "i"
	}
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%.6g", f)
}

// Table interns complex values. The zero Table is not ready for use;
// create one with NewTable, and empty it for reuse with Reset. Tables
// are not safe for concurrent use; the simulator gives every worker its
// own table (and DD package).
type Table struct {
	cells cellTable

	count  int
	nextID uint32

	// Arena storage: values live in append-only slabs whose backing
	// arrays never move, and Sweep recycles dead values through the
	// free list instead of dropping them to the Go collector. A
	// recycled slot keeps its id, so live IDs stay dense. Reset keeps
	// the slabs in the list's spare capacity for the next use.
	slabs [][]Value
	free  *Value

	// tol is the per-component identification distance; cell is the
	// side of one hash-grid cell (4·tol, see neighborDir).
	tol, cell float64

	// Zero and One are the canonical representatives of 0 and 1.
	// They are pre-interned so hot paths can compare against them.
	Zero *Value
	One  *Value

	lookups int
	hits    int
}

// NewTable returns an empty table with 0 and 1 pre-interned, using
// the default Tolerance.
func NewTable() *Table { return NewTableTol(Tolerance) }

// NewTableTol returns an empty table identifying values within tol
// per component. tol must be positive and far above float64 epsilon;
// the exact engine uses a tight tolerance so that deterministic
// density-matrix results carry no visible interning error, while the
// stochastic engine keeps the JKU default for maximal node sharing.
func NewTableTol(tol float64) *Table {
	t := &Table{cells: cellTable{Table: swiss.NewTable[cellSlot](minCellGroups)}}
	t.Reset(tol)
	return t
}

// Reset empties the table for reuse at tolerance tol. It keeps the
// value slabs and the cell directory at the size they grew to, and the
// table then interns exactly as one from NewTableTol(tol) would: the
// same representatives with the same IDs (the directory's geometry
// decides no result, see Sweep). No *Value obtained before the Reset
// may be dereferenced again.
func (t *Table) Reset(tol float64) {
	if tol <= 0 {
		panic("cnum: tolerance must be positive")
	}
	t.cells.Reset(0)
	t.cells.resident = 0
	t.slabs, t.free = t.slabs[:0], nil
	t.count, t.nextID = 0, 1
	t.lookups, t.hits = 0, 0
	t.tol, t.cell = tol, 4*tol
	t.Zero = t.Lookup(0, 0)
	t.One = t.Lookup(1, 0)
}

// valueSlabSize is the number of values per arena slab. Slabs are
// append-only: the backing array never moves, so interior pointers
// stay valid.
const valueSlabSize = 2048

// newValue materialises one interned value: from the free list (the
// slot keeps its id — live IDs stay unique because a value is only
// recycled after Sweep removed it from its cell chain) or from the
// current slab.
func (t *Table) newValue(re, im float64) *Value {
	if v := t.free; v != nil {
		t.free = v.next
		v.re, v.im = re, im
		v.next = nil
		v.marked = false
		return v
	}
	if len(t.slabs) == 0 || len(t.slabs[len(t.slabs)-1]) == valueSlabSize {
		t.slabs = nextSlab(t.slabs)
	}
	s := &t.slabs[len(t.slabs)-1]
	*s = append(*s, Value{re: re, im: im, id: t.nextID})
	t.nextID++
	return &(*s)[len(*s)-1]
}

// nextSlab appends an empty slab to list: the one a Reset left in the
// list's spare capacity if it is a full-size slab, else a new one. The
// spare capacity can also hold nil entries (append grows the list in
// steps), and a slab of less than full capacity would move its values
// when it filled up.
func nextSlab(list [][]Value) [][]Value {
	if n := len(list); n < cap(list) {
		if s := list[:n+1][n]; cap(s) == valueSlabSize {
			return append(list, s[:0])
		}
	}
	return append(list, make([]Value, 0, valueSlabSize))
}

// ByID returns the value with the given ID, which must have been
// issued by this table and not swept since. IDs are dense slab
// positions: ID k lives at slab (k−1)/valueSlabSize, index
// (k−1)%valueSlabSize. Compute caches store weight IDs instead of
// pointers and resolve them here.
func (t *Table) ByID(id uint32) *Value {
	k := id - 1
	return &t.slabs[k/valueSlabSize][k%valueSlabSize]
}

// Pin marks v as a root weight: a weight held outside the diagram
// structure (the DD package pins the weight of every Ref'd root edge).
// Pinned values survive Sweep even when no live node stores them —
// necessary since Sweep recycles storage, so a swept value is no
// longer usable as a number. Pins nest; nil is ignored.
func (t *Table) Pin(v *Value) {
	if v != nil {
		v.pins++
	}
}

// Unpin releases a pin taken with Pin.
func (t *Table) Unpin(v *Value) {
	if v == nil {
		return
	}
	if v.pins <= 0 {
		panic("cnum: Unpin of unpinned value")
	}
	v.pins--
}

// Count returns the number of distinct interned values.
func (t *Table) Count() int { return t.count }

// HitRate returns the fraction of lookups answered from the table.
// It is exposed for tests and diagnostics.
func (t *Table) HitRate() float64 {
	if t.lookups == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.lookups)
}

// The hash-grid cell side is 4·tol so that a match for x can only
// live in x's own cell or — when x lies within tol of a cell boundary
// — the directly adjacent cell on that side. This keeps the common
// case at a single probe instead of nine.

func (t *Table) quantize(x float64) int64 {
	return int64(math.Floor(x / t.cell))
}

func (t *Table) closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= t.tol
}

// neighborDir reports which neighbour cells along one axis could hold
// a match for x: −1, +1 or 0 (none) depending on x's offset inside
// its cell.
func (t *Table) neighborDir(x float64, q int64) int64 {
	off := x - float64(q)*t.cell
	if off <= t.tol {
		return -1
	}
	if off >= t.cell-t.tol {
		return 1
	}
	return 0
}

func cellHash(qr, qi int64) uint64 {
	h := uint64(qr)*0x9E3779B97F4A7C15 ^ uint64(qi)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// Lookup interns the complex number re+im·i and returns its canonical
// representative. Values within Tolerance of 0 (per component) are
// snapped to exactly 0 so that zero edges are structurally exact;
// likewise values within Tolerance of ±1 and ±1/√2 are snapped,
// keeping gate matrices built from exact constants canonical.
func (t *Table) Lookup(re, im float64) *Value {
	if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
		panic(fmt.Sprintf("cnum: non-finite value %g%+gi interned", re, im))
	}
	re = t.snap(re)
	im = t.snap(im)
	t.lookups++

	// Cell scan order (home, real-axis neighbour, imaginary-axis
	// neighbour, diagonal; newest value first within each cell) is the
	// tie breaker of tolerance matching. A match can sit across a grid
	// boundary only when the value lies within tol of that boundary.
	qr, qi := t.quantize(re), t.quantize(im)
	home := t.cells.findCell(qr, qi)
	if v := t.scanCell(home, re, im); v != nil {
		t.hits++
		return v
	}
	nr := t.neighborDir(re, qr)
	ni := t.neighborDir(im, qi)
	if nr != 0 {
		if v := t.scanCell(t.cells.findCell(qr+nr, qi), re, im); v != nil {
			t.hits++
			return v
		}
	}
	if ni != 0 {
		if v := t.scanCell(t.cells.findCell(qr, qi+ni), re, im); v != nil {
			t.hits++
			return v
		}
	}
	if nr != 0 && ni != 0 {
		if v := t.scanCell(t.cells.findCell(qr+nr, qi+ni), re, im); v != nil {
			t.hits++
			return v
		}
	}

	v := t.newValue(re, im)
	if home != nil {
		v.next = home.head
		home.head = v
	} else {
		if t.cells.Full(t.cells.resident) {
			t.cells.rebuild(t.cells.resident + 1)
			// home stayed nil, so no slot pointer went stale here.
		}
		v.next = nil
		t.cells.addCell(cellSlot{qr: qr, qi: qi, head: v})
	}
	t.count++
	return v
}

// BeginMark clears all mark bits in preparation for a sweep.
func (t *Table) BeginMark() {
	t.cells.ForEach(func(s *cellSlot) {
		for v := s.head; v != nil; v = v.next {
			v.marked = false
		}
	})
}

// Mark pins one value against the next Sweep. Nil is ignored.
func (t *Table) Mark(v *Value) {
	if v != nil {
		v.marked = true
	}
}

// Sweep removes every unmarked, unpinned value except the canonical
// Zero and One, returning the number of values dropped. Callers (the
// DD package's garbage collector) must have Marked every value that is
// still referenced *structurally* — i.e. every edge weight stored in a
// live node — and Pinned every root weight held outside the structure
// (the DD package does this inside Ref/RefM). A swept value's storage
// is recycled by a later Lookup, so dereferencing it afterwards is a
// use-after-free; the freed slot is poisoned with NaNs so such a bug
// surfaces as a loud non-finite-value panic instead of silent
// corruption.
//
// Every cell chain is filtered in slot order, keeping within-cell
// order; the control words are then rebuilt from the surviving cells,
// so emptied cells leave no tombstones behind. The free list is then
// rebuilt by a walk of the value slabs in ID order, never in slot
// order: it decides the IDs handed out after the sweep, weight IDs key
// the DD compute caches, and slot order depends on the directory's
// geometry, which a Reset table inherits from its earlier uses.
func (t *Table) Sweep() int {
	dropped := 0
	liveCells := 0
	t.cells.ForEach(func(s *cellSlot) {
		var head *Value
		tail := &head
		for v := s.head; v != nil; {
			next := v.next
			if v.marked || v.pins > 0 || v == t.Zero || v == t.One {
				*tail = v
				v.next = nil
				tail = &v.next
			} else {
				dropped++
				t.count--
				v.re, v.im = math.NaN(), math.NaN()
			}
			v = next
		}
		s.head = head
		if head != nil {
			liveCells++
		}
	})
	t.cells.rebuild(liveCells)
	t.free = nil
	for _, s := range t.slabs {
		for i := range s {
			if v := &s[i]; math.IsNaN(v.re) { // poisoned: dead now or before
				v.next = t.free
				t.free = v
			}
		}
	}
	return dropped
}

// snap collapses values numerically indistinguishable from the exact
// constants 0, ±1 and ±1/√2 to those constants. This keeps the weights
// produced by H/CX/QFT circuits exactly canonical over long gate
// sequences.
func (t *Table) snap(x float64) float64 {
	switch {
	case math.Abs(x) <= t.tol:
		return 0
	case math.Abs(x-1) <= t.tol:
		return 1
	case math.Abs(x+1) <= t.tol:
		return -1
	case math.Abs(x-math.Sqrt2/2) <= t.tol:
		return math.Sqrt2 / 2
	case math.Abs(x+math.Sqrt2/2) <= t.tol:
		return -math.Sqrt2 / 2
	default:
		return x
	}
}

// LookupC interns a complex128.
func (t *Table) LookupC(c complex128) *Value {
	return t.Lookup(real(c), imag(c))
}

// Mul returns the interned product a·b.
func (t *Table) Mul(a, b *Value) *Value {
	if a == t.Zero || b == t.Zero {
		return t.Zero
	}
	if a == t.One {
		return b
	}
	if b == t.One {
		return a
	}
	return t.LookupC(a.Complex() * b.Complex())
}

// Div returns the interned quotient a/b. b must be non-zero.
func (t *Table) Div(a, b *Value) *Value {
	if b == t.Zero {
		panic("cnum: division by zero weight")
	}
	if a == t.Zero {
		return t.Zero
	}
	if b == t.One {
		return a
	}
	if a == b {
		return t.One
	}
	return t.LookupC(a.Complex() / b.Complex())
}

// Add returns the interned sum a+b.
func (t *Table) Add(a, b *Value) *Value {
	if a == t.Zero {
		return b
	}
	if b == t.Zero {
		return a
	}
	return t.LookupC(a.Complex() + b.Complex())
}

// Neg returns the interned negation −a.
func (t *Table) Neg(a *Value) *Value {
	if a == t.Zero {
		return a
	}
	return t.Lookup(-a.re, -a.im)
}

// Conj returns the interned complex conjugate of a.
func (t *Table) Conj(a *Value) *Value {
	if a.im == 0 {
		return a
	}
	return t.Lookup(a.re, -a.im)
}
