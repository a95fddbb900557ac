// Package swiss provides the open-addressing "swiss table" (the design
// popularised by abseil's flat_hash_map) that the decision-diagram
// kernel hash-conses through: slots are organised in groups of eight,
// and each group carries one 64-bit control word holding a one-byte
// summary per slot — 0x80 for an empty slot, or the low seven bits of
// the slot key's hash (H2) for an occupied one. A lookup splits its
// hash into a group selector (H1) and the seven-bit fingerprint (H2),
// then scans whole groups at a time: one word load plus branch-free
// SWAR arithmetic yields a bitmask of candidate slots, so the common
// case touches one cache line of metadata instead of chasing a bucket
// chain through the heap.
//
// Table is the one implementation: the VNode/MNode unique tables
// (internal/dd) and the weight-interning cell directory
// (internal/cnum) are instances of it. The caller owns the hash and
// the key comparison: it walks a Probe and compares keys inline, so
// the innermost lookup pays no closure or interface call. The control
// words, the probe sequence and the SWAR primitives are unexported, so
// no other package can keep a control-byte table of its own.
//
// The table deliberately has no tombstone state and no delete:
// entries die only inside the kernel's own garbage collection, which
// rebuilds the control words from the surviving population with Reset
// and Insert (rehash-on-load), so a probe can always terminate at the
// first empty slot.
package swiss

import "math/bits"

const (
	// GroupSize is the number of slots summarised by one control word.
	GroupSize = 8
	// groupShift converts between slot and group indices.
	groupShift = 3
	// empty is the control byte of an unoccupied slot. Occupied slots
	// store an H2 fingerprint, whose high bit is always clear.
	empty = 0x80
	// emptyWord is a control word with all eight slots empty.
	emptyWord uint64 = 0x8080808080808080

	loBits uint64 = 0x0101010101010101
	hiBits uint64 = 0x8080808080808080

	// maxLoadNum/maxLoadDen bound the table occupancy: a table grows
	// when residents exceed 7/8 of its slots. Well below that bound the
	// expected probe is a single group; rehash-on-load keeps it there
	// because garbage collection rebuilds rather than tombstones.
	maxLoadNum = 7
	maxLoadDen = 8
)

// h1 returns the group-selector part of a hash (everything above the
// seven fingerprint bits).
func h1(h uint64) uint64 { return h >> 7 }

// h2 returns the seven-bit fingerprint stored in the control byte of
// an occupied slot.
func h2(h uint64) uint8 { return uint8(h) & 0x7f }

// matchH2 returns a bitmask with bit 8·i+7 set for each slot i of the
// group whose control byte equals fp. The SWAR zero-byte scan can set
// a false-positive bit for a slot above a genuine match (borrow
// propagation), so candidates are confirmed with the caller's full key
// comparison — which the 7-bit fingerprint needs anyway.
func matchH2(w uint64, fp uint8) uint64 {
	x := w ^ (loBits * uint64(fp))
	return (x - loBits) &^ x & hiBits
}

// matchEmpty returns a bitmask with bit 8·i+7 set for each empty slot
// of the group. With no tombstone state, the high bit of a control
// byte is set exactly when the slot is empty, so this is exact.
func matchEmpty(w uint64) uint64 { return w & hiBits }

// matchOccupied returns a bitmask with bit 8·i+7 set for each occupied
// slot of the group (used by iteration).
func matchOccupied(w uint64) uint64 { return ^w & hiBits }

// first returns the slot index (0..7) of the lowest set bit in a match
// mask. Because SWAR false positives only occur above a genuine match,
// the first match of a matchH2 mask is always exact.
func first(mask uint64) int { return bits.TrailingZeros64(mask) >> groupShift }

// next clears the lowest set bit of a match mask, advancing iteration.
func next(mask uint64) uint64 { return mask & (mask - 1) }

// setByte returns the control word w with slot i's byte replaced by c.
func setByte(w uint64, i int, c uint8) uint64 {
	sh := uint(i) * 8
	return w&^(0xff<<sh) | uint64(c)<<sh
}

// groupsFor returns the smallest power-of-two group count, at least
// min, whose slot capacity keeps n residents within the maximum load
// factor. min must be a power of two.
func groupsFor(n, min int) int {
	g := min
	for g*GroupSize*maxLoadNum/maxLoadDen <= n {
		g *= 2
	}
	return g
}

// growAt returns the resident count at which a table of the given
// group count must rehash before the next insertion.
func growAt(groups int) int {
	return groups * GroupSize * maxLoadNum / maxLoadDen
}

// Table is an open-addressing swiss table of S entries. The caller
// keeps the resident count and the hash; the table keeps the control
// words and the slots. The zero Table has no groups; create tables
// with NewTable.
type Table[S any] struct {
	ctrl   []uint64
	slots  []S
	mask   uint64 // group count − 1
	growAt int    // resident bound before the next insert rehashes
}

// NewTable returns an empty table of groups (a power of two) groups.
func NewTable[S any](groups int) Table[S] {
	t := Table[S]{
		ctrl:   make([]uint64, groups),
		slots:  make([]S, groups*GroupSize),
		mask:   uint64(groups - 1),
		growAt: growAt(groups),
	}
	for i := range t.ctrl {
		t.ctrl[i] = emptyWord
	}
	return t
}

// Groups returns the table's group count (slots / GroupSize).
func (t *Table[S]) Groups() int { return len(t.ctrl) }

// Full reports whether a table holding n residents must grow before
// the next insertion — equivalently, whether Reset(n) would allocate
// fresh arrays instead of clearing the current ones.
func (t *Table[S]) Full(n int) bool { return n >= t.growAt }

// Probe starts the probe sequence of hash h at its home group.
func (t *Table[S]) Probe(h uint64) Probe {
	g := h1(h) & t.mask
	return Probe{g: g, fp: h2(h), w: t.ctrl[g]}
}

// Next returns the probe moved to the next group of its sequence.
func (t *Table[S]) Next(p Probe) Probe {
	p.i++
	p.g = (p.g + uint64(p.i)) & t.mask
	p.w = t.ctrl[p.g]
	return p
}

// At returns the entry in slot i.
func (t *Table[S]) At(i int) *S { return &t.slots[i] }

// Place fills the empty slot a Probe of hash h reported for a missed
// key (Probe.Empty).
func (t *Table[S]) Place(slot int, h uint64, s S) {
	g := slot >> groupShift
	t.ctrl[g] = setByte(t.ctrl[g], slot&(GroupSize-1), h2(h))
	t.slots[slot] = s
}

// Insert places an entry absent from the table into the first empty
// slot of its probe sequence. The caller has ensured capacity (Full).
func (t *Table[S]) Insert(h uint64, s S) {
	for p := t.Probe(h); ; p = t.Next(p) {
		if i, ok := p.Empty(); ok {
			t.Place(i, h, s)
			return
		}
	}
}

// ForEach calls fn on every occupied slot in slot order. fn may modify
// the entry but not its key, and must not insert.
func (t *Table[S]) ForEach(fn func(*S)) {
	for g := range t.ctrl {
		for m := matchOccupied(t.ctrl[g]); m != 0; m = next(m) {
			fn(&t.slots[g*GroupSize+first(m)])
		}
	}
}

// Reset empties the table and sizes it for n residents — the
// rehash-on-load path of growth and garbage-collection compaction. It
// never shrinks: when the geometry is unchanged it empties the control
// words in place (so steady-state collections allocate nothing) and
// leaves the slots as they are, since no probe reads a slot behind an
// empty control byte; otherwise it allocates fresh arrays and leaves
// the old ones untouched, so a caller holding a copy of the old Table
// can move its entries straight across. A stale slot keeps what it
// points to reachable until Place overwrites it, so the kernel tables
// keep only pointers into their own unit's memory there.
func (t *Table[S]) Reset(n int) {
	if groups := groupsFor(n, len(t.ctrl)); groups != len(t.ctrl) {
		*t = NewTable[S](groups)
		return
	}
	for i := range t.ctrl {
		t.ctrl[i] = emptyWord
	}
}

// Probe is a position in the probe sequence of one hash: the groups
// g, g+1, g+3, g+6, ... (mod the group count) from the hash's home
// group g. For a power-of-two group count the sequence visits every
// group exactly once in its first Groups steps, so insertion into a
// non-full table always finds an empty slot and a lookup always
// terminates. The caller confirms each fingerprint match with its own
// key comparison, written inline at the call site. (A Find taking the
// comparison as a closure measured 11–29 % slower on the kernel's
// lookup layer probes; see PERFORMANCE.md, "DD kernel planes".) A
// lookup is
//
//	for p := t.Probe(h); ; p = t.Next(p) {
//		for m := p.Matches(); m.Any(); m = m.Next() {
//			if key matches *t.At(m.Slot()) { hit }
//		}
//		if i, ok := p.Empty(); ok { miss: the key belongs at slot i }
//	}
//
// Probe and Matches are small values with value methods, so the
// compiler keeps a whole lookup in registers.
type Probe struct {
	g  uint64 // current group
	i  uint32 // groups visited − 1
	fp uint8  // H2 of the hash
	w  uint64 // control word of the current group
}

// Matches returns the slots of the current group whose control byte
// carries the hash's fingerprint. Fingerprints are seven bits and the
// SWAR scan adds false positives, so a match is only a candidate.
func (p Probe) Matches() Matches {
	return Matches{base: int(p.g) * GroupSize, m: matchH2(p.w, p.fp)}
}

// Empty returns the first empty slot of the current group. With no
// tombstones a lookup ends at the first group holding an empty slot:
// ok means the key is absent and slot is exactly where insertion goes,
// so a caller that has not grown the table since can Place there
// without a second probe. Otherwise the lookup goes on with Next.
func (p Probe) Empty() (slot int, ok bool) {
	m := matchEmpty(p.w)
	return int(p.g)*GroupSize + first(m), m != 0
}

// Len returns the number of groups visited — the unit of the kernel's
// probe-length telemetry (metadata cache lines touched per lookup).
func (p Probe) Len() int { return int(p.i) + 1 }

// Matches is the set of fingerprint candidates of one group, walked
// lowest slot first.
type Matches struct {
	base int
	m    uint64
}

// Any reports whether a candidate is left.
func (m Matches) Any() bool { return m.m != 0 }

// Slot returns the lowest candidate's slot index.
func (m Matches) Slot() int { return m.base + first(m.m) }

// Next drops the lowest candidate.
func (m Matches) Next() Matches { return Matches{m.base, next(m.m)} }
