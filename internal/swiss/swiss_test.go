package swiss

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// byteOf extracts control byte i from a word.
func byteOf(w uint64, i int) uint8 { return uint8(w >> (uint(i) * 8)) }

// wordOf assembles a control word from eight bytes.
func wordOf(b [8]uint8) uint64 {
	var w uint64
	for i := 7; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// TestMatchH2Property: against a brute-force scan, matchH2 must flag
// every true match and only ever add false positives above the first
// true match (the documented SWAR borrow artefact) — and when a word
// contains no true match, no bit at all.
func TestMatchH2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b [8]uint8
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = empty
			} else {
				b[i] = uint8(rng.Intn(128))
			}
		}
		h2 := uint8(rng.Intn(128))
		m := matchH2(wordOf(b), h2)
		firstTrue := -1
		for i := 0; i < 8; i++ {
			if b[i] == h2 {
				if m&(1<<(uint(i)*8+7)) == 0 {
					return false // missed a true match
				}
				if firstTrue < 0 {
					firstTrue = i
				}
			}
		}
		for i := 0; i < 8; i++ {
			if b[i] != h2 && m&(1<<(uint(i)*8+7)) != 0 {
				// False positive: only legal above a true match.
				if firstTrue < 0 || i < firstTrue {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestMatchEmptyExact: empty/occupied masks must be exact complements
// over the eight slots for every control byte mix.
func TestMatchEmptyExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b [8]uint8
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = empty
			} else {
				b[i] = uint8(rng.Intn(128))
			}
		}
		w := wordOf(b)
		me, mo := matchEmpty(w), matchOccupied(w)
		if me&mo != 0 || me|mo != hiBits {
			return false
		}
		for i := 0; i < 8; i++ {
			want := b[i] == empty
			if (me&(1<<(uint(i)*8+7)) != 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestFirstMatchBelowFalsePositives: taking first on a matchH2 mask is
// always a true match when any true match exists — the property insert
// and lookup fast paths rely on.
func TestFirstMatchBelowFalsePositives(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b [8]uint8
		for i := range b {
			b[i] = uint8(rng.Intn(129)) // 128 == empty
			if b[i] == 128 {
				b[i] = empty
			}
		}
		h2 := uint8(rng.Intn(128))
		hasTrue := false
		for _, c := range b {
			if c == h2 {
				hasTrue = true
			}
		}
		m := matchH2(wordOf(b), h2)
		if !hasTrue {
			// No true match: any set bit must be a false positive, which
			// requires a borrow from a true zero byte — impossible.
			return m == 0
		}
		return b[first(m)] == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestSetByte: setByte touches exactly the addressed byte.
func TestSetByte(t *testing.T) {
	w := emptyWord
	for i := 0; i < 8; i++ {
		w2 := setByte(w, i, 0x5a)
		for j := 0; j < 8; j++ {
			want := uint8(empty)
			if j == i {
				want = 0x5a
			}
			if byteOf(w2, j) != want {
				t.Fatalf("setByte(%d): byte %d = %#x, want %#x", i, j, byteOf(w2, j), want)
			}
		}
	}
}

// TestProbeVisitsAllGroups: the probe sequence must be the triangular
// one, start + k(k+1)/2 — table layouts, and through them the kernel's
// compute-cache evictions, depend on it — and must visit every group
// exactly once within the first groups steps, for every power-of-two
// size and start: the termination guarantee of insert.
func TestProbeVisitsAllGroups(t *testing.T) {
	for _, groups := range []int{1, 2, 4, 8, 64, 512} {
		tab := NewTable[uint64](groups)
		for start := 0; start < groups; start++ {
			seen := make(map[uint64]bool, groups)
			p := tab.Probe(uint64(start) << 7) // h1 selects the start group
			for i := 0; i < groups; i++ {
				if want := uint64(start+i*(i+1)/2) % uint64(groups); p.g != want || p.Len() != i+1 {
					t.Fatalf("groups=%d start=%d: step %d at group %d (len %d), want %d", groups, start, i, p.g, p.Len(), want)
				}
				if seen[p.g] {
					t.Fatalf("groups=%d start=%d: group %d visited twice", groups, start, p.g)
				}
				seen[p.g] = true
				p = tab.Next(p)
			}
			if len(seen) != groups {
				t.Fatalf("groups=%d start=%d: visited %d distinct groups", groups, start, len(seen))
			}
		}
	}
}

// TestGeometry: groupsFor/growAt respect the 7/8 bound and powers of
// two.
func TestGeometry(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 55, 56, 57, 1000, 250000} {
		g := groupsFor(n, 4)
		if bits.OnesCount(uint(g)) != 1 {
			t.Fatalf("groupsFor(%d) = %d, not a power of two", n, g)
		}
		if growAt(g) <= n {
			t.Fatalf("groupsFor(%d) = %d holds only %d residents", n, g, growAt(g))
		}
		if g > 4 && growAt(g/2) > n {
			t.Fatalf("groupsFor(%d) = %d not minimal", n, g)
		}
	}
	if growAt(512) != 512*8*7/8 {
		t.Fatalf("growAt(512) = %d", growAt(512))
	}
}

func hashKey(k uint64) uint64 {
	h := k * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// refSet is the simplest client of Table: a set of uint64 keys that
// looks up over a Probe, places on a miss and grows by moving every key
// straight into fresh arrays, as the kernel tables do.
type refSet struct {
	Table[uint64]
	n int
}

// find returns the slot holding k, or the empty slot where k belongs.
func (s *refSet) find(k uint64) (slot int, ok bool) {
	for p := s.Probe(hashKey(k)); ; p = s.Next(p) {
		for m := p.Matches(); m.Any(); m = m.Next() {
			if *s.At(m.Slot()) == k {
				return m.Slot(), true
			}
		}
		if i, ok := p.Empty(); ok {
			return i, false
		}
	}
}

func (s *refSet) insert(k uint64) {
	slot, ok := s.find(k)
	if ok {
		return
	}
	if s.Full(s.n) {
		old := s.Table
		s.Reset(s.n + 1)
		old.ForEach(func(x *uint64) { s.Insert(hashKey(*x), *x) })
		s.Insert(hashKey(k), k)
	} else {
		s.Place(slot, hashKey(k), k)
	}
	s.n++
}

// checkTable verifies the set against a model: no key lost, none
// fabricated, and every control byte consistent with its slot.
func checkTable(s *refSet, model map[uint64]bool) bool {
	if s.n != len(model) {
		return false
	}
	occupied := 0
	for g := range s.ctrl {
		for i := 0; i < GroupSize; i++ {
			c, k := byteOf(s.ctrl[g], i), s.slots[g*GroupSize+i]
			if c == empty {
				continue // Reset leaves stale keys behind empty control bytes
			}
			occupied++
			if !model[k] || c != h2(hashKey(k)) {
				return false // unknown key, or control byte disagrees with its hash
			}
		}
	}
	if occupied != len(model) {
		return false
	}
	for k := range model {
		if _, ok := s.find(k); !ok {
			return false
		}
	}
	return true
}

// TestReferenceTableProperty drives random insert/lookup workloads
// through a Table against a Go map across growth, then rebuilds it
// in place with Reset (the garbage-collection compaction path: same
// geometry, control words emptied and refilled with the survivors) and regrows
// it past its old size.
func TestReferenceTableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &refSet{Table: NewTable[uint64](1)}
		model := make(map[uint64]bool)
		for i := 0; i < 2000; i++ {
			k := uint64(1 + rng.Intn(3000)) // 0 marks an empty slot
			if rng.Intn(2) == 0 {
				s.insert(k)
				model[k] = true
			} else if _, got := s.find(k); got != model[k] {
				return false
			}
		}
		if !checkTable(s, model) {
			return false
		}

		// In-place Reset: keep every other key.
		groups, ctrl := s.Groups(), &s.ctrl[0]
		var live []uint64
		s.ForEach(func(x *uint64) {
			if *x%2 == 0 {
				live = append(live, *x)
			} else {
				delete(model, *x)
			}
		})
		if s.Full(len(live)) {
			return false
		}
		s.Reset(len(live))
		if s.Groups() != groups || &s.ctrl[0] != ctrl {
			return false // compaction must neither shrink nor reallocate
		}
		s.n = 0
		if !checkTable(s, map[uint64]bool{}) {
			return false
		}
		for _, k := range live {
			s.insert(k)
		}
		if !checkTable(s, model) {
			return false
		}

		// Regrow past the old geometry.
		for k := uint64(3001); s.Groups() == groups; k++ {
			s.insert(k)
			model[k] = true
		}
		return checkTable(s, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
