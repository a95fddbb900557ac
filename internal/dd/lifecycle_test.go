package dd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ddsim/internal/cnum"
)

// growNodes interns count distinct vector nodes in p, reusing a
// handful of weights: four level-1 nodes, then every ordered pair of
// the level below, one level up, until count nodes exist. The nodes
// are unreferenced, so the next collection frees them all. p needs at
// least five qubits for 2·10^5 nodes.
func growNodes(p *Package, count int) {
	one, zero, i := p.W.One, p.W.Zero, p.W.Lookup(0, 1)
	var layer []*VNode
	for _, w := range [][2]VEdge{
		{p.TerminalEdge(one), p.TerminalEdge(one)},
		{p.TerminalEdge(one), p.TerminalEdge(zero)},
		{p.TerminalEdge(zero), p.TerminalEdge(one)},
		{p.TerminalEdge(one), p.TerminalEdge(i)},
	} {
		layer = append(layer, p.makeVNode(1, w[0], w[1]).N)
	}
	made := len(layer)
	for level := 2; made < count; level++ {
		var next []*VNode
	pairs:
		for _, a := range layer {
			for _, b := range layer {
				if made == count {
					break pairs
				}
				next = append(next, p.makeVNode(level, VEdge{a, one}, VEdge{b, one}).N)
				made++
			}
		}
		layer = next
	}
}

// cacheKeys counts the non-zero entries of a cache set and returns the
// highest vector and matrix node IDs their keys name.
func cacheKeys(c *cacheSet) (entries int, maxV, maxM uint32) {
	note := func(v, m uint32) {
		entries++
		maxV, maxM = max(maxV, v), max(maxM, m)
	}
	lo := func(key uint64) uint32 { return uint32(key) }
	hi := func(key uint64) uint32 { return uint32(key >> 32) }
	for _, e := range c.mv {
		if e != (pairEntry{}) {
			note(lo(e.key), hi(e.key))
		}
	}
	for _, e := range c.add {
		if e != (tripleEntry{}) {
			note(max(e.a, e.b), 0)
		}
	}
	for _, e := range c.madd {
		if e != (tripleEntry{}) {
			note(0, max(e.a, e.b))
		}
	}
	for _, e := range c.mm {
		if e != (pairEntry{}) {
			note(0, max(lo(e.key), hi(e.key)))
		}
	}
	for _, e := range c.dot {
		if e != (dotEntry{}) {
			note(max(lo(e.key), hi(e.key)), 0)
		}
	}
	for _, e := range c.norm2 {
		if e != (norm2Entry{}) {
			note(e.n, 0)
		}
	}
	for _, e := range c.prob {
		if e != (probEntry{}) {
			note(e.n, 0)
		}
	}
	return entries, maxV, maxM
}

// weightGroups returns the group count of a weight table's cell
// directory, which cnum keeps unexported: the length of its control
// words.
func weightGroups(w *cnum.Table) int {
	return reflect.ValueOf(w).Elem().FieldByName("cells").FieldByName("ctrl").Len()
}

// TestReleasedTablesKeepGeometry: a 24-qubit package that grew its
// unique tables, node slabs and weight table hands them, emptied but at
// their grown size, to the next 24-qubit package, and a 10-qubit
// package never draws them. The unit is recognised by the address of
// its first unique-table slot; its slabs by the addresses of their
// first nodes and values.
func TestReleasedTablesKeepGeometry(t *testing.T) {
	big := NewPackage(24)
	growNodes(big, 40000)
	for i := 0; i < 20000; i++ { // grow the weight table's cell directory
		big.W.Lookup(float64(i%541)*1e-3, float64(i/541)*1e-3)
	}
	vGroups, mGroups, wGroups := big.vt.Groups(), big.mt.Groups(), weightGroups(big.W)
	if vGroups <= minVGroups {
		t.Fatalf("growNodes left the vector table at %d groups", vGroups)
	}
	if wGroups <= 512 {
		t.Fatalf("the weight directory stayed at %d groups", wGroups)
	}
	slot, w := big.vt.At(0), big.W
	var vFirsts []*VNode
	for _, s := range big.vSlabs {
		vFirsts = append(vFirsts, &s[0])
	}
	firstValue := w.ByID(1)
	big.Release()
	if big.W != nil {
		t.Fatal("a released package still holds its weight table")
	}

	small := NewPackage(10)
	defer small.Release()
	if small.vt.At(0) == slot || small.W == w {
		t.Fatal("a 10-qubit package drew the unit a 24-qubit package released")
	}
	again := NewPackage(24)
	defer again.Release()
	if again.vt.At(0) != slot || again.W != w {
		t.Fatal("the next 24-qubit package did not draw the unit the last one released")
	}
	if again.vt.Groups() != vGroups || again.mt.Groups() != mGroups || weightGroups(again.W) != wGroups {
		t.Fatalf("recycled tables have %d/%d/%d groups, want %d/%d/%d",
			again.vt.Groups(), again.mt.Groups(), weightGroups(again.W), vGroups, mGroups, wGroups)
	}
	if len(again.vSlabs) != 0 || cap(again.vSlabs) < len(vFirsts) {
		t.Fatalf("recycled unit has %d vector slabs in use and room for %d, want 0 and ≥ %d",
			len(again.vSlabs), cap(again.vSlabs), len(vFirsts))
	}
	resident := 0
	again.vt.ForEach(func(**VNode) { resident++ })
	again.mt.ForEach(func(**MNode) { resident++ })
	if resident != 0 || again.vCount != 0 || again.W.Count() != 2 || again.nextVID != again.vBase+1 ||
		again.nextMID != again.mBase+1 || again.vBase < 40000 {
		t.Fatalf("recycled tables hold %d nodes and %d weights (vCount %d, next ids %d/%d, bases %d/%d)",
			resident, again.W.Count(), again.vCount, again.nextVID, again.nextMID, again.vBase, again.mBase)
	}
	if _, maxV, maxM := cacheKeys(&again.caches); maxV > again.vBase || maxM > again.mBase {
		t.Fatalf("a recycled cache entry keys on vector id %d / matrix id %d, above the bases %d/%d",
			maxV, maxM, again.vBase, again.mBase)
	}
	// The recycled package works like a fresh one, on the same slabs.
	e := again.MulMV(again.SingleQubitGate(matH, 0), again.ZeroState())
	if got := again.Norm2(e); math.Abs(got-1) > 1e-12 {
		t.Fatalf("recycled package: norm %v after H", got)
	}
	if again.W.ByID(1) != firstValue || &again.vSlabs[0][0] != vFirsts[0] {
		t.Fatal("the recycled package did not reuse the unit's first weight and node slabs")
	}
	growNodes(again, 40000)
	for i := range vFirsts {
		if &again.vSlabs[i][0] != vFirsts[i] {
			t.Fatalf("vector slab %d was not reused in place", i)
		}
	}
	checkArenaInvariants(t, again)
}

// TestFreeListBound: a class's free list holds at most as many units
// as the class had packages live at once. New and Release in turn on
// one goroutine leave one unit per class; W goroutines that each hold
// one live package leave at most W.
func TestFreeListBound(t *testing.T) {
	lists := []*unitList{&smallUnits, &largeUnits}
	var saved [][]tableSet
	for _, l := range lists {
		l.mu.Lock()
		saved = append(saved, l.units)
		l.units = nil
		l.mu.Unlock()
	}
	defer func() {
		for i, l := range lists {
			l.mu.Lock()
			l.units = saved[i]
			l.mu.Unlock()
		}
	}()
	count := func() (small, large int) {
		smallUnits.mu.Lock()
		largeUnits.mu.Lock()
		defer smallUnits.mu.Unlock()
		defer largeUnits.mu.Unlock()
		return len(smallUnits.units), len(largeUnits.units)
	}

	for i := 0; i < 20; i++ {
		p := NewPackage(6 + 18*(i%2))
		growNodes(p, 2000)
		p.Release()
	}
	if s, l := count(); s != 1 || l != 1 {
		t.Fatalf("sequential packages left %d small and %d large units, want 1 and 1", s, l)
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p := NewPackage(8)
				growNodes(p, 500)
				p.Release()
			}
		}()
	}
	wg.Wait()
	if s, l := count(); s < 1 || s > workers || l != 1 {
		t.Fatalf("%d goroutines left %d small and %d large units, want 1..%d and 1", workers, s, l, workers)
	}
}

// traced is one op result in a form two packages can compare: a node
// ID relative to the package's ID window, a weight ID and the value.
type traced struct {
	node uint64
	w    uint32
	v    complex128
}

// cacheWorkout runs an op sequence on a 6-qubit package that probes
// all seven compute caches — gate products, controlled gates, MulMM
// (and the AddM under it), Add, Dot, Norm2 and ProbOne — and returns
// every result. The sequence opens with a fixed prefix and continues
// with gates drawn from seed, so two workouts of different seeds
// probe the same slots with the same relative keys before they
// diverge.
func cacheWorkout(p *Package, seed int64) []traced {
	const n = 6
	var out []traced
	v := func(e VEdge) VEdge {
		out = append(out, traced{p.vKey(e.N), e.W.ID(), e.W.Complex()})
		return e
	}
	m := func(e MEdge) MEdge {
		out = append(out, traced{p.mKey(e.N), e.W.ID(), e.W.Complex()})
		return e
	}
	scalar := func(x complex128) { out = append(out, traced{v: x}) }
	e := p.ZeroState()
	for q := 0; q < n; q++ {
		e = v(p.MulMV(m(p.SingleQubitGate(matH, q)), e))
	}
	base := e
	scalar(complex(p.Norm2(e), 0))
	scalar(complex(p.ProbOne(e, 0), 0))
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 60; step++ {
		q := rng.Intn(n)
		th := float64(rng.Intn(16)) * math.Pi / 8
		c, s := complex(math.Cos(th/2), 0), complex(math.Sin(th/2), 0)
		ry := Mat2{{c, -s}, {s, c}}
		switch rng.Intn(5) {
		case 0:
			e = v(p.MulMV(m(p.SingleQubitGate(ry, q)), e))
		case 1:
			ctrl := []Control{{Qubit: (q + 1 + rng.Intn(n-1)) % n}}
			e = v(p.MulMV(m(p.ControlledGate(matX, q, ctrl)), e))
		case 2:
			g := m(p.MulMM(p.SingleQubitGate(ry, q), p.ControlledGate(matH, (q+1)%n, []Control{{Qubit: q}})))
			e = v(p.MulMV(g, e))
		case 3:
			e = v(p.Normalize(v(p.Add(e, base))))
		default:
			scalar(p.Dot(base, e))
			scalar(complex(p.ProbOne(e, q), 0))
		}
	}
	return out
}

// smallCacheSet returns 256-entry caches, where slots are overwritten
// constantly, so hits and conflict evictions both occur on small
// registers.
func smallCacheSet() cacheSet {
	return cacheSet{
		mv: make([]pairEntry, 256), add: make([]tripleEntry, 256),
		madd: make([]tripleEntry, 256), mm: make([]pairEntry, 256),
		dot: make([]dotEntry, 256), norm2: make([]norm2Entry, 256),
		prob: make([]probEntry, 256),
	}
}

// TestStaleCacheEntriesNeverAnswer: package A runs a workout and is
// released; package B draws A's table set — caches uncleared and ID
// windows past A's nodes — and runs a workout of another seed. Its
// results, weight IDs and node IDs relative to its window are
// bit-identical to those of the same workout on a new table set, and
// so are its compute-cache lookups, hits and conflicts: an entry A
// left never answers and counts as an empty slot, not as a conflict.
// B's caches must hold A's entries when it starts, so a Release that
// cleared them again fails here. The set passes from A to B directly,
// not through the pool, which may drop a Put.
func TestStaleCacheEntriesNeverAnswer(t *testing.T) {
	const n = 6
	for _, small := range []bool{false, true} {
		t.Run(fmt.Sprintf("small=%v", small), func(t *testing.T) {
			newSet := func() tableSet {
				ts := newTableSet(mvCacheBits(n))
				if small {
					ts.caches = smallCacheSet()
				}
				return ts
			}
			start := newSet()
			start.vBase, start.mBase = 1000, 300 // A starts mid-window too
			a := newPackageOn(n, cnum.Tolerance, start)
			cacheWorkout(a, 1)
			ts := a.release()
			if ts.vBase <= 1000 || ts.mBase <= 300 {
				t.Fatalf("released bases %d/%d, want past A's nodes", ts.vBase, ts.mBase)
			}
			entries, maxV, maxM := cacheKeys(&ts.caches)
			if entries == 0 {
				t.Fatal("Release cleared the compute caches")
			}
			if maxV > ts.vBase || maxM > ts.mBase {
				t.Fatalf("an entry keys on vector id %d / matrix id %d, above the bases %d/%d",
					maxV, maxM, ts.vBase, ts.mBase)
			}

			// release, not Release: a set with small caches must not
			// reach the pool.
			b := newPackageOn(n, cnum.Tolerance, ts)
			defer b.release()
			ref := newPackageOn(n, cnum.Tolerance, newSet())
			defer ref.release()
			got, want := cacheWorkout(b, 2), cacheWorkout(ref, 2)
			if len(got) != len(want) {
				t.Fatalf("%d results on the recycled set, %d on a new one", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("result %d: %+v on the recycled set, %+v on a new one", i, got[i], want[i])
				}
			}
			sb, sr := b.Stats(), ref.Stats()
			if sb.ComputeLookups != sr.ComputeLookups || sb.ComputeHits != sr.ComputeHits ||
				sb.ComputeConflicts != sr.ComputeConflicts {
				t.Fatalf("compute lookups/hits/conflicts %d/%d/%d on the recycled set, %d/%d/%d on a new one",
					sb.ComputeLookups, sb.ComputeHits, sb.ComputeConflicts,
					sr.ComputeLookups, sr.ComputeHits, sr.ComputeConflicts)
			}
			if sb.UniqueLookups != sr.UniqueLookups || sb.UniqueHits != sr.UniqueHits ||
				sb.NodesCreated != sr.NodesCreated {
				t.Fatalf("unique lookups/hits/created %d/%d/%d on the recycled set, %d/%d/%d on a new one",
					sb.UniqueLookups, sb.UniqueHits, sb.NodesCreated,
					sr.UniqueLookups, sr.UniqueHits, sr.NodesCreated)
			}
			if small && sr.ComputeConflicts == 0 {
				t.Fatal("the workout evicted no entry; the conflict count compares nothing")
			}
			checkArenaInvariants(t, b)
		})
	}
}

// TestIDWindowWrap: a Release that moves a base past maxIDBase clears
// the caches for real and restarts both windows, so the next package
// numbers its nodes from 1 again and still computes what a package on
// a new set does.
func TestIDWindowWrap(t *testing.T) {
	const n = 6
	for _, c := range []struct{ v, m uint32 }{{maxIDBase - 2, 7}, {7, maxIDBase - 2}} {
		start := newTableSet(mvCacheBits(n))
		start.vBase, start.mBase = c.v, c.m
		a := newPackageOn(n, cnum.Tolerance, start)
		cacheWorkout(a, 1)
		ts := a.release()
		if ts.vBase != 0 || ts.mBase != 0 {
			t.Fatalf("bases %d/%d: released bases %d/%d, want 0/0", c.v, c.m, ts.vBase, ts.mBase)
		}
		if entries, _, _ := cacheKeys(&ts.caches); entries != 0 {
			t.Fatalf("bases %d/%d: the wrap left %d cache entries", c.v, c.m, entries)
		}
		b := newPackageOn(n, cnum.Tolerance, ts)
		if b.nextVID != 1 || b.nextMID != 1 {
			t.Fatalf("bases %d/%d: next package numbers from %d/%d, want 1/1", c.v, c.m, b.nextVID, b.nextMID)
		}
		ref := newPackageOn(n, cnum.Tolerance, newTableSet(mvCacheBits(n)))
		got, want := cacheWorkout(b, 2), cacheWorkout(ref, 2)
		if len(got) != len(want) {
			t.Fatalf("bases %d/%d: %d results after the wrap, %d on a new set", c.v, c.m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bases %d/%d: result %d: %+v after the wrap, %+v on a new set", c.v, c.m, i, got[i], want[i])
			}
		}
		b.Release()
		ref.Release()
	}
}

// idRun applies a seeded random 12-qubit circuit on p with a low GC
// threshold and records, after every gate, the root node's ID relative
// to the package's ID window and the package's node-creation count; it
// stops after four collections and also returns the final amplitudes.
func idRun(t *testing.T, p *Package) (ids []uint32, created []int, amps []complex128) {
	t.Helper()
	const n = 12
	p.SetGCThresholds(3000, 0)
	rng := rand.New(rand.NewSource(3))
	e := p.ZeroState()
	p.Ref(e)
	for step := 0; p.GCRuns() < 4; step++ {
		if step == 2000 {
			t.Fatalf("only %d collections after %d gates", p.GCRuns(), step)
		}
		q := rng.Intn(n)
		var g MEdge
		switch rng.Intn(3) {
		case 0:
			g = p.SingleQubitGate(matH, q)
		case 1:
			th := rng.Float64() * math.Pi
			c, s := complex(math.Cos(th/2), 0), complex(math.Sin(th/2), 0)
			g = p.SingleQubitGate(Mat2{{c, -s}, {s, c}}, q)
		default:
			g = p.ControlledGate(matX, q, []Control{{Qubit: (q + 1 + rng.Intn(n-1)) % n}})
		}
		next := p.MulMV(g, e)
		p.Ref(next)
		p.Unref(e)
		e = next
		p.MaybeGC()
		ids = append(ids, uint32(p.vKey(e.N)))
		created = append(created, p.NodesCreated())
	}
	return ids, created, p.ToVector(e)
}

// TestGCNodeIDsIndependentOfTableGeometry: the same circuit through
// four collections hands out the same node IDs, relative to each
// package's ID window, and ends at bit-identical amplitudes, whether
// the package starts from a new table set or from a recycled one grown
// to 8 192 groups. Node IDs pick compute-cache slots, and cache hits
// decide rounding, so a collection that freed nodes in table-slot order
// would make a job's numbers depend on the tables it happened to draw.
func TestGCNodeIDsIndependentOfTableGeometry(t *testing.T) {
	fresh := newPackageOn(12, cnum.Tolerance, newTableSet(mvCacheBits(12)))
	defer fresh.Release()

	g := NewPackage(12)
	growNodes(g, 40000)
	g.Release()
	recycled := NewPackage(12) // draws the unit g grew
	defer recycled.Release()
	if recycled.vt.Groups() < 8192 {
		t.Fatalf("the recycled package starts at %d groups, want the 8 192 g grew", recycled.vt.Groups())
	}

	idsA, createdA, ampsA := idRun(t, fresh)
	idsB, createdB, ampsB := idRun(t, recycled)
	if fresh.vt.Groups() == recycled.vt.Groups() {
		t.Fatalf("both packages ended at %d groups; the test compares two geometries", fresh.vt.Groups())
	}
	if len(idsA) != len(idsB) {
		t.Fatalf("fresh package collected four times after %d gates, recycled after %d", len(idsA), len(idsB))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] || createdA[i] != createdB[i] {
			t.Fatalf("gate %d: root id %d vs %d, nodes created %d vs %d",
				i, idsA[i], idsB[i], createdA[i], createdB[i])
		}
	}
	for k := range ampsA {
		if ampsA[k] != ampsB[k] {
			t.Fatalf("amplitude %d: %v vs %v (not bit-identical)", k, ampsA[k], ampsB[k])
		}
	}
	checkArenaInvariants(t, fresh)
	checkArenaInvariants(t, recycled)
}

// BenchmarkPackageLifecycle is the layer probe of a package's life: a
// package of the register class is built, grows about 2·10^5 vector
// nodes, and is released. From the second iteration on the package
// draws the tables the previous one grew.
func BenchmarkPackageLifecycle(b *testing.B) {
	for _, n := range []int{24, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := NewPackage(n)
				growNodes(p, 200000)
				p.Release()
			}
		})
	}
}
