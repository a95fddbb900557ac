package dd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// allZero reports whether every entry of a cache is the empty entry.
func allZero[T comparable](c []T) bool {
	var zero T
	for _, e := range c {
		if e != zero {
			return false
		}
	}
	return true
}

// TestReleasedTablesKeepGeometry: a 24-qubit package that grew its
// unique tables hands them, emptied but at their grown size, to the
// next 24-qubit package, and a 10-qubit package never draws them. The
// tables are recognised by the address of their first slot. sync.Pool
// may drop a Put (it does so at random under the race detector), so a
// miss is retried; a 10-qubit package drawing the tables is a failure
// at once.
func TestReleasedTablesKeepGeometry(t *testing.T) {
	for attempt := 1; ; attempt++ {
		big := NewPackage(24)
		growNodes(big, 40000)
		vGroups, mGroups := big.vt.Groups(), big.mt.Groups()
		if vGroups <= minVGroups {
			t.Fatalf("growNodes left the vector table at %d groups", vGroups)
		}
		slot := big.vt.At(0)
		big.Release()

		small := NewPackage(10)
		if small.vt.At(0) == slot {
			t.Fatal("a 10-qubit package drew the tables a 24-qubit package released")
		}
		again := NewPackage(24)
		drawn := again.vt.At(0) == slot
		if drawn {
			if again.vt.Groups() != vGroups || again.mt.Groups() != mGroups {
				t.Fatalf("recycled tables have %d/%d groups, want %d/%d",
					again.vt.Groups(), again.mt.Groups(), vGroups, mGroups)
			}
			resident := 0
			again.vt.ForEach(func(**VNode) { resident++ })
			again.mt.ForEach(func(**MNode) { resident++ })
			if resident != 0 || again.vCount != 0 || again.nextVID != 1 {
				t.Fatalf("recycled tables hold %d nodes (vCount %d, next id %d)",
					resident, again.vCount, again.nextVID)
			}
			c := &again.caches
			if !allZero(c.mv) || !allZero(c.add) || !allZero(c.madd) || !allZero(c.mm) ||
				!allZero(c.dot) || !allZero(c.norm2) || !allZero(c.prob) {
				t.Fatal("recycled compute caches hold entries")
			}
			// The recycled package works like a fresh one.
			e := again.MulMV(again.SingleQubitGate(matH, 0), again.ZeroState())
			if got := again.Norm2(e); math.Abs(got-1) > 1e-12 {
				t.Fatalf("recycled package: norm %v after H", got)
			}
		}
		small.Release()
		again.Release()
		if drawn {
			return
		}
		if attempt == 20 {
			t.Fatal("no 24-qubit package drew the released 24-qubit tables in 20 attempts")
		}
	}
}

// idRun applies a seeded random 12-qubit circuit on p with a low GC
// threshold and records, after every gate, the root node's ID and the
// package's node-creation count; it stops after four collections and
// also returns the final amplitudes.
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
		ids = append(ids, vid(e.N))
		created = append(created, p.NodesCreated())
	}
	return ids, created, p.ToVector(e)
}

// TestGCNodeIDsIndependentOfTableGeometry: the same circuit through
// four collections hands out the same node IDs, and ends at
// bit-identical amplitudes, whether the package starts from
// minimum-size unique tables or from recycled tables grown to 8 192
// groups. Node IDs pick compute-cache slots, and cache hits decide
// rounding, so a collection that freed nodes in table-slot order would
// make a job's numbers depend on the tables it happened to draw.
func TestGCNodeIDsIndependentOfTableGeometry(t *testing.T) {
	fresh := NewPackage(12)
	fresh.tableSet = newTableSet(mvCacheBits(12))
	defer fresh.Release()

	var recycled *Package
	for attempt := 0; recycled == nil; attempt++ {
		if attempt == 20 {
			t.Fatal("no 12-qubit package drew grown tables in 20 attempts")
		}
		g := NewPackage(12)
		growNodes(g, 40000)
		g.Release()
		if p := NewPackage(12); p.vt.Groups() >= 8192 {
			recycled = p
		} else {
			p.Release()
		}
	}
	defer recycled.Release()

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
