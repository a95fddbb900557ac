package dd

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"ddsim/internal/cnum"
	"ddsim/internal/swiss"
)

// randomVecDD builds a DD for a random dense vector and returns both.
func randomVecDD(p *Package, rng *rand.Rand) (VEdge, []complex128) {
	amps := make([]complex128, 1<<uint(p.NumQubits()))
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return p.FromVector(amps), amps
}

// TestAddCommutesProperty: a+b and b+a must be the identical canonical
// edge, not merely numerically equal — this exercises normalisation
// and hash-consing together.
func TestAddCommutesProperty(t *testing.T) {
	p := NewPackage(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := randomVecDD(p, rng)
		b, _ := randomVecDD(p, rng)
		return p.Add(a, b) == p.Add(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAddAssociatesProperty: (a+b)+c == a+(b+c) up to tolerance-level
// numerics; canonical edges must agree because interning snaps values.
func TestAddAssociatesProperty(t *testing.T) {
	p := NewPackage(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, av := randomVecDD(p, rng)
		b, bv := randomVecDD(p, rng)
		c, cv := randomVecDD(p, rng)
		l := p.ToVector(p.Add(p.Add(a, b), c))
		r := p.ToVector(p.Add(a, p.Add(b, c)))
		for i := range l {
			want := av[i] + bv[i] + cv[i]
			if cmplx.Abs(l[i]-want) > 1e-8 || cmplx.Abs(r[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMulMVLinearityProperty: M(αv) == α·Mv.
func TestMulMVLinearityProperty(t *testing.T) {
	p := NewPackage(3)
	m := p.ControlledGate(Mat2{{0, 1}, {1, 0}}, 2, []Control{{Qubit: 0}})
	f := func(seed int64, re, im float64) bool {
		re = math.Mod(re, 2)
		im = math.Mod(im, 2)
		if math.IsNaN(re) || math.IsNaN(im) || (re == 0 && im == 0) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		v, _ := randomVecDD(p, rng)
		alpha := p.W.Lookup(re, im)
		l := p.ToVector(p.MulMV(m, p.scaleV(v, alpha)))
		r := p.ToVector(p.scaleV(p.MulMV(m, v), alpha))
		for i := range l {
			if cmplx.Abs(l[i]-r[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDotCauchySchwarzProperty: |⟨a|b⟩|² ≤ ⟨a|a⟩·⟨b|b⟩.
func TestDotCauchySchwarzProperty(t *testing.T) {
	p := NewPackage(4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := randomVecDD(p, rng)
		b, _ := randomVecDD(p, rng)
		lhs := p.Fidelity(a, b)
		rhs := p.Norm2(a) * p.Norm2(b)
		return lhs <= rhs*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestUnitaryPreservesDotProperty: ⟨Ua|Ub⟩ == ⟨a|b⟩ for unitary U.
func TestUnitaryPreservesDotProperty(t *testing.T) {
	p := NewPackage(3)
	h := Mat2{{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}}
	u := p.MulMM(p.SingleQubitGate(h, 0), p.ControlledGate(Mat2{{0, 1}, {1, 0}}, 1, []Control{{Qubit: 2}}))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := randomVecDD(p, rng)
		b, _ := randomVecDD(p, rng)
		before := p.Dot(a, b)
		after := p.Dot(p.MulMV(u, a), p.MulMV(u, b))
		return cmplx.Abs(before-after) < 1e-7*(1+cmplx.Abs(before))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNormalizationInvariant: every stored node has its largest
// outgoing weight equal to 1 (magnitude), the core canonicity rule.
func TestNormalizationInvariant(t *testing.T) {
	p := NewPackage(4)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20; i++ {
		e, _ := randomVecDD(p, rng)
		checkNormalized(t, p, e.N, map[*VNode]bool{})
	}
}

func checkNormalized(t *testing.T, p *Package, n *VNode, seen map[*VNode]bool) {
	t.Helper()
	if n == nil || seen[n] {
		return
	}
	seen[n] = true
	maxMag := math.Max(n.E[0].W.Mag2(), n.E[1].W.Mag2())
	if math.Abs(maxMag-1) > 1e-9 {
		t.Fatalf("node at level %d: max outgoing weight² = %v, want 1", n.Level, maxMag)
	}
	checkNormalized(t, p, n.E[0].N, seen)
	checkNormalized(t, p, n.E[1].N, seen)
}

// checkArenaInvariants walks the package's unique tables and free
// lists after a collection: live node IDs are unique, every resident
// node is stored consistently with its hash (control byte and
// re-findability), no free-list slot aliases a live node (a recycled
// slot reappearing in the table would corrupt hash-consing silently),
// and every resident node and every weight a node stores resolves
// from its ID — the addressing the compute caches rely on.
func checkArenaInvariants(t *testing.T, p *Package) {
	t.Helper()
	liveV := make(map[*VNode]bool)
	liveM := make(map[*MNode]bool)
	seenVID := make(map[uint32]*VNode)
	countV, countM := 0, 0
	checkW := func(w *cnum.Value) {
		if got := p.W.ByID(w.ID()); got != w {
			t.Fatalf("weight id %d resolves to %p, want %p", w.ID(), got, w)
		}
	}
	visitV := func(n *VNode) {
		countV++
		liveV[n] = true
		if prev, ok := seenVID[n.id]; ok && prev != n {
			t.Fatalf("two live vector nodes share id %d", n.id)
		}
		seenVID[n.id] = n
		if got := p.vnodeAt(n.id); got != n {
			t.Fatalf("vector node id %d resolves to %p, want %p", n.id, got, n)
		}
		for i := range n.E {
			checkW(n.E[i].W)
		}
	}
	visitM := func(n *MNode) {
		countM++
		liveM[n] = true
		if got := p.mnodeAt(n.id); got != n {
			t.Fatalf("matrix node id %d resolves to %p, want %p", n.id, got, n)
		}
		for i := range n.E {
			checkW(n.E[i].W)
		}
	}
	checkW(p.W.Zero)
	checkW(p.W.One)
	p.vt.forEach(func(n *VNode) {
		visitV(n)
		if n.next != nil {
			t.Fatalf("resident vector node id %d has a dangling next pointer", n.id)
		}
		h := p.vHash(n.Level, n.E[0], n.E[1])
		if got, _, _ := p.vt.find(h, n.Level, n.E[0].N, n.E[0].W, n.E[1].N, n.E[1].W); got != n {
			t.Fatalf("vector node id %d not re-findable under its own key", n.id)
		}
	})
	p.mt.forEach(func(n *MNode) {
		visitM(n)
		if got, _, _ := p.mt.find(p.mHash(n.Level, n.E), n.Level, n.E); got != n {
			t.Fatalf("matrix node id %d not re-findable under its own key", n.id)
		}
	})
	checkCtrlConsistency(t, p)
	if countV != p.vCount {
		t.Fatalf("vCount %d but %d nodes resident", p.vCount, countV)
	}
	if countM != p.mCount {
		t.Fatalf("mCount %d but %d nodes resident", p.mCount, countM)
	}
	for f := p.vFree; f != nil; f = f.next {
		if liveV[f] {
			t.Fatalf("free-list vector node id %d aliases a live unique-table node", f.id)
		}
	}
	for f := p.mFree; f != nil; f = f.next {
		if liveM[f] {
			t.Fatalf("free-list matrix node id %d aliases a live unique-table node", f.id)
		}
	}
}

// checkCtrlConsistency verifies the swiss control words against the
// slot arrays: every occupied control byte carries the H2 fingerprint
// of the node stored in its slot, and every empty byte has a nil slot.
func checkCtrlConsistency(t *testing.T, p *Package) {
	t.Helper()
	for g := range p.vt.ctrl {
		for i := 0; i < swiss.GroupSize; i++ {
			c := uint8(p.vt.ctrl[g] >> (uint(i) * 8))
			n := p.vt.slots[g*swiss.GroupSize+i]
			if c == swiss.Empty {
				if n != nil {
					t.Fatalf("vt group %d slot %d: empty control byte over node id %d", g, i, n.id)
				}
				continue
			}
			if n == nil {
				t.Fatalf("vt group %d slot %d: occupied control byte over nil slot", g, i)
			}
			if want := swiss.H2(p.vHash(n.Level, n.E[0], n.E[1])); c != want {
				t.Fatalf("vt group %d slot %d: control byte %#x, node hashes to %#x", g, i, c, want)
			}
		}
	}
	for g := range p.mt.ctrl {
		for i := 0; i < swiss.GroupSize; i++ {
			c := uint8(p.mt.ctrl[g] >> (uint(i) * 8))
			n := p.mt.slots[g*swiss.GroupSize+i]
			if c == swiss.Empty {
				if n != nil {
					t.Fatalf("mt group %d slot %d: empty control byte over node id %d", g, i, n.id)
				}
				continue
			}
			if n == nil {
				t.Fatalf("mt group %d slot %d: occupied control byte over nil slot", g, i)
			}
			if want := swiss.H2(p.mHash(n.Level, n.E)); c != want {
				t.Fatalf("mt group %d slot %d: control byte %#x, node hashes to %#x", g, i, c, want)
			}
		}
	}
}

// TestArenaRecycleInvariants cycles Ref/Unref/GarbageCollect/rebuild
// so collected slots are recycled into new diagrams, and checks after
// every collection that recycling never aliased a live node, IDs stay
// unique, chains stay consistent — and that the pinned survivors
// still evaluate to the amplitudes they were built from.
func TestArenaRecycleInvariants(t *testing.T) {
	p := NewPackage(5)
	rng := rand.New(rand.NewSource(123))
	type pinned struct {
		e    VEdge
		amps []complex128
	}
	var live []pinned
	for round := 0; round < 8; round++ {
		for i := 0; i < 4; i++ {
			e, amps := randomVecDD(p, rng)
			p.Ref(e)
			live = append(live, pinned{e: e, amps: amps})
		}
		// A couple of matrix diagrams per round exercise the MNode
		// free list too; unpinned, they die at the collection below.
		target := rng.Intn(5)
		ctrl := (target + 1 + rng.Intn(4)) % 5
		g := p.ControlledGate(Mat2{{0, 1}, {1, 0}}, target, []Control{{Qubit: ctrl}})
		_ = p.MulMM(g, g)
		for i := 0; i < len(live) && len(live) > 2; {
			if rng.Float64() < 0.4 {
				p.Unref(live[i].e)
				live = append(live[:i], live[i+1:]...)
			} else {
				i++
			}
		}
		p.GarbageCollect()
		checkArenaInvariants(t, p)
		for li, pe := range live {
			got := p.ToVector(pe.e)
			for k := range got {
				if cmplx.Abs(got[k]-pe.amps[k]) > 1e-6 {
					t.Fatalf("round %d: pinned diagram %d amplitude %d drifted: %v vs %v",
						round, li, k, got[k], pe.amps[k])
				}
			}
		}
	}
}

// TestPackageReleasePools churns packages through build/GC/Release in
// parallel so the process-wide slab and cache pools see concurrent
// Put/Get traffic — under -race this is the data-race check for the
// memory plane's only cross-goroutine surface.
func TestPackageReleasePools(t *testing.T) {
	for w := 0; w < 4; w++ {
		w := w
		t.Run(fmt.Sprintf("worker%d", w), func(t *testing.T) {
			t.Parallel()
			for j := 0; j < 6; j++ {
				p := NewPackage(6)
				rng := rand.New(rand.NewSource(int64(w*100 + j)))
				e, _ := randomVecDD(p, rng)
				p.Ref(e)
				p.GarbageCollect()
				checkArenaInvariants(t, p)
				p.Unref(e)
				p.GarbageCollect()
				p.Release()
				p.Release() // idempotent
			}
		})
	}
}

// TestKronDistributesOverMulProperty: (A⊗B)(C⊗D) == (AC)⊗(BD) for
// 1-qubit blocks.
func TestKronDistributesOverMulProperty(t *testing.T) {
	p := NewPackage(2)
	mats := []Mat2{
		{{0, 1}, {1, 0}},
		{{1, 0}, {0, -1}},
		{{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
			{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}},
		{{1, 0}, {0, complex(0, 1)}},
	}
	for _, a := range mats {
		for _, b := range mats {
			for _, c := range mats {
				for _, d := range mats {
					lhs := p.MulMM(p.Kron(p.Embed2x2(a), p.Embed2x2(b)),
						p.Kron(p.Embed2x2(c), p.Embed2x2(d)))
					rhs := p.Kron(p.MulMM(p.Embed2x2(a), p.Embed2x2(c)),
						p.MulMM(p.Embed2x2(b), p.Embed2x2(d)))
					if lhs != rhs {
						t.Fatalf("(A⊗B)(C⊗D) != (AC)⊗(BD) for %v %v %v %v", a, b, c, d)
					}
				}
			}
		}
	}
}
