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
	vHash := func(n *VNode) uint64 { return p.vHash(n.Level, n.E[0], n.E[1]) }
	mHash := func(n *MNode) uint64 { return p.mHash(n.Level, n.E) }
	p.vt.ForEach(func(s **VNode) {
		n := *s
		visitV(n)
		if n.next != nil {
			t.Fatalf("resident vector node id %d has a dangling next pointer", n.id)
		}
		if got, _, _ := p.findV(vHash(n), n.Level, n.E[0].N, n.E[0].W, n.E[1].N, n.E[1].W); got != n {
			t.Fatalf("vector node id %d not re-findable under its own key", n.id)
		}
	})
	p.mt.ForEach(func(s **MNode) {
		n := *s
		visitM(n)
		if got, _, _ := p.findM(mHash(n), n.Level, n.E); got != n {
			t.Fatalf("matrix node id %d not re-findable under its own key", n.id)
		}
	})
	checkCtrlConsistency(t, "vt", &p.vt, vHash)
	checkCtrlConsistency(t, "mt", &p.mt, mHash)
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
		if f.Level != 0 {
			t.Fatalf("free-list vector node id %d is not marked free (level %d)", f.id, f.Level)
		}
	}
	for f := p.mFree; f != nil; f = f.next {
		if liveM[f] {
			t.Fatalf("free-list matrix node id %d aliases a live unique-table node", f.id)
		}
		if f.Level != 0 {
			t.Fatalf("free-list matrix node id %d is not marked free (level %d)", f.id, f.Level)
		}
	}
	// The slab walk of rehashV/rehashM sees exactly the residents.
	for _, s := range p.vSlabs {
		for i := range s {
			if s[i].Level != 0 && !liveV[&s[i]] {
				t.Fatalf("vector node id %d has a level but is not resident", s[i].id)
			}
		}
	}
	for _, s := range p.mSlabs {
		for i := range s {
			if s[i].Level != 0 && !liveM[&s[i]] {
				t.Fatalf("matrix node id %d has a level but is not resident", s[i].id)
			}
		}
	}
}

// checkCtrlConsistency verifies a unique table's control words against
// its slots: behind every occupied control byte sits a non-nil
// resident that is found again at its own slot under its own hash — so
// its control byte carries its H2 fingerprint and lies on its probe
// sequence. Slots behind empty control bytes may hold anything: Reset
// empties only the control words.
func checkCtrlConsistency[N comparable](t *testing.T, name string, tab *swiss.Table[N], hash func(N) uint64) {
	t.Helper()
	var nilN N
	tab.ForEach(func(s *N) {
		if *s == nilN {
			t.Fatalf("%s: occupied control byte over nil slot", name)
		}
		if !found(tab, hash(*s), s) {
			t.Fatalf("%s: resident not found at its own slot under its own hash", name)
		}
	})
}

// found reports whether a probe of hash h reaches slot s.
func found[N any](tab *swiss.Table[N], h uint64, s *N) bool {
	for p := tab.Probe(h); ; p = tab.Next(p) {
		for m := p.Matches(); m.Any(); m = m.Next() {
			if tab.At(m.Slot()) == s {
				return true
			}
		}
		if _, ok := p.Empty(); ok {
			return false
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

// TestPackageReleasePools churns packages of both register classes
// through build/GC/Release in parallel so the per-class free lists of
// units (with tables and slabs grown past their minimum) see
// concurrent take/put traffic — under -race this is the data-race
// check for the memory plane's only cross-goroutine surface.
func TestPackageReleasePools(t *testing.T) {
	for w := 0; w < 4; w++ {
		w := w
		t.Run(fmt.Sprintf("worker%d", w), func(t *testing.T) {
			t.Parallel()
			for j := 0; j < 6; j++ {
				n := 6
				if j%2 == 1 {
					n = 24
				}
				p := NewPackage(n)
				growNodes(p, 5000)
				e := p.MulMV(p.SingleQubitGate(matH, w), p.BasisState(uint64(j)))
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
					lhs := p.MulMM(kron(p, embed2x2(p, a), embed2x2(p, b)),
						kron(p, embed2x2(p, c), embed2x2(p, d)))
					rhs := kron(p, p.MulMM(embed2x2(p, a), embed2x2(p, c)),
						p.MulMM(embed2x2(p, b), embed2x2(p, d)))
					if lhs != rhs {
						t.Fatalf("(A⊗B)(C⊗D) != (AC)⊗(BD) for %v %v %v %v", a, b, c, d)
					}
				}
			}
		}
	}
}

// sampleBasisRef is the sampling walk that computes both branch norms
// at every level, the reference SampleBasis must agree with.
func sampleBasisRef(p *Package, e VEdge, rng *rand.Rand) uint64 {
	var bits uint64
	cur := e
	for !cur.IsTerminal() {
		n := cur.N
		p0 := n.E[0].W.Mag2() * p.nodeNorm2(n.E[0].N)
		p1 := n.E[1].W.Mag2() * p.nodeNorm2(n.E[1].N)
		if rng.Float64()*(p0+p1) < p1 {
			bits |= 1 << uint(n.Level-1)
			cur = n.E[1]
		} else {
			cur = n.E[0]
		}
	}
	return bits
}

// TestSampleBasisMatchesReferenceProperty: SampleBasis, which skips the
// norm of branch 0 when branch 1 is the zero stub, draws the same
// outcomes as the reference walk and leaves the random stream at the
// same position — on GHZ and basis states and on random states with
// zero stubs.
func TestSampleBasisMatchesReferenceProperty(t *testing.T) {
	const n = 6
	p := NewPackage(n)
	rng := rand.New(rand.NewSource(31))
	ghz := make([]complex128, 1<<n)
	ghz[0], ghz[len(ghz)-1] = complex(math.Sqrt(0.5), 0), complex(0, math.Sqrt(0.5))
	states := []VEdge{p.FromVector(ghz), p.ZeroState(), p.BasisState(0b101100), p.BasisState(1<<n - 1)}
	for len(states) < 40 {
		amps := make([]complex128, 1<<n)
		nonzero := false
		for i := range amps {
			if rng.Float64() < 0.6 {
				amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				nonzero = true
			}
		}
		if nonzero {
			states = append(states, p.Normalize(p.FromVector(amps)))
		}
	}
	for si, e := range states {
		for seed := int64(0); seed < 8; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 64; k++ {
				if a, b := p.SampleBasis(e, got), sampleBasisRef(p, e, want); a != b {
					t.Fatalf("state %d seed %d sample %d: %b, reference %b", si, seed, k, a, b)
				}
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("state %d seed %d: random stream out of step after sampling", si, seed)
			}
		}
	}
}
