package ddback

import (
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

func build(t *testing.T, c *circuit.Circuit) *Backend {
	t.Helper()
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCompileRejectsUnknownGate(t *testing.T) {
	c := circuit.New("bad", 1)
	c.Gate("warp", 0)
	if _, err := New(c); err == nil {
		t.Error("unknown gate compiled")
	}
}

func TestGateCacheReusedAcrossRuns(t *testing.T) {
	c := circuit.GHZ(6)
	b := build(t, c)
	for run := 0; run < 3; run++ {
		b.Reset()
		for i := range c.Ops {
			b.ApplyOp(i)
		}
		if p := b.Probability(0); math.Abs(p-0.5) > 1e-12 {
			t.Fatalf("run %d: P(|0…0⟩) = %v", run, p)
		}
	}
}

func TestNodeCountTracksState(t *testing.T) {
	c := circuit.GHZ(10)
	b := build(t, c)
	if n := b.NodeCount(); n != 10 {
		t.Errorf("|0…0⟩ node count = %d, want 10", n)
	}
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	if n := b.NodeCount(); n != 19 {
		t.Errorf("GHZ node count = %d, want 19", n)
	}
}

func TestPauliCacheConsistency(t *testing.T) {
	c := circuit.GHZ(4)
	b := build(t, c)
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	// X on every qubit maps GHZ to itself.
	for q := 0; q < 4; q++ {
		b.ApplyPauli(sim.PauliX, q)
	}
	if p := b.Probability(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("after X⊗4: P(|0000⟩) = %v", p)
	}
	// Repeat: caches must serve the same diagrams.
	for q := 0; q < 4; q++ {
		b.ApplyPauli(sim.PauliX, q)
	}
	if p := b.Probability(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("after X⊗8: P(|0000⟩) = %v", p)
	}
}

func TestCollapseGuards(t *testing.T) {
	b := build(t, circuit.GHZ(2))
	defer func() {
		if recover() == nil {
			t.Error("Collapse with prob 0 did not panic")
		}
	}()
	b.Collapse(0, 0, 0)
}

func TestDampingGuards(t *testing.T) {
	b := build(t, circuit.GHZ(2))
	defer func() {
		if recover() == nil {
			t.Error("ApplyDamping with prob 0 did not panic")
		}
	}()
	b.ApplyDamping(0, 0.1, true, 0)
}

func TestLongNoisySessionStaysHealthy(t *testing.T) {
	// Exercises the GC path: many runs with damping-induced weight
	// churn must neither leak unboundedly nor corrupt the state.
	c := circuit.GHZ(8)
	b := build(t, c)
	rng := rand.New(rand.NewSource(5))
	for run := 0; run < 200; run++ {
		b.Reset()
		for i := range c.Ops {
			b.ApplyOp(i)
			q := c.Ops[i].Target
			b.ApplyDamping(q, 0.01, false, 1-0.01*b.ProbOne(q))
		}
		if n2 := b.Norm2(); math.Abs(n2-1) > 1e-6 {
			t.Fatalf("run %d: norm² = %v", run, n2)
		}
		_ = b.SampleBasis(rng)
	}
	if b.Package().VNodeCount() > 500000 {
		t.Errorf("unique table grew to %d nodes", b.Package().VNodeCount())
	}
}

func TestStateAccessors(t *testing.T) {
	b := build(t, circuit.GHZ(3))
	if b.Name() != "dd" || b.NumQubits() != 3 {
		t.Errorf("identity: %s/%d", b.Name(), b.NumQubits())
	}
	if b.State().N == nil {
		t.Error("state edge is terminal")
	}
	if b.Package() == nil {
		t.Error("package not exposed")
	}
}

// TestForkerSnapshotRestore: a checkpoint survives arbitrary further
// mutation of the state — including measurement collapse and a forced
// decision-diagram garbage collection — and can be restored any number
// of times, bit-identically.
func TestForkerSnapshotRestore(t *testing.T) {
	c := circuit.GHZ(5)
	b := build(t, c)
	var f sim.Forker = b // compile-time capability check

	for i := range c.Ops {
		b.ApplyOp(i)
	}
	snap := f.Snapshot()
	want := b.Package().ToVector(b.State())

	// Mutate heavily: collapse the state, inject Paulis, run the DD GC
	// (the snapshot's pin must keep its diagram alive).
	b.Collapse(0, 1, b.ProbOne(0))
	b.ApplyPauli(sim.PauliX, 2)
	b.ApplyPauli(sim.PauliY, 4)
	b.Package().GarbageCollect()

	for round := 0; round < 3; round++ {
		f.Restore(snap)
		got := b.Package().ToVector(b.State())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: amp[%d] = %v, want %v (not bit-identical)", round, i, got[i], want[i])
			}
		}
		// Mutate again between rounds so every restore starts from a
		// different current state.
		b.ApplyPauli(sim.PauliZ, round)
	}
}

// TestForkerStateCost: the retention cost of a GHZ checkpoint is the
// linear node chain the paper advertises.
func TestForkerStateCost(t *testing.T) {
	c := circuit.GHZ(6)
	b := build(t, c)
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	var sizer sim.StateSizer = b
	nodes, bytes := sizer.StateCost(b.Snapshot())
	if nodes != 2*6-1 {
		t.Errorf("GHZ(6) checkpoint pins %d nodes, want 11 (the linear 2n−1 chain)", nodes)
	}
	if bytes <= 0 {
		t.Errorf("byte cost = %d, want > 0", bytes)
	}
}

// TestApplyMatrixAndMix: ApplyMatrix under positive and negative
// controls reaches the state ApplyOp reaches on the same gates, and
// Mix folds a snapshot in as w·ψ + wo·s, releasing it.
func TestApplyMatrixAndMix(t *testing.T) {
	c := circuit.New("cy", 3)
	c.H(0).H(2)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "y", Target: 1,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 2, Negative: true}}})
	ops, mats := build(t, c), build(t, circuit.New("empty", 3))
	for i := range c.Ops {
		ops.ApplyOp(i)
		op := &c.Ops[i]
		u, err := sim.ResolveOp(op)
		if err != nil {
			t.Fatal(err)
		}
		mats.ApplyMatrix(u, op.Target, op.Controls)
	}
	want := ops.Package().ToVector(ops.State())
	got := mats.Package().ToVector(mats.State())
	for i := range want {
		if d := cmplxAbs(got[i] - want[i]); d > 1e-12 {
			t.Fatalf("amplitude %d: ApplyMatrix %v, ApplyOp %v", i, got[i], want[i])
		}
	}

	s := mats.Snapshot()
	mats.ApplyPauli(sim.PauliZ, 0)
	mats.Mix(s, 0.5, 0.5) // the Z-odd half of ψ cancels
	for i, a := range mats.Package().ToVector(mats.State()) {
		w := want[i]
		if i&4 != 0 { // qubit 0 reads 1
			w = 0
		}
		if d := cmplxAbs(a - w); d > 1e-12 {
			t.Fatalf("after Mix: amplitude %d = %v, want %v", i, a, w)
		}
	}
	s = mats.Snapshot()
	mats.Reset()
	mats.Mix(s, 0, 1)
	if p := mats.Norm2(); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("Mix(s, 0, 1) restored a state of norm² %v, want 0.5", p)
	}
}

func cmplxAbs(a complex128) float64 { return math.Hypot(real(a), imag(a)) }
