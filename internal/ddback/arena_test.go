package ddback

import (
	"math"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// TestFactoryRoundTrip: the sim.Factory wrapper compiles a working
// backend (the path the stochastic engine takes).
func TestFactoryRoundTrip(t *testing.T) {
	f := Factory()
	c := circuit.GHZ(3)
	be, err := f(c)
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "dd" {
		t.Fatalf("backend name %q, want dd", be.Name())
	}
	b := be.(*Backend)
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	if p := b.Probability(0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P(|000⟩) = %v, want 0.5", p)
	}
}

// TestReleaseReturnsPackage: Release pools the package's arenas and
// caches; afterwards a fresh backend (likely built from the pooled
// slabs) must compute the same state, and Release must be idempotent.
func TestReleaseReturnsPackage(t *testing.T) {
	c := circuit.GHZ(5)
	b := build(t, c)
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	want := b.Probability(0)
	var rel sim.Releaser = b // the engine releases via this interface
	rel.Release()
	rel.Release() // idempotent
	if b.gates != nil || b.op1Cache != nil {
		t.Fatal("Release left compiled-gate caches populated")
	}
	b2 := build(t, c)
	for i := range c.Ops {
		b2.ApplyOp(i)
	}
	if got := b2.Probability(0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("post-Release backend: P(|0…0⟩) = %v, want %v", got, want)
	}
}

// TestFidelityToSnapshot: fidelity of the state against its own
// snapshot is 1, and against an orthogonal state 0.
func TestFidelityToSnapshot(t *testing.T) {
	c := circuit.New("x0", 2)
	c.Gate("x", 0)
	b := build(t, c)
	snap := b.Snapshot() // |00⟩
	if f := b.FidelityTo(snap); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self fidelity = %v, want 1", f)
	}
	b.ApplyOp(0) // |01⟩, orthogonal to |00⟩
	if f := b.FidelityTo(snap); f > 1e-12 {
		t.Fatalf("orthogonal fidelity = %v, want 0", f)
	}
}

// TestTableStatsCounters: the TableStatser view must report activity
// after gate applications.
func TestTableStatsCounters(t *testing.T) {
	c := circuit.QFT(5)
	b := build(t, c)
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	s := b.TableStats()
	if s.UniqueLookups == 0 || s.ComputeLookups == 0 || s.NodesCreated == 0 || s.PeakNodes == 0 {
		t.Fatalf("stats counters did not move: %+v", s)
	}
}

// TestSetStateCollectsAtThreshold: with the GC thresholds forced to
// their floor, the per-gate NeedsGC check must actually trigger
// collections (the pin-collect-unpin branch of setState) without
// changing results.
func TestSetStateCollectsAtThreshold(t *testing.T) {
	c := circuit.QFT(6)
	b := build(t, c)
	b.Package().SetGCThresholds(1, 1)
	before := b.TableStats().GCRuns
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	if runs := b.TableStats().GCRuns; runs <= before {
		t.Fatalf("no collections at floor thresholds (gcRuns %d)", runs)
	}
	// QFT of |0…0⟩ is the uniform superposition: P(k) = 2^-6 for all k.
	if p := b.Probability(13); math.Abs(p-1.0/64) > 1e-9 {
		t.Fatalf("P(13) = %v after per-gate GC, want 1/64", p)
	}
}
