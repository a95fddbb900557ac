package dd

import (
	"math/rand"
	"testing"
)

// TestSwissIDStableAcrossGC pins a diagram, runs collections that
// rehash the swiss tables (dead nodes freed, control words rebuilt),
// and checks the surviving nodes keep their identity AND their ids —
// the arena contract that makes recycled-slot hashing stable.
func TestSwissIDStableAcrossGC(t *testing.T) {
	p := NewPackage(6)
	rng := rand.New(rand.NewSource(5))
	amps := make([]complex128, 1<<6)
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	root := p.FromVector(amps)
	p.Ref(root)
	type rec struct {
		n  *VNode
		id uint32
	}
	var pinnedNodes []rec
	var walk func(n *VNode)
	seen := map[*VNode]bool{}
	walk = func(n *VNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		pinnedNodes = append(pinnedNodes, rec{n, n.id})
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(root.N)

	for round := 0; round < 5; round++ {
		// Garbage per round: unpinned diagrams die at the collection.
		for i := 0; i < 8; i++ {
			g := make([]complex128, 1<<6)
			for k := range g {
				g[k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			p.FromVector(g)
		}
		if p.GarbageCollect() == 0 {
			t.Fatalf("round %d: collection freed nothing", round)
		}
		for _, r := range pinnedNodes {
			if r.n.id != r.id {
				t.Fatalf("round %d: node id changed %d -> %d across GC rehash", round, r.id, r.n.id)
			}
		}
		// The pinned diagram must still hash-cons to the same nodes.
		if again := p.FromVector(amps); again.N != root.N {
			t.Fatalf("round %d: pinned diagram lost canonical identity after rehash", round)
		}
		checkArenaInvariants(t, p)
	}
}

// TestStatsSurviveSwissAndGC is the regression guard for the Stats
// counter contract: UniqueLookups/UniqueHits are per-Package lifetime
// totals that accumulate monotonically and survive GarbageCollect.
func TestStatsSurviveSwissAndGC(t *testing.T) {
	p := NewPackage(4)
	rng := rand.New(rand.NewSource(21))
	amps := make([]complex128, 1<<4)
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	e := p.FromVector(amps)
	p.Ref(e)
	before := p.Stats()
	if before.UniqueLookups == 0 {
		t.Fatalf("no unique lookups recorded")
	}
	if p.GarbageCollect() == 0 {
		// Build garbage and retry so the collection is real.
		for i := range amps {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		p.FromVector(amps)
		p.GarbageCollect()
	}
	after := p.Stats()
	if after.UniqueLookups < before.UniqueLookups || after.UniqueHits < before.UniqueHits {
		t.Fatalf("lifetime counters went backwards across GC: %+v -> %+v", before, after)
	}
	if after.ComputeLookups < before.ComputeLookups {
		t.Fatalf("compute lookups went backwards across GC")
	}
	// Rebuilding the pinned diagram is pure hash-consing: lookups
	// and hits must both advance.
	mid := p.Stats()
	p.FromVector(p.ToVector(e))
	final := p.Stats()
	if final.UniqueLookups <= mid.UniqueLookups || final.UniqueHits <= mid.UniqueHits {
		t.Fatalf("re-consing pinned diagram did not advance unique counters")
	}
	// Probe telemetry must be alive and bounded by the lookup count.
	var probes uint64
	for _, c := range final.UniqueProbe {
		probes += c
	}
	if probes != final.UniqueLookups {
		t.Fatalf("probe histogram holds %d observations, want %d", probes, final.UniqueLookups)
	}
	if final.UniqueMaxProbe < 1 {
		t.Fatalf("no max probe recorded")
	}
	if final.UniqueLoad <= 0 || final.UniqueLoad > 1 {
		t.Fatalf("implausible load factor %v", final.UniqueLoad)
	}
}
