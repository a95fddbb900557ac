package dd

import (
	"math/rand"
	"testing"

	"ddsim/internal/cnum"
)

// Microbenchmarks for the unique tables, the layer probes behind
// dd.unique_* and dd.probe_len_* (see docs/PERFORMANCE.md "DD kernel
// planes"). The three shapes are the ones that matter for the kernel:
// the hash-consing hit (the hot path of every structured circuit), the
// insert-heavy miss (state construction and decoherence transients),
// and a collection over a populated table (the rehash-on-load cost).

func BenchmarkUniqueTableHit(b *testing.B) {
	p := NewPackage(8)
	rng := rand.New(rand.NewSource(3))
	amps := make([]complex128, 1<<8)
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	e := p.FromVector(amps)
	p.Ref(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FromVector(amps) // every makeVNode probe hits
	}
}

func BenchmarkUniqueTableMiss(b *testing.B) {
	p := NewPackage(4)
	// Pre-interned distinct weights; each (i,j) pair below conses a
	// level-1 node never seen since the last collection, so the
	// steady state is a pure insert (including growth rehashes).
	const k = 1024
	ws := make([]*cnum.Value, 0, k)
	for i := 0; i < k; i++ {
		w := p.W.Lookup(1, 1e-3+float64(i)*1e-6)
		p.W.Pin(w) // survives the weight sweep of GarbageCollect
		ws = append(ws, w)
	}
	inserted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inserted == 200000 { // nothing pinned: the table drains
			b.StopTimer()
			p.GarbageCollect()
			b.StartTimer()
			inserted = 0
		}
		p.makeVNode(1,
			VEdge{N: nil, W: ws[i%k]},
			VEdge{N: nil, W: ws[(i/k)%k]})
		inserted++
	}
}

func BenchmarkUniqueTableGC(b *testing.B) {
	p := NewPackage(4)
	const k = 512
	ws := make([]*cnum.Value, 0, k)
	for i := 0; i < k; i++ {
		w := p.W.Lookup(1, 1e-3+float64(i)*1e-6)
		p.W.Pin(w)
		ws = append(ws, w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 20000; j++ {
			p.makeVNode(1,
				VEdge{N: nil, W: ws[j%k]},
				VEdge{N: nil, W: ws[(j/k)%k]})
		}
		b.StartTimer()
		p.GarbageCollect() // unpinned: frees all 20000, rehashes
	}
}
