package dd

import (
	"math/rand"
	"testing"

	"ddsim/internal/cnum"
)

// Microbenchmarks for the unique tables, the layer probes behind
// dd.unique_* and dd.probe_len_* (see docs/PERFORMANCE.md "DD kernel
// planes"), and for the mat-vec compute cache behind dd.compute_*
// (BenchmarkMulMV*, below). The three unique-table shapes are the ones
// that matter for the kernel:
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

// Mat-vec compute-cache probes: one gate applied to a 24-qubit GHZ
// state (the cache's large geometry). Hit is the top-level lookup that
// answers a repeated product; Miss empties the product's entries
// before every call, so each call recomputes it level by level — the
// work an evicted entry costs. misses/op and ns/miss give the per-miss
// constant.
func benchMulMV(b *testing.B) (*Package, MEdge, VEdge) {
	p := NewPackage(24)
	e := p.MulMV(p.SingleQubitGate(matH, 0), p.ZeroState())
	for q := 1; q < 24; q++ {
		e = p.MulMV(p.ControlledGate(matX, q, []Control{{Qubit: q - 1}}), e)
	}
	g := p.SingleQubitGate(matH, 12)
	p.Ref(e)
	p.RefM(g)
	p.GarbageCollect()
	b.Cleanup(p.Release)
	return p, g, e
}

var sinkV VEdge

func BenchmarkMulMVHit(b *testing.B) {
	p, g, e := benchMulMV(b)
	sinkV = p.MulMV(g, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkV = p.MulMV(g, e)
	}
}

func BenchmarkMulMVMiss(b *testing.B) {
	p, g, e := benchMulMV(b)
	// The slots one cold call fills (MulMV recurses through the mat-vec
	// and add caches only). Emptying just those is the clearCaches the
	// call sees, without timing a multi-MiB clear.
	sinkV = p.MulMV(g, e)
	var mvSlots, addSlots []int
	for i, ent := range p.caches.mv {
		if ent.key != 0 {
			mvSlots = append(mvSlots, i)
		}
	}
	for i, ent := range p.caches.add {
		if ent.a != 0 {
			addSlots = append(addSlots, i)
		}
	}
	before := p.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range mvSlots {
			p.caches.mv[s] = pairEntry{}
		}
		for _, s := range addSlots {
			p.caches.add[s] = tripleEntry{}
		}
		sinkV = p.MulMV(g, e)
	}
	b.StopTimer()
	after := p.Stats()
	misses := float64((after.ComputeLookups - after.ComputeHits) - (before.ComputeLookups - before.ComputeHits))
	b.ReportMetric(misses/float64(b.N), "misses/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/misses, "ns/miss")
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
