package cnum

import (
	"math/rand"
	"testing"
)

// Layer probes for the weight-interning table: the hit (a value already
// interned, found in its home cell — the common case of every
// structured circuit), the insert-heavy miss (new cells, including
// directory growth) and a Sweep over a populated table (the chain
// filter plus the in-place cell-directory rebuild).

func BenchmarkLookupHit(b *testing.B) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(7))
	const k = 4096
	re, im := make([]float64, k), make([]float64, k)
	for i := range re {
		re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
		tb.Lookup(re[i], im[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(re[i%k], im[i%k])
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	tb := NewTable()
	inserted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inserted == 200000 { // nothing marked: the table drains
			b.StopTimer()
			tb.BeginMark()
			tb.Sweep()
			b.StartTimer()
			inserted = 0
		}
		// Distinct cells, 1e-6 apart on a 1000-wide grid.
		tb.Lookup(1e-3+float64(inserted%1000)*1e-6, 1e-3+float64(inserted/1000)*1e-6)
		inserted++
	}
}

func BenchmarkSweep(b *testing.B) {
	tb := NewTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 20000; j++ {
			tb.Lookup(1e-3+float64(j%1000)*1e-6, 1e-3+float64(j/1000)*1e-6)
		}
		b.StartTimer()
		tb.BeginMark()
		tb.Sweep() // unmarked: drops all 20000, rebuilds in place
	}
}
