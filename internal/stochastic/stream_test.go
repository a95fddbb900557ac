package stochastic

import (
	"math"
	"testing"
)

// firstDraws returns the first n Uint64 of run j of a job.
func firstDraws(src *stream, seed int64, j uint64) (d [8]uint64) {
	src.seek(seed, j)
	for i := range d {
		d[i] = src.Uint64()
	}
	return d
}

// TestNeighbouringSeedsShareNoTrajectory: stream v1 seeded run j of
// seed S with S+j folded mod 2³¹−1, so jobs at seeds S and S+1 shared
// all but one of their trajectories and S, S+2³¹−1 were one job. The
// state now comes from all 64 bits of both.
func TestNeighbouringSeedsShareNoTrajectory(t *testing.T) {
	const runs = 4096
	_, src := newStream()
	for _, s := range []int64{0, 1, 7, 1_000_000, -3, math.MaxInt64 - 1<<31} {
		seen := make(map[[8]uint64]uint64, runs)
		for j := uint64(0); j < runs; j++ {
			seen[firstDraws(src, s, j)] = j
		}
		if len(seen) != runs {
			t.Errorf("seed %d: only %d distinct streams in %d runs", s, len(seen), runs)
		}
		for _, other := range []int64{s + 1, s + 2, s + 1<<31 - 1, s + 1<<32} {
			for j := uint64(0); j < runs; j++ {
				if i, ok := seen[firstDraws(src, other, j)]; ok {
					t.Fatalf("run %d of seed %d is run %d of seed %d", j, other, i, s)
				}
			}
		}
	}
}

// uniformityStats returns the 256-bin chi-square statistic of xs (255
// degrees of freedom) and their lag-1 autocorrelation.
func uniformityStats(xs []float64) (chi2, lag1 float64) {
	var bins [256]float64
	for _, x := range xs {
		bins[int(x*256)]++
	}
	want := float64(len(xs)) / 256
	for _, b := range bins {
		chi2 += (b - want) * (b - want) / want
	}
	// Uniform on [0,1): mean 1/2, variance 1/12.
	for i := 1; i < len(xs); i++ {
		lag1 += (xs[i-1] - 0.5) * (xs[i] - 0.5)
	}
	return chi2, lag1 / float64(len(xs)-1) * 12
}

// TestFirstDrawIndependentAcrossRunsAndSeeds: a trajectory's first draw
// decides whether it has an event at all, so the first draws of
// adjacent runs, and of adjacent seeds, must look like independent
// uniforms — a correlation there would bias every estimate.
func TestFirstDrawIndependentAcrossRunsAndSeeds(t *testing.T) {
	const n = 1 << 20
	rng, src := newStream()
	xs := make([]float64, n)
	check := func(label string) {
		t.Helper()
		chi2, lag1 := uniformityStats(xs)
		// χ²(255) has mean 255 and σ ≈ 22.6; the correlation of n
		// independent pairs has σ = 1/√n.
		if chi2 < 255-5*22.6 || chi2 > 255+5*22.6 {
			t.Errorf("%s: χ² = %.1f over 256 bins, want 255 ± 113", label, chi2)
		}
		if limit := 5 / math.Sqrt(n); math.Abs(lag1) > limit {
			t.Errorf("%s: lag-1 correlation %.5f, want |r| < %.5f", label, lag1, limit)
		}
	}
	for _, seed := range []int64{0, 1, 7} {
		for j := range xs {
			src.seek(seed, uint64(j))
			xs[j] = rng.Float64()
		}
		check("runs of one seed")
	}
	for _, j := range []uint64{0, 1, 29999} {
		for s := range xs {
			src.seek(int64(s), j)
			xs[s] = rng.Float64()
		}
		check("seeds at one run")
	}
}
