package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (the definition numpy and R call type 7).
// It sorts a copy; an empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// The headline statistic of every timing is the fast end of the
// samples: on a shared box a neighbour only ever adds time, so the
// fast tail of many same-size jobs repeats far better than their
// median or their CPU time (see WORKLOADS.md for the measurement).
//
// fastest is the headline of the library workloads, whose timed jobs
// are identical (same inputs, same seed): one quiet job in a run is
// enough for it, where the 10th percentile of 20 needs three.
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// fastDecile, the 10th percentile, is the headline of the service
// workload, whose jobs each have a seed, and so an amount of work, of
// their own: their minimum would be the luckiest seed's. It is printed
// for the library workloads too, ungated.
func fastDecile(xs []float64) float64 { return quantile(xs, 0.10) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond the reported high
// percentile for it to mean anything.
const tailSamples = 10

// highPercentile returns the highest order statistic that still has at
// least tailSamples samples beyond it, and the percentile it sits at.
// With too few samples for that, it falls back to the median.
func highPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailSamples {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
