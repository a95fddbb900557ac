package cnum

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzInternTol feeds one lookup sequence to the interning table and
// to the brute-force model of swiss_test.go and demands bit-identical
// representatives. For every fuzzed value it also probes
// boundary-straddling derivatives — ±tol/2 (must alias), ±2·tol (must
// not), ±(cell−tol/2) (adjacent grid cell, reachable only through the
// neighbour probe) — which is exactly where the cell directory could
// diverge from the plain scan. Periodic identical mark/sweep rounds
// exercise chain filtering and the tombstone-free rebuild mid-sequence.
//
// The seed corpus covers the near-underflow scales of
// zeroweight_test.go (1e-4 … 1e-6 amplitude factors, whose products
// land around the 1e-10 default tolerance) and direct tolerance-grid
// multiples.
func FuzzInternTol(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	// zeroweight_test.go near-underflow scales and their pairwise
	// products straddling the default tolerance.
	f.Add(seed(1e-4, -1e-4, 1e-5, 1e-5, 3e-6, -3e-6, 1e-6, 1e-6))
	f.Add(seed(1e-4*1e-5, 1e-5*1e-5, 3e-6*3e-6, 1e-6*1e-6, 1e-4*3e-6, -1e-5*3e-6))
	// Tolerance-grid multiples: cell boundaries (4·tol) and half-cells.
	f.Add(seed(4e-10, 8e-10, 2e-10, 6e-10, -4e-10, -2e-10, 1e-10, 5e-11))
	// Snap targets and their neighbourhoods.
	f.Add(seed(0, 1, -1, math.Sqrt2/2, -math.Sqrt2/2, 1+5e-11, math.Sqrt2/2-5e-11, 1e-11))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tol := range []float64{Tolerance, 1e-14} {
			p := newTablePair(t, tol)
			var tbVals []*Value
			var mdVals []*modelValue
			probe := func(re, im float64) {
				if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
					return
				}
				v, m := p.lookup(re, im)
				tbVals = append(tbVals, v)
				mdVals = append(mdVals, m)
			}
			var vals []float64
			for i := 0; i+8 <= len(data); i += 8 {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
			for i, re := range vals {
				im := 0.0
				if i+1 < len(vals) {
					im = vals[i+1]
				}
				probe(re, im)
				for _, d := range boundaryOffsets(tol) {
					probe(re+d, im)
					probe(re, im+d)
					probe(re+d, im-d)
				}
				// A mark/sweep round partway through: keep every other
				// interned value alive on both sides, then keep
				// interning into the (partly recycled) table.
				if i%5 == 4 {
					p.sweep(tbVals, mdVals, 2)
					tbVals, mdVals = tbVals[:0], mdVals[:0]
				}
			}
			p.count()
		}
	})
}
