package statevec

import (
	"math"

	"ddsim/internal/circuit"
)

// kernel names the update loop an op is compiled to. It is chosen once,
// from the zero pattern of the op's 2×2 alone: a kernel may skip a term
// only where the matrix entry is exactly zero, so against the full 2×2
// update it can differ in nothing but the sign of a zero.
type kernel uint8

const (
	kernGeneral  kernel = iota // full 2×2 on every selected pair
	kernDiag                   // u01 = u10 = 0: each half times its own factor
	kernAntiDiag               // u00 = u11 = 0: the halves trade places, scaled
)

func classify(u circuit.Mat2) kernel {
	switch {
	case u[0][1] == 0 && u[1][0] == 0:
		return kernDiag
	case u[0][0] == 0 && u[1][1] == 0:
		return kernAntiDiag
	}
	return kernGeneral
}

// subspace is the set of amplitude pairs an op selects: the indices
// whose control bits hold their required values and whose target bit is
// 0 (the pair's other half lies stride above). Below the lowest fixed
// bit — target or control — such indices are contiguous, so they are
// walked as runs; the free bits above it are counted through with
// s = (s − free) & free, which steps s through the subsets of free in
// increasing order and returns to 0 after the last. Nothing outside the
// subspace is read, tested or written.
type subspace struct {
	stride uint64 // 1 << target bit
	base   uint64 // the control bits that must be 1
	run    uint64 // run length: 1 << lowest fixed bit
	free   uint64 // unfixed bits above the runs
}

func newSubspace(dim int, bit uint, ctrlMask, ctrlWant uint64) subspace {
	stride := uint64(1) << bit
	fixed := ctrlMask | stride
	run := fixed & -fixed
	return subspace{stride: stride, base: ctrlWant, run: run, free: (uint64(dim) - 1) &^ fixed &^ (run - 1)}
}

// rscale is a·r for a real r: the two multiplies of the four a
// complex-by-complex product spends on a factor with zero imaginary
// part, and the same value.
func rscale(a complex128, r float64) complex128 {
	return complex(real(a)*r, imag(a)*r)
}

// scale multiplies by f the half of every selected pair that lies off
// above its target-0 index (0 or the stride).
func scale(v []complex128, sub subspace, off uint64, f complex128) {
	base := sub.base | off
	if imag(f) == 0 {
		r := real(f)
		for s := uint64(0); ; {
			i := base | s
			run := v[i : i+sub.run]
			for j := range run {
				run[j] = rscale(run[j], r)
			}
			if s = (s - sub.free) & sub.free; s == 0 {
				return
			}
		}
	}
	if sub.run < 4 {
		// Slicing out a run of one or two costs more than multiplying
		// it (a controlled phase at n = 14 with bit 0 fixed: 8.8 µs in
		// runs, 5.4 µs so), and a QFT's controlled phases fix a low bit
		// more often than a high one: count through the low free bits
		// too and touch single amplitudes.
		free := sub.free | (sub.run - 1)
		for s := uint64(0); ; {
			v[base|s] *= f
			if s = (s - free) & free; s == 0 {
				return
			}
		}
	}
	for s := uint64(0); ; {
		i := base | s
		run := v[i : i+sub.run]
		for j := range run {
			run[j] *= f
		}
		if s = (s - sub.free) & sub.free; s == 0 {
			return
		}
	}
}

// swapScale is the anti-diagonal update a0, a1 ← u01·a1, u10·a0; with
// both factors 1 (X, CX, Toffoli) it moves amplitudes and multiplies
// nothing.
func swapScale(v []complex128, sub subspace, u01, u10 complex128) {
	plain := u01 == 1 && u10 == 1
	for s := uint64(0); ; {
		i := sub.base | s
		lo := v[i : i+sub.run]
		hi := v[i+sub.stride:][:len(lo)]
		if plain {
			for j := range lo {
				lo[j], hi[j] = hi[j], lo[j]
			}
		} else {
			for j := range lo {
				lo[j], hi[j] = u01*hi[j], u10*lo[j]
			}
		}
		if s = (s - sub.free) & sub.free; s == 0 {
			return
		}
	}
}

// general is the full 2×2 update of every selected pair.
func general(v []complex128, sub subspace, u circuit.Mat2) {
	u00, u01, u10, u11 := u[0][0], u[0][1], u[1][0], u[1][1]
	for s := uint64(0); ; {
		i := sub.base | s
		lo := v[i : i+sub.run]
		hi := v[i+sub.stride:][:len(lo)]
		for j := range lo {
			a0, a1 := lo[j], hi[j]
			lo[j] = u00*a0 + u01*a1
			hi[j] = u10*a0 + u11*a1
		}
		if s = (s - sub.free) & sub.free; s == 0 {
			return
		}
	}
}

// damp applies one branch of the amplitude-damping channel with decay
// probability p, renormalised by norm: the jump √p·|0⟩⟨1| when fire,
// else the no-jump diag(1, √(1−p)). The Kraus factor and norm are
// applied one after the other, not premultiplied, which keeps the two
// roundings of a Kraus pass followed by a rescale pass.
func damp(v []complex128, sub subspace, p float64, fire bool, norm float64) {
	k := math.Sqrt(1 - p)
	if fire {
		k = math.Sqrt(p)
	}
	for s := uint64(0); ; {
		i := sub.base | s
		lo := v[i : i+sub.run]
		hi := v[i+sub.stride:][:len(lo)]
		if fire {
			for j := range lo {
				lo[j] = rscale(rscale(hi[j], k), norm)
			}
			clear(hi)
		} else {
			for j := range lo {
				lo[j] = rscale(lo[j], norm)
				hi[j] = rscale(rscale(hi[j], k), norm)
			}
		}
		if s = (s - sub.free) & sub.free; s == 0 {
			return
		}
	}
}
