package dd

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ddsim/internal/cnum"
)

// composedControlledGate is ControlledGate as it was built before the
// one-pass construction, kept unchanged as the reference the one pass
// is held to:
//
//	CU = I − (P_ctrl ⊗ I_target) + (P_ctrl ⊗ U_target)
//
// where P_ctrl is the projector chain selecting the triggering control
// subspace, from two product operators, the identity, a subtraction
// and an addition.
func (p *Package) composedControlledGate(u Mat2, target int, controls []Control) MEdge {
	if len(controls) == 0 {
		return p.SingleQubitGate(u, target)
	}
	p0 := Mat2{{1, 0}, {0, 0}}
	p1 := Mat2{{0, 0}, {0, 1}}
	id := Mat2{{1, 0}, {0, 1}}

	factors := p.factorSlice()
	for _, c := range controls {
		if c.Negative {
			factors[c.Qubit] = &p0
		} else {
			factors[c.Qubit] = &p1
		}
	}

	factors[target] = &id
	projID := p.ProductOperator(factors) // P_ctrl ⊗ I_target
	factors[target] = &u
	projU := p.ProductOperator(factors) // P_ctrl ⊗ U_target

	return p.AddM(p.subM(p.Identity(), projID), projU)
}

// subM returns a−b for matrix diagrams.
func (p *Package) subM(a, b MEdge) MEdge {
	return p.AddM(a, p.scaleM(b, p.W.Lookup(-1, 0)))
}

// controlledGateCases are the 2×2s of the differential test: the
// Paulis and H, 20 phase angles (±π/2^k, the QFT's), and random U(2)
// with a global phase.
func controlledGateCases(rng *rand.Rand) []Mat2 {
	cases := []Mat2{matH, matX, matY, matZ}
	for k := 0; k < 10; k++ {
		for _, sign := range []float64{1, -1} {
			cases = append(cases, Mat2{{1, 0}, {0, cmplx.Exp(complex(0, sign*math.Pi/float64(int(1)<<k)))}})
		}
	}
	for i := 0; i < 16; i++ {
		th, ph, la, g := rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
		c, s := complex(math.Cos(th/2), 0), complex(math.Sin(th/2), 0)
		cases = append(cases, Mat2{
			{g * c, -g * cmplx.Exp(complex(0, la)) * s},
			{g * cmplx.Exp(complex(0, ph)) * s, g * cmplx.Exp(complex(0, ph+la)) * c},
		})
	}
	return cases
}

// TestControlledGateMatchesComposition: the one-pass ControlledGate
// returns the very edge — node pointer and interned weight — that the
// composition I − P⊗I + P⊗U does, over random packages of 1 to 24
// qubits with up to four controls of either polarity above and below
// the target, built in either order, at the default weight tolerance
// and at the exact engine's 1e-14.
func TestControlledGateMatchesComposition(t *testing.T) {
	packages, gates := 3000, 20
	if testing.Short() {
		packages = 400
	}
	rng := rand.New(rand.NewSource(33))
	cases := controlledGateCases(rng)
	var above, below, between, negative, none bool
	for pk := 0; pk < packages; pk++ {
		tol := []float64{cnum.Tolerance, 1e-14}[pk%2]
		composedFirst := pk/2%2 == 1
		n := 1 + rng.Intn(24)
		p := NewPackageTol(n, tol)
		for g := 0; g < gates; g++ {
			u := cases[rng.Intn(len(cases))]
			target := rng.Intn(n)
			var controls []Control
			var up, down bool
			for _, q := range rng.Perm(n)[:rng.Intn(min(n, 5))] {
				if q == target {
					continue
				}
				c := Control{Qubit: q, Negative: rng.Intn(2) == 0}
				controls = append(controls, c)
				negative = negative || c.Negative
				up, down = up || q < target, down || q > target
			}
			none = none || len(controls) == 0
			above, below, between = above || (up && !down), below || (down && !up), between || (up && down)
			var got, want MEdge
			if composedFirst {
				want = p.composedControlledGate(u, target, controls)
				got = p.ControlledGate(u, target, controls)
			} else {
				got = p.ControlledGate(u, target, controls)
				want = p.composedControlledGate(u, target, controls)
			}
			if got != want {
				t.Fatalf("package %d (n=%d tol=%g composedFirst=%v) gate %d: u=%v target=%d controls=%v: one pass %p·%v, composition %p·%v",
					pk, n, tol, composedFirst, g, u, target, controls, got.N, got.W, want.N, want.W)
			}
		}
		p.Release()
	}
	if !(above && below && between && negative && none) {
		t.Errorf("shapes not all covered: above=%v below=%v between=%v negative=%v none=%v", above, below, between, negative, none)
	}
}

// TestControlledGateRejectsBadControls: the one pass keeps the
// composition's panics on a control on the target and a repeated
// control, and rejects a control outside the register.
func TestControlledGateRejectsBadControls(t *testing.T) {
	for _, controls := range [][]Control{
		{{Qubit: 1}},
		{{Qubit: 0}, {Qubit: 0, Negative: true}},
		{{Qubit: 3}},
		{{Qubit: -1}},
	} {
		t.Run(fmt.Sprint(controls), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("ControlledGate(target 1, %v) did not panic", controls)
				}
			}()
			NewPackage(3).ControlledGate(matX, 1, controls)
		})
	}
}
