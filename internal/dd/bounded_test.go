package dd

import (
	"math"
	"slices"
	"testing"
)

// rotations is a product of non-commuting rotations on every qubit of
// p's register, entangled by a CNOT ladder: a matrix whose products
// grow, so a small budget abandons them.
func rotations(p *Package, angle float64) MEdge {
	n := p.NumQubits()
	c, s := complex(math.Cos(angle), 0), complex(math.Sin(angle), 0)
	ry := Mat2{{c, -s}, {s, c}}
	m := p.Identity()
	for q := 0; q < n; q++ {
		m = p.MulMM(p.SingleQubitGate(ry, q), m)
		if q > 0 {
			m = p.MulMM(p.ControlledGate(matX, q, []Control{{Qubit: q - 1}}), m)
		}
	}
	return m
}

// TestMulMMBoundedAbandonsCleanly: a build past its budget gives up and
// leaves the mm and madd caches exactly as it found them, whatever
// part of the product it had built (budgets double from 1); the first
// budget that suffices builds MulMM's product and reports its node
// count.
func TestMulMMBoundedAbandonsCleanly(t *testing.T) {
	p := NewPackage(6)
	defer p.Release()
	a, b := rotations(p, 0.3), rotations(p, 1.1)
	p.RefM(a)
	p.RefM(b)
	mm, madd := slices.Clone(p.caches.mm), slices.Clone(p.caches.madd)

	var r MEdge
	var nodes int
	steps, undone := 1, 0
	for ok := false; !ok; steps *= 2 {
		if r, nodes, ok = p.MulMMBounded(a, b, steps); ok {
			break
		}
		undone = max(undone, len(p.boundState.mm)+len(p.boundState.madd))
		if !slices.Equal(p.caches.mm, mm) || !slices.Equal(p.caches.madd, madd) {
			t.Fatalf("the build abandoned after %d steps left mm or madd entries behind", steps)
		}
		if p.bound != nil {
			t.Fatal("the abandoned build left its budget installed")
		}
	}
	if steps < 16 || undone == 0 {
		t.Fatalf("built in %d steps, at most %d cache writes undone: the product is too small to test", steps, undone)
	}
	if want := p.MulMM(a, b); r != want {
		t.Fatalf("bounded product %v differs from MulMM %v", r, want)
	}
	if want := p.NodeCountM(r); nodes != want || nodes < 6 {
		t.Fatalf("reported %d nodes, the product has %d", nodes, want)
	}
}
