package cnum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ApproxEqual reports whether two float pairs are within the default
// Tolerance of each other per component — the comparison a
// default-tolerance table uses.
func ApproxEqual(a, b complex128) bool {
	return math.Abs(real(a)-real(b)) <= Tolerance && math.Abs(imag(a)-imag(b)) <= Tolerance
}

func TestZeroOneCanonical(t *testing.T) {
	tb := NewTable()
	if tb.Zero.Re() != 0 || tb.Zero.Im() != 0 {
		t.Fatalf("Zero = %v", tb.Zero)
	}
	if tb.One.Re() != 1 || tb.One.Im() != 0 {
		t.Fatalf("One = %v", tb.One)
	}
	if tb.Lookup(0, 0) != tb.Zero {
		t.Error("Lookup(0,0) did not return canonical Zero")
	}
	if tb.Lookup(1, 0) != tb.One {
		t.Error("Lookup(1,0) did not return canonical One")
	}
}

func TestSnapNearConstants(t *testing.T) {
	tb := NewTable()
	eps := Tolerance / 2
	if tb.Lookup(eps, -eps) != tb.Zero {
		t.Error("value within tolerance of 0 not snapped to Zero")
	}
	if tb.Lookup(1+eps, eps) != tb.One {
		t.Error("value within tolerance of 1 not snapped to One")
	}
	h := tb.Lookup(math.Sqrt2/2, 0)
	h2 := tb.Lookup(1/math.Sqrt2+eps, 0)
	if h != h2 {
		t.Error("value within tolerance of 1/sqrt2 not identified")
	}
	if h.Re() != math.Sqrt2/2 {
		t.Errorf("canonical 1/sqrt2 representative is %v", h.Re())
	}
}

func TestInterningIdentifiesCloseValues(t *testing.T) {
	tb := NewTable()
	a := tb.Lookup(0.3, 0.4)
	b := tb.Lookup(0.3+Tolerance/3, 0.4-Tolerance/3)
	if a != b {
		t.Error("values within tolerance were not identified")
	}
	c := tb.Lookup(0.3+10*Tolerance, 0.4)
	if a == c {
		t.Error("values beyond tolerance were wrongly identified")
	}
}

func TestInterningAcrossGridBoundary(t *testing.T) {
	tb := NewTable()
	// Pick a value exactly on a quantisation boundary; the nearby value
	// falls into the neighbouring cell but must still be identified.
	x := 7 * Tolerance
	a := tb.Lookup(x, 0)
	b := tb.Lookup(x-Tolerance/2, 0)
	if a != b {
		t.Error("cross-cell values within tolerance were not identified")
	}
}

func TestIdempotentLookup(t *testing.T) {
	tb := NewTable()
	f := func(re, im float64) bool {
		re = math.Mod(re, 4)
		im = math.Mod(im, 4)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		v1 := tb.Lookup(re, im)
		v2 := tb.Lookup(re, im)
		v3 := tb.Lookup(v1.Re(), v1.Im())
		return v1 == v2 && v1 == v3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArithmeticHelpers(t *testing.T) {
	tb := NewTable()
	a := tb.Lookup(0.5, 0.5)
	b := tb.Lookup(0.25, -0.75)

	if got := tb.Mul(a, tb.One); got != a {
		t.Error("a*1 != a")
	}
	if got := tb.Mul(a, tb.Zero); got != tb.Zero {
		t.Error("a*0 != 0")
	}
	want := a.Complex() * b.Complex()
	if got := tb.Mul(a, b).Complex(); !ApproxEqual(got, want) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	want = a.Complex() + b.Complex()
	if got := tb.Add(a, b).Complex(); !ApproxEqual(got, want) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	want = a.Complex() / b.Complex()
	if got := tb.Div(a, b).Complex(); !ApproxEqual(got, want) {
		t.Errorf("Div = %v, want %v", got, want)
	}
	if got := tb.Neg(a).Complex(); !ApproxEqual(got, -a.Complex()) {
		t.Errorf("Neg = %v", got)
	}
	if got := tb.Conj(a).Complex(); !ApproxEqual(got, complex(0.5, -0.5)) {
		t.Errorf("Conj = %v", got)
	}
	if tb.Conj(tb.One) != tb.One {
		t.Error("Conj(1) should be the canonical One")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("Div by Zero did not panic")
		}
	}()
	tb.Div(tb.One, tb.Zero)
}

func TestNaNPanics(t *testing.T) {
	tb := NewTable()
	defer func() {
		if recover() == nil {
			t.Error("Lookup(NaN) did not panic")
		}
	}()
	tb.Lookup(math.NaN(), 0)
}

func TestMulDivRoundTrip(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := tb.Lookup(rng.Float64()*2-1, rng.Float64()*2-1)
		b := tb.Lookup(rng.Float64()+0.1, rng.Float64()+0.1)
		got := tb.Div(tb.Mul(a, b), b)
		if !ApproxEqual(got.Complex(), a.Complex()) {
			t.Fatalf("(a*b)/b = %v, want %v", got.Complex(), a.Complex())
		}
	}
}

func TestHitRateGrows(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 100; i++ {
		tb.Lookup(0.123, 0.456)
	}
	if tb.HitRate() < 0.9 {
		t.Errorf("hit rate = %v, want > 0.9 for repeated lookups", tb.HitRate())
	}
	if tb.Count() < 3 { // Zero, One, 0.123+0.456i
		t.Errorf("count = %d", tb.Count())
	}
}

func TestMag2(t *testing.T) {
	tb := NewTable()
	v := tb.Lookup(3, 4)
	if v.Mag2() != 25 {
		t.Errorf("Mag2 = %v, want 25", v.Mag2())
	}
}

func TestStringFormats(t *testing.T) {
	tb := NewTable()
	cases := map[*Value]string{
		tb.Lookup(0.5, 0):    "0.5",
		tb.Lookup(0, -1):     "-1i",
		tb.Lookup(0.5, 0.5):  "0.5+0.5i",
		tb.Lookup(0.5, -0.5): "0.5-0.5i",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
