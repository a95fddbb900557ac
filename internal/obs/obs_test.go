package obs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// UnionFailureProb bounds the probability that any of L properties
// deviates by ε when estimated from M shared samples.
func UnionFailureProb(m, properties int, eps float64) float64 {
	p := float64(properties) * HoeffdingFailureProb(m, eps)
	if p > 1 {
		return 1
	}
	return p
}

// PaperIterationCheck reproduces the paper's own calculation: with
// M = 30000 iterations, tracking L = 1000 properties at 95 %
// confidence yields an error margin below 0.01 (Section V). It
// returns that margin.
func PaperIterationCheck() float64 {
	return ConfidenceRadius(30000, 1000, 0.05)
}

func TestSampleCountPaperValue(t *testing.T) {
	// The paper (Section V): M = 30000 iterations correspond to
	// tracking 1000 properties with error margin < 0.01 at 95 %
	// confidence.
	m, err := SampleCount(1000, 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m > 60000 || m < 30000 {
		t.Errorf("M = %d, expected within [30000, 60000] per Theorem 1", m)
	}
	if r := PaperIterationCheck(); r >= 0.014 {
		t.Errorf("paper margin = %v, want < 0.014", r)
	}
}

func TestSampleCountMonotonicity(t *testing.T) {
	m1, _ := SampleCount(10, 0.1, 0.05)
	m2, _ := SampleCount(10, 0.05, 0.05)
	if m2 <= m1 {
		t.Error("smaller eps should need more samples")
	}
	m3, _ := SampleCount(1000, 0.1, 0.05)
	if m3 <= m1 {
		t.Error("more properties should need more samples")
	}
	// The logarithmic suppression: 100× more properties costs only a
	// constant factor, not 100×.
	m4, _ := SampleCount(1000000, 0.1, 0.05)
	if float64(m4) > 3*float64(m1) {
		t.Errorf("log suppression violated: M(1e6)=%d vs M(10)=%d", m4, m1)
	}
}

func TestSampleCountErrors(t *testing.T) {
	if _, err := SampleCount(0, 0.1, 0.1); err == nil {
		t.Error("zero properties accepted")
	}
	if _, err := SampleCount(1, 0, 0.1); err == nil {
		t.Error("zero eps accepted")
	}
	if _, err := SampleCount(1, 0.1, 1); err == nil {
		t.Error("delta = 1 accepted")
	}
	if _, err := SampleCount(1, 1.5, 0.1); err == nil {
		t.Error("eps > 1 accepted")
	}
}

func TestRadiusInvertsSampleCount(t *testing.T) {
	f := func(l int, eps, delta float64) bool {
		l = 1 + (l%1000+1000)%1000
		eps = 0.01 + math.Abs(math.Mod(eps, 0.5))
		delta = 0.01 + math.Abs(math.Mod(delta, 0.5))
		m, err := SampleCount(l, eps, delta)
		if err != nil {
			return false
		}
		// With M samples the guaranteed radius is at most eps.
		return ConfidenceRadius(m, l, delta) <= eps+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHoeffdingBounds(t *testing.T) {
	if p := HoeffdingFailureProb(0, 0.1); p != 2 {
		t.Errorf("M=0 bound = %v", p)
	}
	if p := HoeffdingFailureProb(10000, 0.05); p > 2*math.Exp(-50)+1e-30 {
		t.Errorf("bound too loose: %v", p)
	}
	if p := UnionFailureProb(10, 1000000, 0.001); p != 1 {
		t.Errorf("union bound should clamp at 1, got %v", p)
	}
}

// TestHoeffdingEmpirical verifies the concentration behaviour the
// Theorem 1 proof relies on: empirical means of Bernoulli samples
// deviate by more than ε far less often than the bound allows.
func TestHoeffdingEmpirical(t *testing.T) {
	const (
		trueP  = 0.3
		m      = 500
		eps    = 0.08
		trials = 2000
	)
	rng := rand.New(rand.NewSource(4))
	fail := 0
	for trial := 0; trial < trials; trial++ {
		var e Estimator
		for i := 0; i < m; i++ {
			x := 0.0
			if rng.Float64() < trueP {
				x = 1
			}
			e.Add(x)
		}
		if math.Abs(e.Mean()-trueP) > eps {
			fail++
		}
	}
	bound := HoeffdingFailureProb(m, eps)
	got := float64(fail) / trials
	if got > bound {
		t.Errorf("empirical failure rate %v exceeds Hoeffding bound %v", got, bound)
	}
}

func TestEstimator(t *testing.T) {
	var e Estimator
	if e.Mean() != 0 || e.Count() != 0 {
		t.Error("fresh estimator not zero")
	}
	if r := e.Radius(10, 0.05); r != 1 {
		t.Errorf("empty estimator radius = %v, want 1", r)
	}
	e.Add(0.5)
	e.Add(1.0)
	if got := e.Mean(); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("mean = %v", got)
	}
	if e.Count() != 2 {
		t.Errorf("count = %d", e.Count())
	}
	if r := e.Radius(10, 0.05); r <= 0 || r > 2 {
		t.Errorf("radius = %v", r)
	}
}

func TestEstimatorRejectsUnbounded(t *testing.T) {
	var e Estimator
	defer func() {
		if recover() == nil {
			t.Error("sample outside [0,1] accepted")
		}
	}()
	e.Add(1.5)
}
