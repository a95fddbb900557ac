// Package obs implements the statistical machinery of the paper's
// Section III: quadratic properties o_l = |⟨ω_l|ψ⟩|² of a state
// ensemble, their Monte-Carlo estimators, and the sample-size bound of
// Theorem 1 (Hoeffding + union bound):
//
//	M = log(2L/δ) / (2ε²)
//
// samples suffice to estimate L properties to accuracy ε with
// confidence 1−δ.
package obs

import (
	"fmt"
	"math"
)

// SampleCount returns the number of Monte-Carlo samples required by
// Theorem 1 to estimate properties quadratic properties with accuracy
// eps and confidence 1−delta.
func SampleCount(properties int, eps, delta float64) (int, error) {
	if properties < 1 {
		return 0, fmt.Errorf("obs: need at least one property, got %d", properties)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("obs: accuracy eps=%v outside (0,1)", eps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("obs: confidence delta=%v outside (0,1)", delta)
	}
	m := math.Log(2*float64(properties)/delta) / (2 * eps * eps)
	return int(math.Ceil(m)), nil
}

// HoeffdingFailureProb returns the Hoeffding bound
// Pr[|o − ô| ≥ ε] ≤ 2·exp(−2Mε²) for one [0,1]-bounded property
// estimated from M samples.
func HoeffdingFailureProb(m int, eps float64) float64 {
	return 2 * math.Exp(-2*float64(m)*eps*eps)
}

// ConfidenceRadius inverts Theorem 1: given M samples, L properties
// and confidence 1−delta, it returns the accuracy ε guaranteed.
func ConfidenceRadius(m, properties int, delta float64) float64 {
	return math.Sqrt(math.Log(2*float64(properties)/delta) / (2 * float64(m)))
}

// Estimator accumulates samples of one [0,1]-bounded property and
// reports the empirical mean ô = (1/M) Σ |⟨ω|ψ_j⟩|².
type Estimator struct {
	sum float64
	n   int
}

// Add records one sample. Samples outside [0,1] (allowing a small
// numerical slack) panic, because Theorem 1's guarantee assumes
// bounded properties.
func (e *Estimator) Add(sample float64) {
	if sample < -1e-9 || sample > 1+1e-9 {
		panic(fmt.Sprintf("obs: sample %v outside [0,1]", sample))
	}
	e.sum += sample
	e.n++
}

// Mean returns the current estimate ô.
func (e *Estimator) Mean() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / float64(e.n)
}

// Count returns the number of accumulated samples.
func (e *Estimator) Count() int { return e.n }

// Radius returns the (1−delta)-confidence radius of the current
// estimate when it is one of `properties` simultaneously tracked
// properties.
func (e *Estimator) Radius(properties int, delta float64) float64 {
	if e.n == 0 {
		return 1
	}
	return ConfidenceRadius(e.n, properties, delta)
}
