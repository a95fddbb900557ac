package noise

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// newChan1 builds a channel instance with its cache key precomputed.
func newChan1(kind ChanKind, qubit int, p float64, event bool, label int) Chan1 {
	ch := Chan1{Kind: kind, Qubit: qubit, Label: label, P: p, Event: event}
	ch.key = ch.buildKey()
	return ch
}

// newPauliChan1 builds a general Pauli channel instance.
func newPauliChan1(qubit int, probs [4]float64, label int) Chan1 {
	ch := Chan1{Kind: ChanPauli, Qubit: qubit, Label: label, Probs: probs}
	ch.key = ch.buildKey()
	return ch
}

// applyKraus1 evolves a 2×2 density block through a Kraus set:
// ρ → Σ_k K ρ K†.
func applyKraus1(ks [][2][2]complex128, rho [2][2]complex128) [2][2]complex128 {
	var out [2][2]complex128
	for _, k := range ks {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						out[i][j] += k[i][a] * rho[a][b] * cmplx.Conj(k[j][b])
					}
				}
			}
		}
	}
	return out
}

func pauliOps() [4][2][2]complex128 {
	return [4][2][2]complex128{ident2(), pauliX(), pauliY(), pauliZ()}
}

// conj1 returns P ρ P† for a Pauli P (Hermitian, so P† = P).
func conj1(p, rho [2][2]complex128) [2][2]complex128 {
	return applyKraus1([][2][2]complex128{p}, rho)
}

func randRho(rng *rand.Rand) [2][2]complex128 {
	// A random PSD matrix with unit trace: A†A normalised.
	var a [2][2]complex128
	for i := range a {
		for j := range a[i] {
			a[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	var rho [2][2]complex128
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				rho[i][j] += cmplx.Conj(a[k][i]) * a[k][j]
			}
		}
	}
	tr := real(rho[0][0] + rho[1][1])
	for i := range rho {
		for j := range rho[i] {
			rho[i][j] /= complex(tr, 0)
		}
	}
	return rho
}

func maxDev(a, b [2][2]complex128) float64 {
	dev := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			dev = math.Max(dev, cmplx.Abs(a[i][j]-b[i][j]))
		}
	}
	return dev
}

// TestTwirlProbsSumToOne: a CPTP channel twirls into a probability
// distribution over I/X/Y/Z.
func TestTwirlProbsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		ch := newChan1(ChanDamping, 0, rng.Float64(), rng.Intn(2) == 0, LabelDamping)
		probs := TwirlProbs(ch.Kraus())
		sum := 0.0
		for _, p := range probs {
			if p < -1e-15 {
				t.Fatalf("negative twirl probability %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("twirl probabilities sum to %v (channel %s)", sum, ch.Key())
		}
	}
}

// TestTwirlMatchesPauliAverage verifies the defining property of the
// Pauli twirl on random states: the twirled channel equals the Pauli
// average (1/4)·Σ_P P† D(P ρ P†) P of the original channel, to 1e-12.
func TestTwirlMatchesPauliAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	paulis := pauliOps()
	for trial := 0; trial < 50; trial++ {
		gamma := rng.Float64()
		event := rng.Intn(2) == 0
		orig := newChan1(ChanDamping, 0, gamma, event, LabelDamping)
		tw := newPauliChan1(0, TwirlProbs(orig.Kraus()), LabelTwirled)

		rho := randRho(rng)
		// Pauli average of the original channel.
		var avg [2][2]complex128
		for _, p := range paulis {
			out := conj1(p, applyKraus1(orig.Kraus(), conj1(p, rho)))
			for i := range avg {
				for j := range avg[i] {
					avg[i][j] += out[i][j] / 4
				}
			}
		}
		got := applyKraus1(tw.Kraus(), rho)
		if dev := maxDev(got, avg); dev > 1e-12 {
			t.Fatalf("trial %d (γ=%v event=%t): twirl deviates from the Pauli average by %g",
				trial, gamma, event, dev)
		}
	}
}

// TestTwirlIdempotent: a Pauli channel is a fixed point of the twirl.
func TestTwirlIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		orig := newChan1(ChanDamping, 0, rng.Float64(), rng.Intn(2) == 0, LabelDamping)
		probs := TwirlProbs(orig.Kraus())
		tw := newPauliChan1(0, probs, LabelTwirled)
		again := TwirlProbs(tw.Kraus())
		for i := range probs {
			if math.Abs(again[i]-probs[i]) > 1e-12 {
				t.Fatalf("twirl not idempotent: %v vs %v", again, probs)
			}
		}
	}
}

// TestTwirlFixedPoints: depolarising and phase-flip channels are Pauli
// channels already; their twirl reproduces the analytic mixing
// weights.
func TestTwirlFixedPoints(t *testing.T) {
	p := 0.12
	depol := newChan1(ChanDepolarizing, 0, p, false, LabelDepolarizing)
	probs := TwirlProbs(depol.Kraus())
	want := [4]float64{1 - 3*p/4, p / 4, p / 4, p / 4}
	for i := range probs {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("depolarising twirl = %v, want %v", probs, want)
		}
	}
	flip := newChan1(ChanPhaseFlip, 0, p, false, LabelPhaseFlip)
	probs = TwirlProbs(flip.Kraus())
	want = [4]float64{1 - p, 0, 0, p}
	for i := range probs {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("phase-flip twirl = %v, want %v", probs, want)
		}
	}
}

// TestTwirlPreservesUnitalDiagonal: the twirl of a unital channel
// (here phase flip) acts identically on diagonal states.
func TestTwirlPreservesUnitalDiagonal(t *testing.T) {
	p := 0.3
	flip := newChan1(ChanPhaseFlip, 0, p, false, LabelPhaseFlip)
	tw := newPauliChan1(0, TwirlProbs(flip.Kraus()), LabelTwirled)
	for _, d := range []float64{0, 0.25, 0.5, 1} {
		rho := [2][2]complex128{{complex(d, 0), 0}, {0, complex(1-d, 0)}}
		a := applyKraus1(flip.Kraus(), rho)
		b := applyKraus1(tw.Kraus(), rho)
		if dev := maxDev(a, b); dev > 1e-12 {
			t.Fatalf("diagonal action deviates by %g at d=%v", dev, d)
		}
	}
}

// TestModelTwirlIdempotent: Model.Twirl marks the model and is
// idempotent at the model level too.
func TestModelTwirlIdempotent(t *testing.T) {
	m := PaperDefaults().Twirl()
	if !m.Twirled || !m.Extended() {
		t.Fatal("Twirl did not mark the model")
	}
	if m.Twirl() != m {
		t.Fatal("Twirl not idempotent")
	}
}
