package noise

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
)

func TestValidate(t *testing.T) {
	if err := PaperDefaults().Validate(); err != nil {
		t.Error(err)
	}
	bad := Model{Depolarizing: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("probability > 1 accepted")
	}
	neg := Model{Damping: -0.1}
	if err := neg.Validate(); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestEnabled(t *testing.T) {
	if (Model{}).Enabled() {
		t.Error("zero model reports enabled")
	}
	if !PaperDefaults().Enabled() {
		t.Error("paper defaults report disabled")
	}
}

func TestPaperDefaults(t *testing.T) {
	m := PaperDefaults()
	if m.Depolarizing != 0.001 || m.Damping != 0.002 || m.PhaseFlip != 0.001 {
		t.Errorf("paper defaults = %+v", m)
	}
}

// modelKraus returns the Kraus sets of the channels a uniform model
// binds to a touched qubit, by telemetry label.
func modelKraus(t testing.TB, m Model) map[string][][2][2]complex128 {
	c := circuit.New("one_gate", 1)
	c.H(0)
	plan, err := m.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][][2][2]complex128{}
	if on := plan.At(0); on != nil {
		for i := range on.Post {
			out[Labels[on.Post[i].Label]] = on.Post[i].Kraus()
		}
	}
	return out
}

// TestKrausCompleteness checks Σ K†K = I for every channel — the
// trace-preservation condition.
func TestKrausCompleteness(t *testing.T) {
	models := []Model{
		PaperDefaults(),
		{Depolarizing: 0.3},
		{Damping: 0.7},
		{PhaseFlip: 0.25},
		{Depolarizing: 0.1, Damping: 0.2, PhaseFlip: 0.3},
	}
	for _, m := range models {
		for name, ks := range modelKraus(t, m) {
			var sum [2][2]complex128
			for _, k := range ks {
				// K†K
				for i := 0; i < 2; i++ {
					for j := 0; j < 2; j++ {
						for l := 0; l < 2; l++ {
							sum[i][j] += cmplx.Conj(k[l][i]) * k[l][j]
						}
					}
				}
			}
			if cmplx.Abs(sum[0][0]-1) > 1e-12 || cmplx.Abs(sum[1][1]-1) > 1e-12 ||
				cmplx.Abs(sum[0][1]) > 1e-12 || cmplx.Abs(sum[1][0]) > 1e-12 {
				t.Errorf("%s (model %v): ΣK†K = %v", name, m, sum)
			}
		}
	}
}

func TestKrausCompletenessProperty(t *testing.T) {
	f := func(d, a, p float64) bool {
		m := Model{
			Depolarizing: math.Abs(math.Mod(d, 1)),
			Damping:      math.Abs(math.Mod(a, 1)),
			PhaseFlip:    math.Abs(math.Mod(p, 1)),
		}
		for _, ks := range modelKraus(t, m) {
			var sum [2][2]complex128
			for _, k := range ks {
				for i := 0; i < 2; i++ {
					for j := 0; j < 2; j++ {
						for l := 0; l < 2; l++ {
							sum[i][j] += cmplx.Conj(k[l][i]) * k[l][j]
						}
					}
				}
			}
			if cmplx.Abs(sum[0][0]-1) > 1e-9 || cmplx.Abs(sum[1][1]-1) > 1e-9 ||
				cmplx.Abs(sum[0][1]) > 1e-9 || cmplx.Abs(sum[1][0]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNoiseKeepsStateNormalised: after arbitrarily many stochastic
// error injections the state stays normalised.
func TestNoiseKeepsStateNormalised(t *testing.T) {
	c := circuit.GHZ(4)
	b, err := ddback.New(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	m := Model{Depolarizing: 0.3, Damping: 0.4, PhaseFlip: 0.3}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		m.ApplyAfterGate(b, []int{i % 4}, rng)
		if n2 := b.Norm2(); math.Abs(n2-1) > 1e-9 {
			t.Fatalf("norm drifted to %v after %d error injections", n2, i+1)
		}
	}
}

// TestDampingDrivesToZeroState: repeated strong damping must decay
// every qubit to |0⟩ — the T1 relaxation the paper describes.
func TestDampingDrivesToZeroState(t *testing.T) {
	c := circuit.New("x", 2)
	c.X(0).X(1)
	b, err := ddback.New(c)
	if err != nil {
		t.Fatal(err)
	}
	b.ApplyOp(0)
	b.ApplyOp(1)
	m := Model{Damping: 0.5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m.ApplyAfterGate(b, []int{0, 1}, rng)
	}
	if p := b.Probability(0); math.Abs(p-1) > 1e-9 {
		t.Errorf("after heavy damping P(|00⟩) = %v, want 1", p)
	}
}

// TestDampingFireFrequency: the decay branch must fire with rate
// p·P(q=1); on |1⟩ that is p itself.
func TestDampingFireFrequency(t *testing.T) {
	const pDamp = 0.2
	const trials = 5000
	fires := 0
	rng := rand.New(rand.NewSource(9))
	c := circuit.New("x", 1)
	c.X(0)
	b, err := ddback.New(c)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Damping: pDamp}
	for i := 0; i < trials; i++ {
		b.Reset()
		b.ApplyOp(0)
		m.ApplyAfterGate(b, []int{0}, rng)
		if b.Probability(0) > 0.5 {
			fires++ // qubit found in |0⟩ ⇒ the decay branch fired
		}
	}
	rate := float64(fires) / trials
	if math.Abs(rate-pDamp) > 0.02 {
		t.Errorf("decay rate = %v, want %v±0.02", rate, pDamp)
	}
}

// TestPhaseFlipFrequency: with PhaseFlip = p, a |+⟩ state flips to
// |−⟩ with rate p.
func TestPhaseFlipFrequency(t *testing.T) {
	const pFlip = 0.3
	const trials = 4000
	flips := 0
	rng := rand.New(rand.NewSource(21))
	c := circuit.New("h", 1)
	c.H(0)
	b, err := ddback.New(c)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{PhaseFlip: pFlip}
	for i := 0; i < trials; i++ {
		b.Reset()
		b.ApplyOp(0)
		m.ApplyAfterGate(b, []int{0}, rng)
		// Rotate back: H|+⟩=|0⟩, H|−⟩=|1⟩.
		b.ApplyOp(0)
		if b.Probability(1) > 0.5 {
			flips++
		}
	}
	rate := float64(flips) / trials
	if math.Abs(rate-pFlip) > 0.025 {
		t.Errorf("flip rate = %v, want %v±0.025", rate, pFlip)
	}
}

func TestStringFormat(t *testing.T) {
	s := PaperDefaults().String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestZeroModelIsNoOp(t *testing.T) {
	c := circuit.GHZ(3)
	b, err := ddback.New(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	before := make([]float64, 8)
	for i := range before {
		before[i] = b.Probability(uint64(i))
	}
	rng := rand.New(rand.NewSource(2))
	(Model{}).ApplyAfterGate(b, []int{0, 1, 2}, rng)
	for i := range before {
		if got := b.Probability(uint64(i)); got != before[i] {
			t.Errorf("zero model changed P(%d): %v → %v", i, before[i], got)
		}
	}
}
