package sim_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
	"ddsim/internal/stochastic"
)

// factories lists every backend implementation; all cross-checks run
// over this table so the three engines stay interchangeable.
func factories() map[string]sim.Factory {
	return map[string]sim.Factory{
		"dd":       ddback.Factory(),
		"statevec": statevec.Factory(),
		"sparse":   sparsemat.Factory(),
	}
}

// runAll applies every gate op of the circuit on a fresh backend.
func runAll(t *testing.T, f sim.Factory, c *circuit.Circuit) sim.Backend {
	t.Helper()
	b, err := f(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindGate {
			b.ApplyOp(i)
		}
	}
	return b
}

func TestBackendsAgreeOnGHZ(t *testing.T) {
	c := circuit.GHZ(6)
	for name, f := range factories() {
		b := runAll(t, f, c)
		if p := b.Probability(0); math.Abs(p-0.5) > 1e-9 {
			t.Errorf("%s: P(|0…0⟩) = %v, want 0.5", name, p)
		}
		if p := b.Probability(63); math.Abs(p-0.5) > 1e-9 {
			t.Errorf("%s: P(|1…1⟩) = %v, want 0.5", name, p)
		}
		if n2 := b.Norm2(); math.Abs(n2-1) > 1e-9 {
			t.Errorf("%s: norm² = %v", name, n2)
		}
	}
}

// randomCircuit builds a random circuit over the full gate alphabet.
func randomCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("random", n)
	singles := []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"}
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		switch rng.Intn(5) {
		case 0: // parameterised single-qubit gate
			which := []string{"rx", "ry", "rz", "p"}[rng.Intn(4)]
			c.Gate(which, q, rng.Float64()*2*math.Pi)
		case 1: // controlled gate
			ctl := rng.Intn(n)
			if ctl == q {
				ctl = (ctl + 1) % n
			}
			c.CGate("x", ctl, q)
		case 2: // controlled phase
			ctl := rng.Intn(n)
			if ctl == q {
				ctl = (ctl + 1) % n
			}
			c.CGate("p", ctl, q, rng.Float64()*math.Pi)
		case 3: // Toffoli
			if n >= 3 {
				qs := rng.Perm(n)
				c.CCX(qs[0], qs[1], qs[2])
			}
		default:
			c.Gate(singles[rng.Intn(len(singles))], q)
		}
	}
	return c
}

func TestBackendsAgreeOnRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := randomCircuit(5, 60, seed)
		dd := runAll(t, factories()["dd"], c).(*ddback.Backend)
		sv := runAll(t, factories()["statevec"], c).(*statevec.Backend)
		sp := runAll(t, factories()["sparse"], c).(*sparsemat.Backend)

		svAmps := sv.Amplitudes()
		spAmps := sp.Amplitudes()
		ddAmps := dd.Package().ToVector(dd.State())
		for i := range svAmps {
			if cmplx.Abs(svAmps[i]-ddAmps[i]) > 1e-9 {
				t.Fatalf("seed %d: dd vs statevec amplitude %d: %v vs %v", seed, i, ddAmps[i], svAmps[i])
			}
			if cmplx.Abs(svAmps[i]-spAmps[i]) > 1e-9 {
				t.Fatalf("seed %d: sparse vs statevec amplitude %d: %v vs %v", seed, i, spAmps[i], svAmps[i])
			}
		}
	}
}

// randomDynamicCircuit builds a random circuit over the full operation
// alphabet, including the non-unitary kinds — measurements, resets,
// classically conditioned gates and barriers — that runAll cannot
// exercise. The stochastic driver owns their semantics, so these
// circuits cross-check the full trajectory path across backends.
func randomDynamicCircuit(n, ops int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("dynamic", n)
	singles := []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"}
	for i := 0; i < ops; i++ {
		q := rng.Intn(n)
		switch rng.Intn(9) {
		case 0: // parameterised single-qubit gate
			which := []string{"rx", "ry", "rz", "p"}[rng.Intn(4)]
			c.Gate(which, q, rng.Float64()*2*math.Pi)
		case 1: // controlled gate
			ctl := rng.Intn(n)
			if ctl == q {
				ctl = (ctl + 1) % n
			}
			c.CGate("x", ctl, q)
		case 2: // Toffoli
			if n >= 3 {
				qs := rng.Perm(n)
				c.CCX(qs[0], qs[1], qs[2])
			}
		case 3: // mid-circuit measurement
			c.Measure(q, q)
		case 4: // reset
			c.Reset(q)
		case 5: // classically conditioned gate
			bit := rng.Intn(n)
			c.Append(circuit.Op{Kind: circuit.KindGate, Name: singles[rng.Intn(len(singles))], Target: q,
				Cond: &circuit.Condition{Bits: []int{bit}, Value: uint64(rng.Intn(2))}})
		case 6: // barrier
			c.Barrier()
		default:
			c.Gate(singles[rng.Intn(len(singles))], q)
		}
	}
	return c
}

// TestBackendsAgreeOnDynamicCircuits runs seeded random circuits with
// every operation kind (conditionals, resets, measurements) through
// the full noisy trajectory driver on all three backends: identical
// seeds must give identical measurement histograms and property
// estimates agreeing to float precision.
func TestBackendsAgreeOnDynamicCircuits(t *testing.T) {
	m := noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}
	for seed := int64(0); seed < 4; seed++ {
		c := randomDynamicCircuit(4, 40, seed)
		tracked := make([]uint64, 16)
		for i := range tracked {
			tracked[i] = uint64(i)
		}
		opts := stochastic.Options{Runs: 300, Seed: seed*101 + 7, TrackStates: tracked}
		var ref *stochastic.Result
		var refName string
		for name, f := range factories() {
			res, err := stochastic.Run(c, f, m, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if ref == nil {
				ref, refName = res, name
				continue
			}
			for i := range tracked {
				if math.Abs(res.TrackedProbs[i]-ref.TrackedProbs[i]) > 1e-9 {
					t.Errorf("seed %d: ô(%d) %s=%v vs %s=%v", seed, i,
						name, res.TrackedProbs[i], refName, ref.TrackedProbs[i])
				}
			}
			// SampleBasis may consume a backend-specific number of RNG
			// draws, so sampled histograms agree statistically, not
			// bitwise (unlike the classical register, which the driver
			// samples identically on every backend). Compare over the
			// union of keys so spurious outcomes are caught too.
			keys := map[uint64]bool{}
			for k := range ref.Counts {
				keys[k] = true
			}
			for k := range res.Counts {
				keys[k] = true
			}
			for k := range keys {
				d := float64(res.Counts[k]-ref.Counts[k]) / float64(ref.Runs)
				if math.Abs(d) > 0.05 {
					t.Errorf("seed %d: counts[%d] %s=%d vs %s=%d (Δ=%.3f)", seed, k,
						name, res.Counts[k], refName, ref.Counts[k], d)
				}
			}
			for k, v := range ref.ClassicalCounts {
				if res.ClassicalCounts[k] != v {
					t.Errorf("seed %d: classical[%d] %s=%d vs %s=%d", seed, k,
						name, res.ClassicalCounts[k], refName, v)
				}
			}
		}
	}
}

// noiseFree runs one noise-free pass of a dynamic circuit on a fresh
// backend: gates through ApplyOp, measurements and resets through
// ProbOne and Collapse with outcomes drawn from an rng of the given
// seed, and classical conditions against the measured bits. Backends
// that agree on ProbOne draw the same outcomes.
func noiseFree(t *testing.T, f sim.Factory, c *circuit.Circuit, seed int64) sim.Backend {
	t.Helper()
	b, err := f(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var clbits uint64
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Cond != nil && !op.Cond.Holds(clbits) {
			continue
		}
		switch op.Kind {
		case circuit.KindGate:
			b.ApplyOp(i)
		case circuit.KindMeasure, circuit.KindReset:
			p1 := b.ProbOne(op.Target)
			outcome, prob := 0, 1-p1
			if rng.Float64() < p1 {
				outcome, prob = 1, p1
			}
			b.Collapse(op.Target, outcome, prob)
			switch {
			case op.Kind == circuit.KindReset && outcome == 1:
				b.ApplyPauli(sim.PauliX, op.Target)
			case op.Kind == circuit.KindMeasure:
				clbits = clbits&^(1<<uint(op.Cbit)) | uint64(outcome)<<uint(op.Cbit)
			}
		}
	}
	return b
}

// TestDynamicCircuitStatesAgree drives one noise-free pass of a
// dynamic circuit per backend (same seed, so the same measurement
// outcomes) and checks Probability, ProbOne and SampleBasis histograms
// agree within tolerance.
func TestDynamicCircuitStatesAgree(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		c := randomDynamicCircuit(5, 35, seed+100)
		dim := uint64(1) << 5
		backs := map[string]sim.Backend{}
		for name, f := range factories() {
			backs[name] = noiseFree(t, f, c, 12345)
		}
		ref := backs["statevec"]
		for name, b := range backs {
			for i := uint64(0); i < dim; i++ {
				if got, want := b.Probability(i), ref.Probability(i); math.Abs(got-want) > 1e-9 {
					t.Fatalf("seed %d %s: P(%d) = %v, statevec %v", seed, name, i, got, want)
				}
			}
			for q := 0; q < 5; q++ {
				if got, want := b.ProbOne(q), ref.ProbOne(q); math.Abs(got-want) > 1e-9 {
					t.Errorf("seed %d %s: ProbOne(%d) = %v, statevec %v", seed, name, q, got, want)
				}
			}
			rng := rand.New(rand.NewSource(77))
			const trials = 20000
			counts := make([]int, dim)
			for i := 0; i < trials; i++ {
				counts[b.SampleBasis(rng)]++
			}
			for i := uint64(0); i < dim; i++ {
				got := float64(counts[i]) / trials
				if want := ref.Probability(i); math.Abs(got-want) > 0.02 {
					t.Errorf("seed %d %s: sampled fraction of %d = %v, probability %v",
						seed, name, i, got, want)
				}
			}
		}
	}
}

func TestBackendsAgreeOnQFT(t *testing.T) {
	c := circuit.QFTWithInput(5, 0b10110)
	want := runAll(t, factories()["statevec"], c).(*statevec.Backend).Amplitudes()
	for name, f := range factories() {
		b := runAll(t, f, c)
		for i := range want {
			p := real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
			if math.Abs(b.Probability(uint64(i))-p) > 1e-9 {
				t.Fatalf("%s: P(%d) = %v, want %v", name, i, b.Probability(uint64(i)), p)
			}
		}
	}
}

func TestProbOneAgreement(t *testing.T) {
	c := randomCircuit(4, 40, 77)
	backs := map[string]sim.Backend{}
	for name, f := range factories() {
		backs[name] = runAll(t, f, c)
	}
	ref := backs["statevec"]
	for q := 0; q < 4; q++ {
		want := ref.ProbOne(q)
		for name, b := range backs {
			if got := b.ProbOne(q); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: ProbOne(%d) = %v, want %v", name, q, got, want)
			}
		}
	}
}

func TestPauliAgreement(t *testing.T) {
	c := randomCircuit(4, 30, 5)
	for _, pauli := range []sim.Pauli{sim.PauliX, sim.PauliY, sim.PauliZ, sim.PauliI} {
		var ref []float64
		for _, name := range []string{"statevec", "dd", "sparse"} {
			b := runAll(t, factories()[name], c)
			b.ApplyPauli(pauli, 2)
			probs := make([]float64, 16)
			for i := range probs {
				probs[i] = b.Probability(uint64(i))
			}
			if ref == nil {
				ref = probs
				continue
			}
			for i := range probs {
				if math.Abs(probs[i]-ref[i]) > 1e-9 {
					t.Fatalf("%s: %v on q2 probability %d = %v, want %v", name, pauli, i, probs[i], ref[i])
				}
			}
		}
	}
}

func TestCollapseAgreement(t *testing.T) {
	c := circuit.GHZ(4)
	for name, f := range factories() {
		b := runAll(t, f, c)
		p1 := b.ProbOne(2)
		b.Collapse(2, 1, p1)
		// GHZ collapse on outcome 1 → |1111⟩.
		if got := b.Probability(15); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: collapsed GHZ P(|1111⟩) = %v", name, got)
		}
		if n2 := b.Norm2(); math.Abs(n2-1) > 1e-9 {
			t.Errorf("%s: norm after collapse = %v", name, n2)
		}
	}
}

func TestDampingAgreement(t *testing.T) {
	const p = 0.25
	c := circuit.GHZ(3)
	for name, f := range factories() {
		b := runAll(t, f, c)
		p1 := b.ProbOne(0)
		pFire := p * p1
		b.ApplyDamping(0, p, true, pFire)
		// Decay branch of GHZ: q0 decayed 1→0, others still 1: |011⟩.
		if got := b.Probability(0b011); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: damping-fire branch P(|011⟩) = %v", name, got)
		}
		if n2 := b.Norm2(); math.Abs(n2-1) > 1e-9 {
			t.Errorf("%s: norm = %v", name, n2)
		}
	}
}

func TestDampingNoFireBranchAgreement(t *testing.T) {
	const p = 0.25
	for name, f := range factories() {
		b := runAll(t, f, circuit.GHZ(3))
		p1 := b.ProbOne(0)
		pFire := p * p1
		b.ApplyDamping(0, p, false, 1-pFire)
		// A1 branch: amplitudes reweighted towards |000⟩ (Fig. 1c).
		w0 := 1 / (2 - p)
		w1 := (1 - p) / (2 - p)
		if got := b.Probability(0); math.Abs(got-w0) > 1e-9 {
			t.Errorf("%s: P(|000⟩) = %v, want %v", name, got, w0)
		}
		if got := b.Probability(7); math.Abs(got-w1) > 1e-9 {
			t.Errorf("%s: P(|111⟩) = %v, want %v", name, got, w1)
		}
	}
}

func TestSampleBasisAgreesWithProbabilities(t *testing.T) {
	c := randomCircuit(3, 25, 13)
	for name, f := range factories() {
		b := runAll(t, f, c)
		rng := rand.New(rand.NewSource(1))
		counts := make([]int, 8)
		const trials = 40000
		for i := 0; i < trials; i++ {
			counts[b.SampleBasis(rng)]++
		}
		for i := range counts {
			want := b.Probability(uint64(i))
			got := float64(counts[i]) / trials
			if math.Abs(got-want) > 0.02 {
				t.Errorf("%s: sampled fraction of %d = %v, probability %v", name, i, got, want)
			}
		}
	}
}

func TestResetRestoresZeroState(t *testing.T) {
	c := circuit.GHZ(4)
	for name, f := range factories() {
		b := runAll(t, f, c)
		b.Reset()
		if got := b.Probability(0); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: after Reset P(|0…0⟩) = %v", name, got)
		}
	}
}

func TestBackendNames(t *testing.T) {
	c := circuit.GHZ(2)
	want := map[string]bool{"dd": true, "statevec": true, "sparse": true}
	for name, f := range factories() {
		b, err := f(c)
		if err != nil {
			t.Fatal(err)
		}
		if !want[b.Name()] || b.Name() != name {
			t.Errorf("backend name %q under key %q", b.Name(), name)
		}
		if b.NumQubits() != 2 {
			t.Errorf("%s: NumQubits = %d", name, b.NumQubits())
		}
	}
}

func TestQubitLimits(t *testing.T) {
	big := circuit.GHZ(40)
	if _, err := statevec.New(big); err == nil {
		t.Error("statevec accepted 40 qubits")
	}
	if _, err := sparsemat.New(big); err == nil {
		t.Error("sparsemat accepted 40 qubits")
	}
	if _, err := ddback.New(big); err != nil {
		t.Errorf("dd backend rejected 40 qubits: %v", err)
	}
}

func TestInvalidCircuitRejected(t *testing.T) {
	bad := circuit.New("bad", 2)
	bad.Gate("h", 9)
	for name, f := range factories() {
		if _, err := f(bad); err == nil {
			t.Errorf("%s accepted an invalid circuit", name)
		}
	}
	unknown := circuit.New("unknown", 2)
	unknown.Gate("frobnicate", 0)
	for name, f := range factories() {
		if _, err := f(unknown); err == nil {
			t.Errorf("%s accepted an unknown gate", name)
		}
	}
}
