package density

import (
	"math"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
)

func TestInitialState(t *testing.T) {
	s, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0); p != 1 {
		t.Errorf("P(|000⟩) = %v", p)
	}
	if tr := s.Trace(); tr != 1 {
		t.Errorf("trace = %v", tr)
	}
	if pu := s.Purity(); math.Abs(pu-1) > 1e-12 {
		t.Errorf("purity = %v", pu)
	}
}

func TestQubitLimit(t *testing.T) {
	if _, err := New(MaxQubits + 1); err == nil {
		t.Error("oversized register accepted")
	}
	if _, err := New(0); err == nil {
		t.Error("empty register accepted")
	}
}

func TestUnitaryEvolutionGHZ(t *testing.T) {
	s, err := RunCircuit(circuit.GHZ(3), noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(|000⟩) = %v", p)
	}
	if p := s.Probability(7); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(|111⟩) = %v", p)
	}
	if pu := s.Purity(); math.Abs(pu-1) > 1e-12 {
		t.Errorf("pure circuit lost purity: %v", pu)
	}
}

func TestTracePreservedUnderNoise(t *testing.T) {
	m := noise.Model{Depolarizing: 0.05, Damping: 0.1, PhaseFlip: 0.05}
	s, err := RunCircuit(circuit.QFT(4), m)
	if err != nil {
		t.Fatal(err)
	}
	if tr := s.Trace(); math.Abs(real(tr)-1) > 1e-9 || math.Abs(imag(tr)) > 1e-12 {
		t.Errorf("trace = %v", tr)
	}
	if pu := s.Purity(); pu >= 1 {
		t.Errorf("noise should reduce purity, got %v", pu)
	}
}

// TestExample3DepolarizingEnsemble reproduces Example 3: depolarising
// q0 of a Bell state produces the mixture with
// P(|00⟩) = P(|11⟩) = 1/2 − p/4 and P(|01⟩) = P(|10⟩) = p/4.
func TestExample3DepolarizingEnsemble(t *testing.T) {
	const p = 0.4
	bell := circuit.New("bell", 2)
	bell.H(0).CX(0, 1)
	s, err := RunCircuit(bell, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	s.ApplyChannel((&noise.Chan1{Kind: noise.ChanDepolarizing, P: p}).Kraus(), 0)

	probs := s.Probabilities()
	want := []float64{0.5 - p/4, p / 4, p / 4, 0.5 - p/4}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Errorf("P(%02b) = %v, want %v", i, probs[i], want[i])
		}
	}
}

// TestExample6DampingChannel: the exact damping channel on a Bell
// state's first qubit yields P(|01⟩) = p/2 and leaves the rest in the
// reweighted superposition.
func TestExample6DampingChannel(t *testing.T) {
	const p = 0.3
	bell := circuit.New("bell", 2)
	bell.H(0).CX(0, 1)
	s, err := RunCircuit(bell, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	s.ApplyChannel((&noise.Chan1{Kind: noise.ChanDamping, P: p}).Kraus(), 0)

	probs := s.Probabilities()
	if math.Abs(probs[1]-p/2) > 1e-12 {
		t.Errorf("P(|01⟩) = %v, want %v", probs[1], p/2)
	}
	if math.Abs(probs[0]-0.5) > 1e-12 {
		t.Errorf("P(|00⟩) = %v, want 0.5", probs[0])
	}
	if math.Abs(probs[3]-(1-p)/2) > 1e-12 {
		t.Errorf("P(|11⟩) = %v, want %v", probs[3], (1-p)/2)
	}
}

func TestMeasureDecohere(t *testing.T) {
	bell := circuit.New("bell", 2)
	bell.H(0).CX(0, 1)
	s, err := RunCircuit(bell, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	s.MeasureDecohere(0)
	// Off-diagonal coherence between |00⟩ and |11⟩ must vanish…
	if pu := s.Purity(); math.Abs(pu-0.5) > 1e-12 {
		t.Errorf("purity after dephasing = %v, want 0.5", pu)
	}
	// …while the populations stay put.
	if p := s.Probability(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(|00⟩) = %v", p)
	}
}

func TestResetChannel(t *testing.T) {
	c := circuit.New("r", 1)
	c.X(0).Reset(0)
	s, err := RunCircuit(c, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(|0⟩) after reset = %v", p)
	}
}

func TestFidelityWithPure(t *testing.T) {
	s, err := RunCircuit(circuit.GHZ(2), noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	ghz := []complex128{complex(1/math.Sqrt2, 0), 0, 0, complex(1/math.Sqrt2, 0)}
	if f := s.FidelityWithPure(ghz); math.Abs(f-1) > 1e-12 {
		t.Errorf("fidelity = %v", f)
	}
	orth := []complex128{0, 1, 0, 0}
	if f := s.FidelityWithPure(orth); math.Abs(f) > 1e-12 {
		t.Errorf("fidelity with orthogonal state = %v", f)
	}
}

func TestConditionalRejected(t *testing.T) {
	c := circuit.New("cond", 2)
	c.Measure(0, 0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 1,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	if _, err := RunCircuit(c, noise.Model{}); err == nil {
		t.Error("conditioned circuit accepted by exact reference")
	}
}

func TestControlledGateInDensity(t *testing.T) {
	// CX with control on the less significant qubit.
	c := circuit.New("c", 2)
	c.X(1).CGate("x", 1, 0)
	s, err := RunCircuit(c, noise.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Probability(0b11); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(|11⟩) = %v", p)
	}
}
