package density

import (
	"math"
	"math/cmplx"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
)

// prepare runs a small circuit on a fresh simulator.
func prepare(t *testing.T, c *circuit.Circuit, m noise.Model) *Simulator {
	t.Helper()
	s, err := RunCircuit(c, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResetTracePreservingAndZeroes(t *testing.T) {
	c := circuit.New("pre", 2)
	c.H(0).CX(0, 1)
	s := prepare(t, c, noise.Model{Damping: 0.1})
	s.Reset(1)
	if tr := real(s.Trace()); math.Abs(tr-1) > 1e-12 {
		t.Errorf("trace after reset = %v, want 1", tr)
	}
	// Qubit 1 is the low bit: |01⟩ and |11⟩ hold its 1 outcome.
	if p := s.Probability(1) + s.Probability(3); p > 1e-12 {
		t.Errorf("reset qubit still has P(1) = %v", p)
	}
	// Resetting an entangled qubit leaves the partner mixed.
	if pu := s.Purity(); pu > 0.99 {
		t.Errorf("reset of an entangled qubit should leave a mixture, purity = %v", pu)
	}
}

func TestMixReassemblesDecoherence(t *testing.T) {
	// Both outcome branches of measuring q0, P0ρP0 and P1ρP1, mixed
	// back together must equal the measurement-decoherence channel.
	c := circuit.New("probe", 3)
	c.H(0).CX(0, 1).RY(2, 0.9)
	s := prepare(t, c, noise.Model{Depolarizing: 0.02, Damping: 0.03, PhaseFlip: 0.01})
	rho := cloneMatrix(s.rho)
	s.MeasureDecohere(0)
	bit := s.bitOf(0)
	for i := range rho {
		for j := range rho[i] {
			want := rho[i][j]
			if i>>bit&1 != j>>bit&1 { // the two branches share no entry here
				want = 0
			}
			if d := cmplx.Abs(s.rho[i][j] - want); d > 1e-12 {
				t.Errorf("ρ[%d][%d]: decoherence differs from the branch mixture by %v", i, j, d)
			}
		}
	}
}
