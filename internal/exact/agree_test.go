package exact

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/stochastic"
)

// The exact engine picks one density-matrix form per circuit, so the
// product path alone would leave each form unchecked wherever the
// other one is picked. These tests force both forms over the same
// inputs and hold them to 1e-9 of each other: the dense form is the
// reference for the diagram above its register limit, and the diagram
// for the dense form's measuring circuits.

// agree runs c under model on both forms and compares the full
// outcome distribution, the classical-register distribution and the
// purity.
func agree(t *testing.T, label string, c *circuit.Circuit, model noise.Model) {
	t.Helper()
	var results [2]*stochastic.Result
	for i, be := range bothBackends {
		res, err := runAs(be, c, model, exactOpts())
		if err != nil {
			t.Fatalf("%s %s: %v", label, be, err)
		}
		if res.ExactBackend != be {
			t.Fatalf("%s: forced %q, ran on %q", label, be, res.ExactBackend)
		}
		results[i] = res
	}
	a, b := results[0], results[1]
	if len(a.Probabilities) != len(b.Probabilities) {
		t.Fatalf("%s: %d vs %d probabilities", label, len(a.Probabilities), len(b.Probabilities))
	}
	for i := range a.Probabilities {
		if d := math.Abs(a.Probabilities[i] - b.Probabilities[i]); d > 1e-9 {
			t.Errorf("%s: P(%d) differs between representations by %v", label, i, d)
		}
	}
	if len(a.ClassicalProbs) != len(b.ClassicalProbs) {
		t.Errorf("%s: classical distributions differ in support: %d vs %d",
			label, len(a.ClassicalProbs), len(b.ClassicalProbs))
	}
	for k, v := range a.ClassicalProbs {
		if d := math.Abs(v - b.ClassicalProbs[k]); d > 1e-9 {
			t.Errorf("%s: P(c=%d) differs between representations by %v", label, k, d)
		}
	}
	if d := math.Abs(a.Purity - b.Purity); d > 1e-9 {
		t.Errorf("%s: purity differs between representations by %v", label, d)
	}
}

// randomDynamicCircuit builds a small random circuit with mid-circuit
// measurements and resets — the territory where the engine's
// outcome-history branching does real work.
func randomDynamicCircuit(n int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("random_dyn_%d", rng.Int63()), n)
	for i := 0; i < 24; i++ {
		q := rng.Intn(n)
		switch rng.Intn(8) {
		case 0:
			c.H(q)
		case 1:
			c.RY(q, rng.Float64()*2)
		case 2:
			c.RZ(q, rng.Float64()*2)
		case 3:
			c.X(q)
		case 4:
			p := rng.Intn(n)
			if p == q {
				p = (p + 1) % n
			}
			c.CX(p, q)
		case 5:
			c.Measure(q, q%2) // at most 2 classical bits → ≤ 4 branches
		case 6:
			c.Reset(q)
		default:
			c.H(q)
		}
	}
	c.MeasureAll()
	return c
}

// TestRepresentationsAgreeOnRandomDynamicCircuits: on random noisy
// circuits with measurements and resets the two forms agree to 1e-9.
func TestRepresentationsAgreeOnRandomDynamicCircuits(t *testing.T) {
	model := noise.Model{Depolarizing: 0.02, Damping: 0.03, PhaseFlip: 0.01, DampingAsEvent: true}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		agree(t, fmt.Sprintf("seed %d", seed), randomDynamicCircuit(n, rng), model)
	}
}

// oracleDevice is an in-code calibration table for n qubits, the one
// the facade's TestDifferentialOracleExtendedChannels uses.
func oracleDevice(n int) *noise.Device {
	d := &noise.Device{
		Name:        fmt.Sprintf("oracle-%dq", n),
		GateTimesNs: map[string]float64{"h": 35, "cx": 300},
		GateErrors:  map[string]float64{"cx": 0.015, "*": 0.001},
	}
	for q := 0; q < n; q++ {
		d.Qubits = append(d.Qubits, noise.DeviceQubit{
			T1us: 60 + 10*float64(q%4),
			T2us: 50 + 15*float64(q%3),
		})
	}
	return d
}

// TestRepresentationsAgreeOnExtendedChannels runs the five models of
// the facade's TestDifferentialOracleExtendedChannels — calibrated
// device noise, crosstalk, idle decay, twirled damping and all of them
// combined — on GHZ-8 and on QFT-8 with the paper-suite input, and
// holds the two forms to 1e-9. The product path takes the dense form
// on all ten, so this is where the diagram's device, crosstalk and
// idle channels stay checked.
func TestRepresentationsAgreeOnExtendedChannels(t *testing.T) {
	if testing.Short() {
		t.Skip("ten DD density-matrix passes at eight qubits take seconds")
	}
	var qftInput uint64 // qbench.QFT(8)'s input: every third qubit set
	for q := 0; q < 8; q += 3 {
		qftInput |= 1 << uint(8-1-q)
	}
	models := []struct {
		name  string
		model noise.Model
	}{
		{"device", noise.Model{Device: oracleDevice(8)}},
		{"crosstalk", noise.Model{Depolarizing: 0.005,
			Crosstalk: &noise.Crosstalk{Strength: 0.02, ZZBias: 0.5}}},
		{"idle", noise.Model{Damping: 0.01,
			Idle: &noise.IdleNoise{Damping: 0.005, Dephasing: 0.01}}},
		{"twirled", noise.PaperDefaults().Twirl()},
		{"combined", noise.Model{
			Device:    oracleDevice(8),
			Crosstalk: &noise.Crosstalk{Strength: 0.01, ZZBias: 0.25},
			Idle:      &noise.IdleNoise{MomentNs: 100},
			Twirled:   true,
		}},
	}
	for _, c := range []*circuit.Circuit{circuit.GHZ(8), circuit.QFTWithInput(8, qftInput)} {
		for _, m := range models {
			t.Run(c.Name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				agree(t, c.Name+"/"+m.name, c, m.model)
			})
		}
	}
}
