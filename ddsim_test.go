package ddsim

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	c := GHZ(8)
	res, err := Simulate(c, BackendDD, PaperNoise(), Options{Runs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 200 {
		t.Errorf("runs = %d", res.Runs)
	}
	// With mild noise most mass stays on the two GHZ outcomes.
	f := res.SampleFraction(0) + res.SampleFraction(1<<8-1)
	if f < 0.8 {
		t.Errorf("GHZ outcome mass = %v, want > 0.8 under paper noise", f)
	}
}

func TestAllBackendsViaFacade(t *testing.T) {
	c := QFT(4)
	for _, b := range Backends() {
		res, err := Simulate(c, b, NoNoise(), Options{Runs: 3, Seed: 2, TrackStates: []uint64{0}})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if math.Abs(res.TrackedProbs[0]-1.0/16) > 1e-9 {
			t.Errorf("%s: ô(|0000⟩) = %v, want 1/16", b, res.TrackedProbs[0])
		}
	}
}

func TestUnknownBackend(t *testing.T) {
	if _, err := Simulate(GHZ(2), "quantum-annealer", NoNoise(), Options{Runs: 1}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := Factory("nope"); err == nil {
		t.Error("unknown factory accepted")
	}
}

func TestQASMFacade(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
`
	c, err := ParseQASM("ghz3", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cx q[1],q[2];") {
		t.Errorf("round-tripped QASM missing gate:\n%s", out)
	}
	res, err := Simulate(c, BackendDD, NoNoise(), Options{Runs: 1, TrackStates: []uint64{0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TrackedProbs[0]-0.5) > 1e-12 || math.Abs(res.TrackedProbs[1]-0.5) > 1e-12 {
		t.Errorf("tracked probs = %v", res.TrackedProbs)
	}
}

func TestExactProbabilitiesFacade(t *testing.T) {
	probs, err := ExactProbabilities(GHZ(3), NoNoise())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0]-0.5) > 1e-12 || math.Abs(probs[7]-0.5) > 1e-12 {
		t.Errorf("probs = %v", probs)
	}
}

func TestStochasticMatchesExactViaFacade(t *testing.T) {
	c := GHZ(4)
	m := NoiseModel{Depolarizing: 0.02, Damping: 0.05, PhaseFlip: 0.02}
	exact, err := ExactProbabilities(c, m)
	if err != nil {
		t.Fatal(err)
	}
	tracked := make([]uint64, 16)
	for i := range tracked {
		tracked[i] = uint64(i)
	}
	res, err := Simulate(c, BackendDD, m, Options{Runs: 4000, Seed: 3, TrackStates: tracked})
	if err != nil {
		t.Fatal(err)
	}
	radius := EstimateAccuracy(4000, 16, 0.01)
	for i := range tracked {
		if math.Abs(res.TrackedProbs[i]-exact[i]) > radius {
			t.Errorf("P(%d): stochastic %v vs exact %v (radius %v)",
				i, res.TrackedProbs[i], exact[i], radius)
		}
	}
}

func TestRequiredRuns(t *testing.T) {
	m, err := RequiredRuns(1000, 0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m < 30000 {
		t.Errorf("M = %d, want ≥ 30000 (paper's setting)", m)
	}
	if _, err := RequiredRuns(0, 0.01, 0.05); err == nil {
		t.Error("invalid property count accepted")
	}
}

// TestBatchSimulateNoiseSweep exercises the public batch API: a noise
// sweep through one shared pool must reproduce standalone Simulate
// results bit-for-bit and show monotonically degrading GHZ mass.
func TestBatchSimulateNoiseSweep(t *testing.T) {
	c := GHZ(6)
	scales := []float64{0, 1, 20}
	jobs := make([]BatchJob, len(scales))
	for i, s := range scales {
		jobs[i] = BatchJob{
			Circuit: c,
			Model: NoiseModel{
				Depolarizing: 0.001 * s, Damping: 0.002 * s, PhaseFlip: 0.001 * s,
			},
			Opts: Options{Runs: 300, Seed: 11, TrackStates: []uint64{0, 63}},
		}
	}
	results, err := BatchSimulate(context.Background(), BackendDD, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		solo, err := Simulate(c, BackendDD, job.Model, job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		for l := range solo.TrackedProbs {
			if results[i].TrackedProbs[l] != solo.TrackedProbs[l] {
				t.Errorf("sweep point %d: batch ô[%d]=%v vs solo %v (not bit-identical)",
					i, l, results[i].TrackedProbs[l], solo.TrackedProbs[l])
			}
		}
	}
	mass := func(r *Result) float64 { return r.TrackedProbs[0] + r.TrackedProbs[1] }
	if !(mass(results[0]) > mass(results[2])) {
		t.Errorf("GHZ mass did not degrade across sweep: %v vs %v",
			mass(results[0]), mass(results[2]))
	}
}

// TestBatchSimulateRefusesMixedModes submits an exact and a
// stochastic job in one batch, either way round: BatchSimulate must
// refuse it with an error before any job runs. A batch of one mode
// still runs.
func TestBatchSimulateRefusesMixedModes(t *testing.T) {
	var ran atomic.Int64
	job := func(mode string) BatchJob {
		return BatchJob{Circuit: GHZ(3), Model: PaperNoise(),
			Opts: Options{Mode: mode, Runs: 64, Seed: 1, OnProgress: func(Progress) { ran.Add(1) }}}
	}
	for _, modes := range [][]string{{ModeExact, ModeStochastic}, {"", ModeExact}, {ModeStochastic, ModeStochastic, ModeExact}} {
		jobs := make([]BatchJob, len(modes))
		for i, m := range modes {
			jobs[i] = job(m)
		}
		results, err := BatchSimulate(context.Background(), BackendDD, jobs, 1)
		if err == nil || results != nil || ran.Load() != 0 {
			t.Fatalf("modes %q: results %v, error %v, %d progress calls; want a refusal before any job runs", modes, results, err, ran.Load())
		}
	}
	for _, mode := range []string{ModeExact, ""} {
		if results, err := BatchSimulate(context.Background(), BackendDD, []BatchJob{job(mode), job(mode)}, 1); err != nil || len(results) != 2 {
			t.Fatalf("batch of two %q jobs: %d results, error %v", mode, len(results), err)
		}
	}
}

// TestSimulateContextAdaptive drives adaptive stopping through the
// facade: runs used must match RequiredRuns and stay below the budget.
func TestSimulateContextAdaptive(t *testing.T) {
	res, err := SimulateContext(context.Background(), GHZ(6), BackendDD, PaperNoise(), Options{
		Runs: 100000, Seed: 2, TrackStates: []uint64{0, 63},
		TargetAccuracy: 0.08, TargetConfidence: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	need, err := RequiredRuns(2, 0.08, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != need {
		t.Errorf("adaptive runs = %d, RequiredRuns = %d", res.Runs, need)
	}
	// δ = 1 − 0.95 differs from the literal 0.05 by one ULP, so the
	// radii agree to float precision, not bitwise.
	if math.Abs(res.ConfidenceRadius-EstimateAccuracy(res.Runs, 2, 0.05)) > 1e-12 {
		t.Errorf("radius %v vs EstimateAccuracy %v",
			res.ConfidenceRadius, EstimateAccuracy(res.Runs, 2, 0.05))
	}
}

func TestNewBackendGateByGate(t *testing.T) {
	c := NewCircuit("bell", 2)
	c.H(0).CX(0, 1)
	b, err := NewBackend(c, BackendDD)
	if err != nil {
		t.Fatal(err)
	}
	b.ApplyOp(0)
	b.ApplyOp(1)
	if p := b.Probability(3); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(|11⟩) = %v", p)
	}
}
