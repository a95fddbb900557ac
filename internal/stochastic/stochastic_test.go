package stochastic

import (
	"math"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/density"
	"ddsim/internal/noise"
	"ddsim/internal/obs"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
)

func TestNoiselessGHZ(t *testing.T) {
	res, err := Run(circuit.GHZ(3), ddback.Factory(), noise.Model{}, Options{
		Runs: 200, Seed: 1, TrackStates: []uint64{0, 7, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 200 {
		t.Errorf("runs = %d", res.Runs)
	}
	if math.Abs(res.TrackedProbs[0]-0.5) > 1e-12 {
		t.Errorf("ô(|000⟩) = %v", res.TrackedProbs[0])
	}
	if math.Abs(res.TrackedProbs[1]-0.5) > 1e-12 {
		t.Errorf("ô(|111⟩) = %v", res.TrackedProbs[1])
	}
	if res.TrackedProbs[2] != 0 {
		t.Errorf("ô(|011⟩) = %v", res.TrackedProbs[2])
	}
	// Sampled outcomes can only be |000⟩ or |111⟩.
	for k := range res.Counts {
		if k != 0 && k != 7 {
			t.Errorf("impossible outcome %03b sampled", k)
		}
	}
}

func TestDeterministicSeed(t *testing.T) {
	opts := Options{Runs: 300, Seed: 42, Workers: 4, TrackStates: []uint64{0}}
	m := noise.PaperDefaults()
	r1, err := Run(circuit.GHZ(4), ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1 // different parallelism, same seeds per run index
	r2, err := Run(circuit.GHZ(4), ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TrackedProbs[0] != r2.TrackedProbs[0] {
		t.Errorf("seeded estimates differ across worker counts: %v vs %v",
			r1.TrackedProbs[0], r2.TrackedProbs[0])
	}
	if len(r1.Counts) != len(r2.Counts) {
		t.Errorf("outcome histograms differ: %v vs %v", r1.Counts, r2.Counts)
	}
	for k, v := range r1.Counts {
		if r2.Counts[k] != v {
			t.Errorf("count[%d] = %d vs %d", k, v, r2.Counts[k])
		}
	}
}

// TestConvergenceToExactDensity is the core scientific validation:
// Monte-Carlo estimates over M runs must converge to the exact
// channel evolution computed by the density-matrix reference, within
// the Theorem 1 radius.
func TestConvergenceToExactDensity(t *testing.T) {
	m := noise.Model{Depolarizing: 0.05, Damping: 0.08, PhaseFlip: 0.05}
	circs := []*circuit.Circuit{
		circuit.GHZ(3),
		circuit.QFTWithInput(3, 0b101),
	}
	const runs = 6000
	for _, c := range circs {
		exact, err := density.RunCircuit(c, m)
		if err != nil {
			t.Fatal(err)
		}
		tracked := make([]uint64, 1<<uint(c.NumQubits))
		for i := range tracked {
			tracked[i] = uint64(i)
		}
		res, err := Run(c, ddback.Factory(), m, Options{
			Runs: runs, Seed: 7, TrackStates: tracked,
		})
		if err != nil {
			t.Fatal(err)
		}
		radius := obs.ConfidenceRadius(runs, len(tracked), 0.01)
		for i, idx := range tracked {
			want := exact.Probability(idx)
			got := res.TrackedProbs[i]
			if math.Abs(got-want) > radius {
				t.Errorf("%s: ô(%d) = %v, exact %v (|Δ| = %v > radius %v)",
					c.Name, idx, got, want, math.Abs(got-want), radius)
			}
		}
	}
}

// TestEventDampingConvergesToExactDensity validates the Section III
// event semantics of the T1 error against its exact Kraus channel
// (K = {√(1−p)I, √p|0⟩⟨1|, √p|0⟩⟨0|}) — the same ground-truth check
// as the exact-channel mode.
func TestEventDampingConvergesToExactDensity(t *testing.T) {
	m := noise.Model{Depolarizing: 0.03, Damping: 0.15, PhaseFlip: 0.03, DampingAsEvent: true}
	c := circuit.GHZ(3)
	exact, err := density.RunCircuit(c, m)
	if err != nil {
		t.Fatal(err)
	}
	tracked := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	const runs = 8000
	res, err := Run(c, ddback.Factory(), m, Options{Runs: runs, Seed: 17, TrackStates: tracked})
	if err != nil {
		t.Fatal(err)
	}
	radius := obs.ConfidenceRadius(runs, len(tracked), 0.01)
	for i, idx := range tracked {
		want := exact.Probability(idx)
		if math.Abs(res.TrackedProbs[i]-want) > radius {
			t.Errorf("event damping: ô(%d) = %v, exact %v (radius %v)",
				idx, res.TrackedProbs[i], want, radius)
		}
	}
}

// TestFidelityTracking: the mean fidelity with the noise-free output
// must (a) be 1 without noise, (b) degrade with noise strength,
// (c) match the exact density-matrix fidelity within the Monte-Carlo
// radius, and (d) agree between the DD and statevec backends.
func TestFidelityTracking(t *testing.T) {
	c := circuit.GHZ(4)

	clean, err := Run(c, ddback.Factory(), noise.Model{}, Options{
		Runs: 20, Seed: 1, TrackFidelity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(clean.MeanFidelity-1) > 1e-9 {
		t.Errorf("noise-free fidelity = %v", clean.MeanFidelity)
	}

	m := noise.Model{Depolarizing: 0.02, Damping: 0.03, PhaseFlip: 0.02}
	const runs = 4000
	noisy, err := Run(c, ddback.Factory(), m, Options{
		Runs: runs, Seed: 2, TrackFidelity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.MeanFidelity >= 1 || noisy.MeanFidelity < 0.5 {
		t.Errorf("noisy fidelity = %v, want in [0.5, 1)", noisy.MeanFidelity)
	}

	// Exact value: E|⟨ref|ψ̃⟩|² = ⟨ref|ρ|ref⟩.
	exact, err := density.RunCircuit(c, m)
	if err != nil {
		t.Fatal(err)
	}
	refState := make([]complex128, 16)
	refState[0] = complex(1/math.Sqrt2, 0)
	refState[15] = complex(1/math.Sqrt2, 0)
	want := exact.FidelityWithPure(refState)
	radius := obs.ConfidenceRadius(runs, 1, 0.01)
	if math.Abs(noisy.MeanFidelity-want) > radius {
		t.Errorf("fidelity estimate %v vs exact %v (radius %v)", noisy.MeanFidelity, want, radius)
	}

	sv, err := Run(c, statevec.Factory(), m, Options{
		Runs: 400, Seed: 2, TrackFidelity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ddRes, err := Run(c, ddback.Factory(), m, Options{
		Runs: 400, Seed: 2, TrackFidelity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sv.MeanFidelity-ddRes.MeanFidelity) > 1e-9 {
		t.Errorf("fidelity differs across backends: %v vs %v", sv.MeanFidelity, ddRes.MeanFidelity)
	}
}

func TestFidelityTrackingUnsupportedBackend(t *testing.T) {
	_, err := Run(circuit.GHZ(3), sparsemat.Factory(), noise.Model{}, Options{
		Runs: 2, TrackFidelity: true,
	})
	if err == nil {
		t.Error("sparse backend should reject fidelity tracking")
	}
}

// TestBackendsGiveSameTrajectories: with identical seeds, the DD and
// state-vector backends must produce identical stochastic estimates —
// the noise model is backend-independent.
func TestBackendsGiveSameTrajectories(t *testing.T) {
	m := noise.Model{Depolarizing: 0.02, Damping: 0.03, PhaseFlip: 0.02}
	opts := Options{Runs: 400, Seed: 11, TrackStates: []uint64{0, 1, 2, 3}}
	c := circuit.QFTWithInput(2, 0b10)

	rd, err := Run(c, ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(c, statevec.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rd.TrackedProbs {
		if math.Abs(rd.TrackedProbs[i]-rs.TrackedProbs[i]) > 1e-9 {
			t.Errorf("estimate %d: dd=%v statevec=%v", i, rd.TrackedProbs[i], rs.TrackedProbs[i])
		}
	}
}

func TestMeasurementsPopulateClassicalCounts(t *testing.T) {
	c := circuit.GHZ(3).MeasureAll()
	res, err := Run(c, ddback.Factory(), noise.Model{}, Options{Runs: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClassicalCounts) == 0 {
		t.Fatal("no classical counts recorded")
	}
	total := 0
	for k, v := range res.ClassicalCounts {
		if k != 0 && k != 7 {
			t.Errorf("impossible classical outcome %03b", k)
		}
		total += v
	}
	if total != 500 {
		t.Errorf("classical counts total %d, want 500", total)
	}
	frac := float64(res.ClassicalCounts[0]) / 500
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("P(000) ≈ %v, want 0.5±0.1", frac)
	}
}

func TestConditionalGate(t *testing.T) {
	// Measure q0 of |1⟩ into c0; apply X to q1 iff c0 == 1 → |11⟩.
	c := circuit.New("teleport-ish", 2)
	c.X(0)
	c.Measure(0, 0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 1,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	res, err := Run(c, ddback.Factory(), noise.Model{}, Options{
		Runs: 50, Seed: 2, TrackStates: []uint64{0b11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TrackedProbs[0]-1) > 1e-12 {
		t.Errorf("conditional X not applied: ô(|11⟩) = %v", res.TrackedProbs[0])
	}
}

func TestConditionalGateNotTaken(t *testing.T) {
	c := circuit.New("cond0", 2)
	c.Measure(0, 0) // q0 is |0⟩ → c0 = 0
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 1,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	res, err := Run(c, ddback.Factory(), noise.Model{}, Options{
		Runs: 20, Seed: 2, TrackStates: []uint64{0b00},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TrackedProbs[0]-1) > 1e-12 {
		t.Errorf("conditional X wrongly applied: ô(|00⟩) = %v", res.TrackedProbs[0])
	}
}

func TestReset(t *testing.T) {
	c := circuit.New("reset", 1)
	c.H(0)
	c.Reset(0)
	res, err := Run(c, ddback.Factory(), noise.Model{}, Options{
		Runs: 200, Seed: 3, TrackStates: []uint64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TrackedProbs[0]-1) > 1e-12 {
		t.Errorf("reset did not restore |0⟩: %v", res.TrackedProbs[0])
	}
}

func TestTimeout(t *testing.T) {
	// A generous circuit with an absurdly small budget must time out
	// but still report the completed runs.
	c := circuit.QFT(10)
	res, err := Run(c, ddback.Factory(), noise.PaperDefaults(), Options{
		Runs: 1000000, Seed: 1, Timeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("expected TimedOut")
	}
	if res.Runs <= 0 || res.Runs >= 1000000 {
		t.Errorf("runs = %d", res.Runs)
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	big := circuit.GHZ(statevec.MaxQubits + 1)
	_, err := Run(big, statevec.Factory(), noise.Model{}, Options{Runs: 10})
	if err == nil {
		t.Error("factory error swallowed")
	}
}

func TestInvalidNoiseRejected(t *testing.T) {
	_, err := Run(circuit.GHZ(2), ddback.Factory(), noise.Model{Damping: 2}, Options{Runs: 1})
	if err == nil {
		t.Error("invalid noise model accepted")
	}
}

func TestShots(t *testing.T) {
	res, err := Run(circuit.GHZ(2), ddback.Factory(), noise.Model{}, Options{
		Runs: 100, Shots: 5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range res.Counts {
		total += v
	}
	if total != 500 {
		t.Errorf("total samples = %d, want 500", total)
	}
	if f := res.SampleFraction(0); math.Abs(f-0.5) > 0.15 {
		t.Errorf("sample fraction of |00⟩ = %v", f)
	}
}

func TestDescribe(t *testing.T) {
	res, err := Run(circuit.GHZ(2), ddback.Factory(), noise.Model{}, Options{Runs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if s := Describe(res); s == "" {
		t.Error("empty description")
	}
}

// TestConcurrencySpeedup is a smoke check of Section IV-C: more
// workers must not be slower (allowing generous noise margins on CI
// machines, we only assert it completes and uses the workers).
func TestWorkerCountRespected(t *testing.T) {
	res, err := Run(circuit.GHZ(8), ddback.Factory(), noise.PaperDefaults(), Options{
		Runs: 64, Workers: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Errorf("workers = %d", res.Workers)
	}
}

func TestWorkersCappedByRuns(t *testing.T) {
	res, err := Run(circuit.GHZ(2), ddback.Factory(), noise.Model{}, Options{
		Runs: 2, Workers: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("workers = %d, want capped to 2", res.Workers)
	}
}
