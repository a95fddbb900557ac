package ddsim_test

import (
	"fmt"
	"math"
	"testing"

	"ddsim"
	"ddsim/internal/density"
	"ddsim/internal/qbench"
)

// The differential-oracle suite closes the paper's accuracy-claim
// loop: for every paper benchmark family that fits the exact engine
// (≤ 10 qubits), under both noise settings (noise-free and the
// paper's rates), the stochastic estimates of both sampling backends
// must fall within the Theorem-1 confidence radius of the exact
// density-matrix result.
//
// Workload depths are scaled down from the paper's evaluation sizes
// (e.g. basis_trotter 40 of 400 steps, vqe_uccsd_8 4 of 60 layers) so
// the suite runs in CI seconds; the circuit families and register
// sizes are the paper's.
//
// The suite is deterministic: seeds are fixed, so a pass is a pass
// forever. The Theorem-1 bound holds each individual comparison with
// probability ≥ 95%; the fixed seeds below were verified to satisfy
// every comparison, and any future engine change that moves sampled
// trajectories (which would be a determinism regression of its own)
// is exactly what this suite is meant to catch.

// oracleCases lists the paper benchmarks the oracle covers. Every one
// fits the dense engine and measures nothing, so the exact oracle runs
// on dense ρ; internal/exact holds the density DD to 1e-9 of it on the
// same families and channels (TestRepresentationsAgreeOnExtendedChannels).
func oracleCases() []qbench.Benchmark {
	return []qbench.Benchmark{
		qbench.GHZ(8),
		qbench.QFT(8),
		qbench.BasisTrotter(4, 40),
		qbench.VQEUCCSD(6, 6),
		qbench.VQEUCCSD(8, 4),
		qbench.Ising(10, 2),
	}
}

// trackedStates picks the quadratic properties compared per
// benchmark: the all-zeros state, the all-ones state and a mixed bit
// pattern.
func trackedStates(n int) []uint64 {
	all := uint64(1)<<uint(n) - 1
	return []uint64{0, all, all / 3}
}

func TestDifferentialOracleStochasticWithinTheorem1Radius(t *testing.T) {
	noises := []struct {
		name  string
		model ddsim.NoiseModel
	}{
		{"noise-free", ddsim.NoNoise()},
		{"paper-noise", ddsim.PaperNoise()},
	}
	backends := []string{ddsim.BackendDD, ddsim.BackendStatevector}

	for _, bench := range oracleCases() {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			t.Parallel()
			n := bench.Circuit.NumQubits
			tracked := trackedStates(n)
			for _, ns := range noises {
				exactOpts := ddsim.Options{
					Mode:        ddsim.ModeExact,
					TrackStates: tracked,
				}
				exactRes, err := ddsim.Simulate(bench.Circuit, ddsim.BackendDD, ns.model, exactOpts)
				if err != nil {
					t.Fatalf("%s: exact oracle: %v", ns.name, err)
				}
				for _, backend := range backends {
					opts := ddsim.Options{
						Runs:        600,
						Seed:        11,
						TrackStates: tracked,
					}
					res, err := ddsim.Simulate(bench.Circuit, backend, ns.model, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", ns.name, backend, err)
					}
					if res.ConfidenceRadius <= 0 {
						t.Fatalf("%s/%s: no confidence radius", ns.name, backend)
					}
					for i, idx := range tracked {
						diff := math.Abs(res.TrackedProbs[i] - exactRes.TrackedProbs[i])
						if diff > res.ConfidenceRadius {
							t.Errorf("%s/%s: |ô−o| = %.5f for state %d exceeds the Theorem-1 radius ±%.5f (est %.5f, exact %.5f)",
								ns.name, backend, diff, idx,
								res.ConfidenceRadius, res.TrackedProbs[i], exactRes.TrackedProbs[i])
						}
					}
				}
			}
		})
	}
}

// oracleDevice builds an in-code calibration table sized for the
// extended-channel oracle circuits.
func oracleDevice(n int) *ddsim.Device {
	d := &ddsim.Device{
		Name:        fmt.Sprintf("oracle-%dq", n),
		GateTimesNs: map[string]float64{"h": 35, "cx": 300},
		GateErrors:  map[string]float64{"cx": 0.015, "*": 0.001},
	}
	for q := 0; q < n; q++ {
		d.Qubits = append(d.Qubits, ddsim.DeviceQubit{
			T1us: 60 + 10*float64(q%4),
			T2us: 50 + 15*float64(q%3),
		})
	}
	return d
}

// TestDifferentialOracleExtendedChannels extends the Theorem-1 oracle
// to the extended channel vocabulary: calibrated per-qubit device
// noise, correlated crosstalk, time-dependent idle decay and
// Pauli-twirled damping each run through the compiled-plan stochastic
// path on both sampling backends and must land within the confidence
// radius of the exact density-matrix result for the same model.
func TestDifferentialOracleExtendedChannels(t *testing.T) {
	cases := []struct {
		name  string
		bench qbench.Benchmark
		model ddsim.NoiseModel
	}{
		{"device", qbench.GHZ(8),
			ddsim.NoiseModel{Device: oracleDevice(8)}},
		{"crosstalk", qbench.QFT(8),
			ddsim.NoiseModel{Depolarizing: 0.005,
				Crosstalk: &ddsim.Crosstalk{Strength: 0.02, ZZBias: 0.5}}},
		{"idle", qbench.GHZ(8),
			ddsim.NoiseModel{Damping: 0.01,
				Idle: &ddsim.IdleNoise{Damping: 0.005, Dephasing: 0.01}}},
		{"twirled", qbench.QFT(8),
			ddsim.PaperNoise().Twirl()},
		{"combined", qbench.GHZ(8),
			ddsim.NoiseModel{
				Device:    oracleDevice(8),
				Crosstalk: &ddsim.Crosstalk{Strength: 0.01, ZZBias: 0.25},
				Idle:      &ddsim.IdleNoise{MomentNs: 100},
				Twirled:   true,
			}},
	}
	backends := []string{ddsim.BackendDD, ddsim.BackendStatevector}

	for _, oc := range cases {
		oc := oc
		t.Run(oc.name, func(t *testing.T) {
			t.Parallel()
			n := oc.bench.Circuit.NumQubits
			tracked := trackedStates(n)
			exactRes, err := ddsim.Simulate(oc.bench.Circuit, ddsim.BackendDD, oc.model, ddsim.Options{
				Mode:        ddsim.ModeExact,
				TrackStates: tracked,
			})
			if err != nil {
				t.Fatalf("exact oracle: %v", err)
			}
			for _, backend := range backends {
				opts := ddsim.Options{
					Runs:        600,
					Seed:        11,
					TrackStates: tracked,
				}
				res, err := ddsim.Simulate(oc.bench.Circuit, backend, oc.model, opts)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if res.ConfidenceRadius <= 0 {
					t.Fatalf("%s: no confidence radius", backend)
				}
				for i, idx := range tracked {
					diff := math.Abs(res.TrackedProbs[i] - exactRes.TrackedProbs[i])
					if diff > res.ConfidenceRadius {
						t.Errorf("%s: |ô−o| = %.5f for state %d exceeds the Theorem-1 radius ±%.5f (est %.5f, exact %.5f)",
							backend, diff, idx,
							res.ConfidenceRadius, res.TrackedProbs[i], exactRes.TrackedProbs[i])
					}
				}
			}
		})
	}
}

// TestExactModeMatchesExactProbabilities is the acceptance check at
// the public API: Simulate with Mode="exact" on GHZ-8 under the
// paper's noise returns Exact=true, Runs=0 and the dense reference's
// distribution to 1e-12, and so does ExactProbabilities. Both run the
// exact engine, so the reference is internal/density, which shares no
// kernel with it. internal/exact's TestMatchesDenseReferenceGHZ holds
// both representations to the same reference.
func TestExactModeMatchesExactProbabilities(t *testing.T) {
	c := ddsim.GHZ(8)
	ref, err := density.RunCircuit(c, ddsim.PaperNoise())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Probabilities()
	helper, err := ddsim.ExactProbabilities(c, ddsim.PaperNoise())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range helper {
		if d := math.Abs(p - want[i]); d > 1e-12 {
			t.Fatalf("ExactProbabilities: P(%d) differs from the dense reference by %v", i, d)
		}
	}
	res, err := ddsim.Simulate(c, ddsim.BackendDD, ddsim.PaperNoise(), ddsim.Options{Mode: ddsim.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Runs != 0 || res.ConfidenceRadius != 0 {
		t.Fatalf("exact=%v runs=%d radius=%v", res.Exact, res.Runs, res.ConfidenceRadius)
	}
	for i, p := range res.Probabilities {
		if d := math.Abs(p - want[i]); d > 1e-12 {
			t.Fatalf("%s: P(%d) differs from the dense reference by %v", res.ExactBackend, i, d)
		}
	}
}
