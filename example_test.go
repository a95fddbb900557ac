package ddsim_test

import (
	"context"
	"fmt"
	"reflect"

	"ddsim"
	"ddsim/internal/telemetry"
)

// ExampleSimulate estimates outcome probabilities of a GHZ state with
// the decision-diagram backend. Tracked probabilities are quadratic
// properties: for a noise-free GHZ state every trajectory contributes
// exactly 1/2 for |00…0⟩ and |11…1⟩, so the estimates are exact.
func ExampleSimulate() {
	c := ddsim.GHZ(3)
	res, err := ddsim.Simulate(c, ddsim.BackendDD, ddsim.NoNoise(), ddsim.Options{
		Runs:        100,
		Seed:        1,
		TrackStates: []uint64{0, 7}, // |000⟩ and |111⟩
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("P(|000⟩) = %.2f\n", res.TrackedProbs[0])
	fmt.Printf("P(|111⟩) = %.2f\n", res.TrackedProbs[1])
	// Output:
	// P(|000⟩) = 0.50
	// P(|111⟩) = 0.50
}

// ExampleSimulateContext cancels a large Monte-Carlo job mid-flight:
// the engine stops issuing trajectories and aggregates the runs that
// did complete into a partial Result with Interrupted set.
func ExampleSimulateContext() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := ddsim.Options{
		Runs:          1_000_000, // far more than we let finish
		Seed:          1,
		ChunkSize:     16,
		ProgressEvery: 1,
		OnProgress: func(p ddsim.Progress) {
			cancel() // cancel as soon as the first snapshot arrives
		},
	}
	res, err := ddsim.SimulateContext(ctx, ddsim.GHZ(8), ddsim.BackendDD, ddsim.PaperNoise(), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("interrupted:", res.Interrupted)
	fmt.Println("some runs completed:", res.Runs > 0 && res.Runs < res.TargetRuns)
	// Output:
	// interrupted: true
	// some runs completed: true
}

// ExampleBatchSimulate sweeps one circuit over several noise
// amplitudes through a single shared worker pool. Every point is
// bit-identical to a standalone Simulate call with the same seed.
func ExampleBatchSimulate() {
	c := ddsim.GHZ(4)
	scales := []float64{0, 1, 10}
	jobs := make([]ddsim.BatchJob, len(scales))
	for i, s := range scales {
		jobs[i] = ddsim.BatchJob{
			Circuit: c,
			Model:   ddsim.PaperNoise().Scale(s),
			Opts:    ddsim.Options{Runs: 200, Seed: 7, TrackStates: []uint64{0}},
		}
	}
	results, err := ddsim.BatchSimulate(context.Background(), ddsim.BackendDD, jobs, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, r := range results {
		fmt.Printf("scale %-2g: %d runs\n", scales[i], r.Runs)
	}
	fmt.Printf("noise-free P(|0000⟩) = %.2f\n", results[0].TrackedProbs[0])
	// Output:
	// scale 0 : 200 runs
	// scale 1 : 200 runs
	// scale 10: 200 runs
	// noise-free P(|0000⟩) = 0.50
}

// ExampleResult_checkpointed shows trajectory forking. Every gate of
// this circuit precedes its measurements, so on a perfect (noise-free)
// device the whole gate sequence is a deterministic prefix: a backend
// that can fork (dd, statevec) simulates it once per worker and forks
// all trajectories from it, while the sparse backend replays it for
// every trajectory. The histograms agree bit for bit; only the work
// differs, as Result.Checkpointed and the gate-application telemetry
// (also exported as ddsim_gate_applications_total) show.
func ExampleResult_checkpointed() {
	c := ddsim.NewCircuit("checkpoint_demo", 8)
	c.H(0)
	for q := 1; q < 8; q++ {
		c.CX(q-1, q)
	}
	c.MeasureAll()

	opts := ddsim.Options{Runs: 400, Seed: 3, Workers: 1}
	var results []*ddsim.Result
	for _, backend := range []string{ddsim.BackendDD, ddsim.BackendSparse} {
		before := telemetry.GateApplications.Value()
		res, err := ddsim.Simulate(c, backend, ddsim.NoNoise(), opts)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-6s checkpointed=%v gate applications=%d\n",
			backend, res.Checkpointed, telemetry.GateApplications.Value()-before)
		results = append(results, res)
	}
	fmt.Println("bit-identical histograms:", reflect.DeepEqual(results[0].ClassicalCounts, results[1].ClassicalCounts))
	// Output:
	// dd     checkpointed=true gate applications=8
	// sparse checkpointed=false gate applications=3200
	// bit-identical histograms: true
}

// ExampleOptions_exactMode runs the deterministic density-matrix
// engine instead of Monte-Carlo sampling: Options.Mode = ModeExact
// evolves ρ through the exact noise channels and returns the entire
// outcome distribution with zero sampling error — Runs is 0, there is
// no confidence radius, and Result.Purity reports how much the noise
// mixed the state. The engine picks how to store ρ from the circuit:
// densely for this measurement-free 4-qubit register, as a decision
// diagram for registers past 10 qubits or circuits that measure, and
// Result.ExactBackend says which it picked.
func ExampleOptions_exactMode() {
	c := ddsim.GHZ(4)
	res, err := ddsim.Simulate(c, ddsim.BackendDD, ddsim.NoNoise(), ddsim.Options{
		Mode: ddsim.ModeExact,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("exact:", res.Exact, "runs:", res.Runs, "form:", res.ExactBackend)
	fmt.Printf("P(|0000⟩) = %.4f, P(|1111⟩) = %.4f\n", res.Probabilities[0], res.Probabilities[15])
	fmt.Printf("purity    = %.4f\n", res.Purity)
	// Output:
	// exact: true runs: 0 form: density
	// P(|0000⟩) = 0.5000, P(|1111⟩) = 0.5000
	// purity    = 1.0000
}

// ExampleSimulate_exactVsStochastic reproduces the paper's central
// comparison in a few lines: the stochastic estimate of a tracked
// outcome probability must fall within its Theorem-1 confidence
// radius of the exact density-matrix value — the differential oracle
// the repository's test suite applies to every paper benchmark.
func ExampleSimulate_exactVsStochastic() {
	c := ddsim.GHZ(6)
	model := ddsim.PaperNoise()
	tracked := []uint64{0} // P(|000000⟩)

	exact, err := ddsim.Simulate(c, ddsim.BackendDD, model, ddsim.Options{
		Mode:        ddsim.ModeExact,
		TrackStates: tracked,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	est, err := ddsim.Simulate(c, ddsim.BackendDD, model, ddsim.Options{
		Runs:        2000,
		Seed:        1,
		TrackStates: tracked,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	diff := est.TrackedProbs[0] - exact.TrackedProbs[0]
	if diff < 0 {
		diff = -diff
	}
	fmt.Println("estimate within the Theorem-1 radius:", diff <= est.ConfidenceRadius)
	// Output:
	// estimate within the Theorem-1 radius: true
}

// ExampleParseQASM compiles OpenQASM 2.0 source into a circuit and
// checks it against the exact density-matrix reference.
func ExampleParseQASM() {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`
	c, err := ddsim.ParseQASM("bell", src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d qubits, %d gates\n", c.NumQubits, c.GateCount())

	probs, err := ddsim.ExactProbabilities(c, ddsim.NoNoise())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("P(|00⟩) = %.2f, P(|11⟩) = %.2f\n", probs[0], probs[3])
	// Output:
	// 2 qubits, 2 gates
	// P(|00⟩) = 0.50, P(|11⟩) = 0.50
}

// ExampleJobKey derives the content-addressed identity of a job —
// the key the ddsimd service uses for its result cache and in-flight
// deduplication. Only result-relevant inputs feed the hash: changing
// the worker count, progress cadence or checkpoint mode (results are
// bit-identical across all of them) leaves the key unchanged, while
// changing the seed produces a different job.
func ExampleJobKey() {
	c := ddsim.GHZ(4)
	models := []ddsim.NoiseModel{ddsim.PaperNoise()}

	a, err := ddsim.JobKey(c, ddsim.BackendDD, models, ddsim.Options{Runs: 1000, Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Performance knobs do not change what is computed:
	b, _ := ddsim.JobKey(c, ddsim.BackendDD, models, ddsim.Options{
		Runs:          1000,
		Seed:          7,
		Workers:       32,
		ProgressEvery: 1,
	})
	// A different seed is a different Monte-Carlo experiment:
	d, _ := ddsim.JobKey(c, ddsim.BackendDD, models, ddsim.Options{Runs: 1000, Seed: 8})

	fmt.Println("hex length:", len(a))
	fmt.Println("same job despite different knobs:", a == b)
	fmt.Println("different seed, same key:", a == d)
	// Output:
	// hex length: 64
	// same job despite different knobs: true
	// different seed, same key: false
}

// ExampleOptions_Canonical shows the canonicalisation underneath
// JobKey: the result-relevant fields survive with engine defaults
// filled in, and everything that only changes *how* the work is done
// (workers, progress callbacks) is discarded.
func ExampleOptions_Canonical() {
	opts := ddsim.Options{
		Seed:          3,
		Workers:       16,  // execution knob: dropped
		ProgressEvery: 128, // observation knob: dropped
		TrackStates:   []uint64{0},
	}
	c := opts.Canonical()
	fmt.Printf("runs=%d shots=%d chunk=%d confidence=%.2f\n",
		c.Runs, c.Shots, c.ChunkSize, c.TargetConfidence)
	fmt.Printf("workers=%d progress_every=%d track=%v\n",
		c.Workers, c.ProgressEvery, c.TrackStates)
	// Output:
	// runs=1 shots=1 chunk=64 confidence=0.95
	// workers=0 progress_every=0 track=[0]
}
