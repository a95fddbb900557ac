package stochastic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/density"
	"ddsim/internal/noise"
	"ddsim/internal/obs"
	"ddsim/internal/sim"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
)

// uniformModels are the shapes a uniform model can take: both damping
// semantics, single channels, a channel missing from the front of the
// per-qubit sequence, and rates high enough that most trajectories fire.
func uniformModels() map[string]noise.Model {
	exactT1 := noise.PaperDefaults()
	exactT1.DampingAsEvent = false
	return map[string]noise.Model{
		"paper":        noise.PaperDefaults(),
		"exact-t1":     exactT1,
		"depol-only":   {Depolarizing: 0.01},
		"damp+flip":    {Damping: 0.02, PhaseFlip: 0.01, DampingAsEvent: true},
		"paper-x10":    noise.PaperDefaults().Scale(10),
		"exact-t1-x10": exactT1.Scale(10),
	}
}

// eventCounter wraps a backend and counts, per trajectory, the noise
// operations that reached it — the events. It hides sim.Forker, so the
// engine replays on it and every trajectory begins with a Reset.
type eventCounter struct {
	sim.Backend
	perRun []float64
}

func (e *eventCounter) Reset() {
	e.perRun = append(e.perRun, 0)
	e.Backend.Reset()
}

func (e *eventCounter) ApplyPauli(p sim.Pauli, q int) {
	e.perRun[len(e.perRun)-1]++
	e.Backend.ApplyPauli(p, q)
}

func (e *eventCounter) ApplyDamping(q int, p float64, fire bool, branchProb float64) {
	e.perRun[len(e.perRun)-1]++
	e.Backend.ApplyDamping(q, p, fire, branchProb)
}

// meanVar returns the sample mean and the variance of that mean.
func meanVar(xs []float64) (mean, varOfMean float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		varOfMean += (x - mean) * (x - mean)
	}
	n := float64(len(xs))
	return mean, varOfMean / (n - 1) / n
}

// referenceRun is the paper's trajectory loop written on
// Model.ApplyAfterGate: gate, then depolarising → damping → phase flip
// on every touched qubit, rolled one by one from a math/rand stream per
// run. It returns the tracked-probability means and the per-run event
// counts.
func referenceRun(t *testing.T, c *circuit.Circuit, m noise.Model, opts Options) (tracked, events []float64) {
	t.Helper()
	inner, err := statevec.Factory()(c)
	if err != nil {
		t.Fatal(err)
	}
	b := &eventCounter{Backend: inner}
	tracked = make([]float64, len(opts.TrackStates))
	clbits := make([]uint64, 1)
	for j := 0; j < opts.Runs; j++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(j)))
		b.Reset()
		clbits[0] = 0
		for i := range c.Ops {
			op := &c.Ops[i]
			if op.Cond != nil && !op.Cond.Holds(clbits[0]) {
				continue
			}
			switch op.Kind {
			case circuit.KindGate:
				b.ApplyOp(i)
				m.ApplyAfterGate(b, op.Qubits(), rng)
			case circuit.KindMeasure, circuit.KindReset:
				execSiteOp(b, op, rng, clbits)
			}
		}
		for i, idx := range opts.TrackStates {
			tracked[i] += b.Probability(idx)
		}
	}
	for i := range tracked {
		tracked[i] /= float64(opts.Runs)
	}
	return tracked, b.perRun
}

// TestUniformPlanMatchesApplyAfterGate pins the engine's one noise path
// — the compiled plan, sampled by schedule along the reference path —
// to the paper's reference loop in distribution: for every
// uniform-model shape, the engine (replayed and forked, on every
// backend) and the reference loop both estimate every basis-state
// probability inside the Theorem-1 radius of the exact density-matrix
// evolution, and they fire the same number of events per trajectory
// within 4σ.
func TestUniformPlanMatchesApplyAfterGate(t *testing.T) {
	measured := circuit.New("measured", 4)
	measured.H(0).CX(0, 1).T(1).CX(1, 2).Measure(1, 0).H(3).CX(3, 1).Reset(2).H(2).CX(2, 0)
	circuits := []*circuit.Circuit{circuit.QFT(6), circuit.GHZ(6), measured}
	backends := []struct {
		name    string
		factory sim.Factory
		modes   []string
	}{
		{"statevec", statevec.Factory(), []string{CheckpointOff, CheckpointOn}},
		{"dd", ddback.Factory(), []string{CheckpointOff, CheckpointOn}},
		{"sparse", sparsemat.Factory(), []string{CheckpointOff}}, // no sim.Forker
	}
	runs := 6000
	if raceEnabled {
		runs = 1000
	}
	for name, m := range uniformModels() {
		for _, c := range circuits {
			exact, err := density.RunCircuit(c, m)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Runs: runs, Seed: 7, Workers: 1, TrackStates: make([]uint64, 1<<uint(c.NumQubits))}
			for i := range opts.TrackStates {
				opts.TrackStates[i] = uint64(i)
			}
			radius := obs.ConfidenceRadius(runs, len(opts.TrackStates), 0.001)
			within := func(label string, tracked []float64) {
				t.Helper()
				for i, idx := range opts.TrackStates {
					if want := exact.Probability(idx); math.Abs(tracked[i]-want) > radius {
						t.Errorf("%s: ô(%d) = %v, exact %v (radius %v)", label, idx, tracked[i], want, radius)
					}
				}
			}
			label := fmt.Sprintf("%s/%s", name, c.Name)
			refTracked, refEvents := referenceRun(t, c, m, opts)
			within(label+"/reference", refTracked)

			for _, b := range backends {
				for _, mode := range b.modes {
					opts.Checkpointing = mode
					got, err := Run(c, b.factory, m, opts)
					if err != nil {
						t.Fatal(err)
					}
					within(fmt.Sprintf("%s/%s/ckpt=%s", label, b.name, mode), got.TrackedProbs)
				}
			}

			var counter *eventCounter
			opts.Checkpointing = CheckpointAuto
			_, err = Run(c, func(c *circuit.Circuit) (sim.Backend, error) {
				inner, err := statevec.Factory()(c)
				counter = &eventCounter{Backend: inner}
				return counter, err
			}, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(counter.perRun) != runs {
				t.Fatalf("%s: %d trajectories began with a Reset, want %d", label, len(counter.perRun), runs)
			}
			got, gotVar := meanVar(counter.perRun)
			want, wantVar := meanVar(refEvents)
			if d := math.Abs(got - want); d > 4*math.Sqrt(gotVar+wantVar) {
				t.Errorf("%s: %v events per trajectory, reference loop %v (|Δ| = %v > 4σ = %v)",
					label, got, want, d, 4*math.Sqrt(gotVar+wantVar))
			}
		}
	}
}
