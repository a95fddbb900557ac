package stochastic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
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

// referenceRun is the paper's trajectory loop written on
// Model.ApplyAfterGate: gate, then depolarising → damping → phase flip
// on every touched qubit, one rng stream per run seeded Seed+j. It
// accumulates like one engine chunk, so opts.Runs must fit in one.
func referenceRun(t *testing.T, c *circuit.Circuit, f sim.Factory, m noise.Model, opts Options) *Result {
	t.Helper()
	b, err := f(c)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		Runs:            opts.Runs,
		Counts:          map[uint64]int{},
		ClassicalCounts: map[uint64]int{},
		TrackedProbs:    make([]float64, len(opts.TrackStates)),
	}
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
		for s := 0; s < opts.Shots; s++ {
			res.Counts[b.SampleBasis(rng)]++
		}
		if circuitMeasures(c) {
			res.ClassicalCounts[clbits[0]]++
		}
		for i, idx := range opts.TrackStates {
			res.TrackedProbs[i] += b.Probability(idx)
		}
	}
	for i := range res.TrackedProbs {
		res.TrackedProbs[i] /= float64(opts.Runs)
	}
	return res
}

// TestUniformPlanMatchesApplyAfterGate pins the engine's one noise path
// — the compiled plan — to the paper's reference loop: same seed, same
// histograms and bit-equal estimates, for every uniform-model shape,
// replayed and forked, on every backend.
func TestUniformPlanMatchesApplyAfterGate(t *testing.T) {
	circuits := []*circuit.Circuit{circuit.QFT(6), circuit.GHZ(8), forkCircuit()}
	backends := []struct {
		name    string
		factory sim.Factory
		modes   []string
	}{
		{"statevec", statevec.Factory(), []string{CheckpointOff, CheckpointOn}},
		{"dd", ddback.Factory(), []string{CheckpointOff, CheckpointOn}},
		{"sparse", sparsemat.Factory(), []string{CheckpointOff}}, // no sim.Forker
	}
	for name, m := range uniformModels() {
		for _, c := range circuits {
			for _, b := range backends {
				for _, seed := range []int64{1, 7} {
					opts := Options{
						Runs: 64, ChunkSize: 64, Seed: seed, Shots: 2, Workers: 1,
						TrackStates: []uint64{0, 5, 1<<uint(c.NumQubits) - 1},
					}
					want := referenceRun(t, c, b.factory, m, opts)
					for _, mode := range b.modes {
						opts.Checkpointing = mode
						got, err := Run(c, b.factory, m, opts)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s/%s/%s/ckpt=%s/seed=%d", name, c.Name, b.name, mode, seed)
						if b.name == "dd" && mode == CheckpointOn {
							// DD weight interning is history-dependent (ROADMAP
							// item 1): a forking worker walked the reference
							// path first, so its estimates may differ from a
							// fresh replay's in the last bits. The histograms
							// must still agree.
							for i, p := range got.TrackedProbs {
								if math.Abs(p-want.TrackedProbs[i]) > 1e-12 {
									t.Errorf("%s: tracked[%d] = %v vs %v", label, i, want.TrackedProbs[i], p)
								}
							}
							got.TrackedProbs = want.TrackedProbs
						}
						assertResultsIdentical(t, label, want, got)
					}
				}
			}
		}
	}
}
