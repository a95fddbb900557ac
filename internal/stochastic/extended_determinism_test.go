package stochastic

import (
	"runtime"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
)

// extDevice is a 4-qubit calibration table for the extended-channel
// determinism suite.
func extDevice() *noise.Device {
	return &noise.Device{
		Name: "det-4q",
		Qubits: []noise.DeviceQubit{
			{T1us: 80, T2us: 100},
			{T1us: 60, T2us: 60},
			{T1us: 100, T2us: 200},
			{T1us: 50, T2us: 40},
		},
		GateTimesNs: map[string]float64{"h": 35, "cx": 300},
		GateErrors:  map[string]float64{"cx": 0.02, "*": 0.005},
	}
}

// extDeterminismCircuit mixes idle gaps, two-qubit gates and dynamic
// operations so every extended channel kind actually fires.
func extDeterminismCircuit() *circuit.Circuit {
	c := circuit.New("ext_det", 4)
	c.H(0).H(1).CX(0, 1)
	c.H(2).H(2).H(2) // qubit 3 idles relative to this chain
	c.CX(2, 3)
	c.Measure(0, 0)
	c.Reset(0)
	c.H(0).CX(1, 2)
	c.MeasureAll()
	return c
}

// TestExtendedDeterminismAcrossWorkersAndCheckpointing is the
// determinism regression for the compiled-plan path: for each extended
// channel kind — calibrated device, correlated crosstalk,
// time-dependent idle noise and Pauli-twirled damping — the same seed
// must produce bit-identical results across worker counts 1, 4 and
// GOMAXPROCS, both forked and replayed (replayFactory).
// Run under -race this doubles as the lock audit for the plan path.
func TestExtendedDeterminismAcrossWorkersAndCheckpointing(t *testing.T) {
	models := []struct {
		name  string
		model noise.Model
	}{
		{"device", noise.Model{Device: extDevice()}},
		{"crosstalk", noise.Model{
			Depolarizing: 0.01,
			Crosstalk:    &noise.Crosstalk{Strength: 0.04, ZZBias: 0.5},
		}},
		{"idle", noise.Model{
			Damping: 0.02,
			Idle:    &noise.IdleNoise{Damping: 0.01, Dephasing: 0.02},
		}},
		{"twirled", noise.Model{Depolarizing: 0.01, Damping: 0.05, PhaseFlip: 0.01}.Twirl()},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	legs := []struct {
		ckpt    string
		factory sim.Factory
	}{{"on", ddback.Factory()}, {"off", replayFactory(ddback.Factory())}}

	c := extDeterminismCircuit()
	for _, tc := range models {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if !tc.model.Extended() {
				t.Fatalf("model %v is not extended", tc.model)
			}
			for _, leg := range legs {
				var ref *Result
				for _, w := range workerCounts {
					opts := Options{
						Runs: 400, Seed: 23, Shots: 2, ChunkSize: 16,
						Workers: w, TrackStates: []uint64{0, 5, 15},
					}
					res, err := Run(c, leg.factory, tc.model, opts)
					if err != nil {
						t.Fatalf("ckpt=%s workers=%d: %v", leg.ckpt, w, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					assertResultsIdentical(t, tc.name+"/ckpt="+leg.ckpt, ref, res)
				}
			}
		})
	}
}

// TestExtendedCheckpointingOnOffAgree: forked, the plan's noise-free
// prefix is executed once and trajectories fork from the saved state;
// the estimates must still be bit-identical to the replayed path.
func TestExtendedCheckpointingOnOffAgree(t *testing.T) {
	model := noise.Model{
		Device:    extDevice(),
		Crosstalk: &noise.Crosstalk{Strength: 0.02, ZZBias: 0.25},
		Idle:      &noise.IdleNoise{MomentNs: 120},
	}
	c := extDeterminismCircuit()
	var results []*Result
	for _, f := range []sim.Factory{ddback.Factory(), replayFactory(ddback.Factory())} {
		opts := Options{
			Runs: 300, Seed: 9, Workers: 4, ChunkSize: 16,
			TrackStates: []uint64{0, 15},
		}
		res, err := Run(c, f, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !results[0].Checkpointed {
		t.Error("the forking backend did not report a checkpointed run")
	}
	if results[1].Checkpointed {
		t.Error("the replay wrapper reported a checkpointed run")
	}
	assertResultsIdentical(t, "ckpt-on-vs-off", results[0], results[1])
}
