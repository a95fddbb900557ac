package ddsim_test

import (
	"testing"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/qbench"
	"ddsim/internal/telemetry"
)

// TestCheckpointingReducesGateApplications is the acceptance check of
// the checkpoint engine on a builtin benchmark whose first random site
// sits late in the circuit: Bernstein–Vazirani applies every gate
// before its measurements, so on a perfect (noise-free) device the
// whole gate sequence is a shared deterministic prefix. Forking from
// the per-worker checkpoint must cut total gate applications for the
// job by well over 30% — asserted via the engine's telemetry counters
// — while staying bit-identical to the plain replay with the same
// seed.
func TestCheckpointingReducesGateApplications(t *testing.T) {
	bench, err := qbench.ByName("bv", 15)
	if err != nil {
		t.Fatal(err)
	}
	circ := bench.Circuit
	firstSite := -1
	for i := range circ.Ops {
		if circ.Ops[i].Kind == circuit.KindMeasure || circ.Ops[i].Kind == circuit.KindReset {
			firstSite = i
			break
		}
	}
	if firstSite < len(circ.Ops)/2 {
		t.Fatalf("precondition broken: bv's first random site is op %d of %d, not past halfway",
			firstSite, len(circ.Ops))
	}

	opts := ddsim.Options{Runs: 200, Seed: 9, Workers: 2, ChunkSize: 32}

	run := func(mode string) (*ddsim.Result, int64, int64) {
		opts.Checkpointing = mode
		appliedBefore := telemetry.GateApplications.Value()
		forksBefore := telemetry.CheckpointForks.Value()
		res, err := ddsim.Simulate(circ, ddsim.BackendDD, ddsim.NoNoise(), opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return res, telemetry.GateApplications.Value() - appliedBefore,
			telemetry.CheckpointForks.Value() - forksBefore
	}

	plain, appliedPlain, _ := run(ddsim.CheckpointOff)
	forked, appliedForked, forks := run(ddsim.CheckpointAuto)

	if !forked.Checkpointed || plain.Checkpointed {
		t.Fatalf("Checkpointed flags wrong: off=%v auto=%v", plain.Checkpointed, forked.Checkpointed)
	}
	if forks != int64(opts.Runs) {
		t.Errorf("forks served = %d, want one per trajectory (%d)", forks, opts.Runs)
	}
	if appliedForked > appliedPlain*7/10 {
		t.Errorf("checkpointing applied %d gates vs %d plain — less than the required 30%% reduction",
			appliedForked, appliedPlain)
	}

	// Bit-identical estimates: same sampled histogram, same classical
	// register histogram.
	if len(plain.Counts) != len(forked.Counts) || len(plain.ClassicalCounts) != len(forked.ClassicalCounts) {
		t.Fatal("histogram shapes differ between checkpointed and plain runs")
	}
	for k, v := range plain.Counts {
		if forked.Counts[k] != v {
			t.Errorf("counts[%d] = %d plain vs %d checkpointed", k, v, forked.Counts[k])
		}
	}
	for k, v := range plain.ClassicalCounts {
		if forked.ClassicalCounts[k] != v {
			t.Errorf("classical[%d] = %d plain vs %d checkpointed", k, v, forked.ClassicalCounts[k])
		}
	}
}
