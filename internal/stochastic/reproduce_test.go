package stochastic

import (
	"runtime"
	"sync"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/sim"
)

// The reproducibility floor of the DD backend: one worker with one
// seed reproduces itself bit for bit. Across worker counts a DD result
// can move in its last bits on registers whose diagrams outgrow the
// compute caches (QFT-16 is the smallest size found to diverge), so
// these tests pin the one-worker guarantee at and above that size.

// TestOneWorkerDDReproducesItselfQFT16: the same QFT-16 job, one
// worker, the same seed, run twice, is bit-identical.
func TestOneWorkerDDReproducesItselfQFT16(t *testing.T) {
	c := circuit.QFTWithInput(16, 0x5a5a)
	opts := Options{Runs: 120, Seed: 11, Shots: 2, Workers: 1, TrackFidelity: true,
		TrackStates: []uint64{0, 0x5a5a}}
	first, err := Run(c, ddback.Factory(), goldenNoise, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(c, ddback.Factory(), goldenNoise, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "QFT-16, one worker, run twice", first, again)
}

// TestOneWorkerDDJobUnmovedByEarlierJobs: a one-worker DD job of the
// 24-qubit register class, run first in a process with empty kernel
// pools, is bit-identical to the same job run again after jobs with
// other seeds. The re-run draws the unique tables those jobs grew and
// released, so its tables start at another geometry than the first
// job's. The GC threshold is lowered so that every job collects many
// times: node IDs after a collection are where the geometry could leak
// in (TestGCNodeIDsIndependentOfTableGeometry in internal/dd pins the
// IDs themselves).
func TestOneWorkerDDJobUnmovedByEarlierJobs(t *testing.T) {
	c := circuit.QFTWithInput(24, 0xa5a5a5)
	var mu sync.Mutex
	gcs := 0
	var made []*ddback.Backend
	factory := func(c *circuit.Circuit) (sim.Backend, error) {
		b, err := ddback.New(c)
		if err != nil {
			return nil, err
		}
		b.Package().SetGCThresholds(20000, 0)
		mu.Lock()
		made = append(made, b)
		mu.Unlock()
		return b, nil
	}
	run := func(seed int64) *Result {
		t.Helper()
		made = nil
		res, err := Run(c, factory, goldenNoise, Options{Runs: 60, Seed: seed, Shots: 2,
			Workers: 1, TrackFidelity: true, TrackStates: []uint64{0, 1, 0xa5a5a5}})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range made {
			gcs += b.Package().GCRuns()
		}
		return res
	}
	// Two collections empty every sync.Pool: the first job starts from
	// minimum-size tables.
	runtime.GC()
	runtime.GC()
	first := run(1)
	if gcs == 0 {
		t.Fatal("the first job never collected; the test needs collections")
	}
	run(2)
	run(3)
	assertResultsIdentical(t, "QFT-24, one worker, first job vs re-run", first, run(1))
}
