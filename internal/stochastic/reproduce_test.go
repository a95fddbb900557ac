package stochastic

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
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

// TestWorkerCountsAgreeQFT20: one and two DD workers running the same
// QFT-20 job under paper noise with crosstalk and idle noise sample
// the same histogram, and their tracked estimates differ by at most
// 1e-9 relative, over five seeds. Two workers' packages round
// differently, since each computed other trajectories before; the
// block products are the same in both (ddback builds them before any
// trajectory), and a damping event draws its branch whatever P(1) is,
// so that rounding cannot make a trajectory take another number of
// draws. The repository benchmark's worker check rests on this.
func TestWorkerCountsAgreeQFT20(t *testing.T) {
	c := circuit.QFT(20)
	m := noise.PaperDefaults().Scale(3)
	m.Crosstalk = &noise.Crosstalk{Strength: 0.006, ZZBias: 0.5}
	m.Idle = &noise.IdleNoise{Damping: 0.0015, Dephasing: 0.0015}
	for seed := int64(1); seed <= 5; seed++ {
		opts := Options{Runs: 600, Seed: seed, Workers: 1, TrackStates: []uint64{0, 1, 1 << 19}}
		one, err := Run(c, ddback.Factory(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 2
		two, err := Run(c, ddback.Factory(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsClose(t, fmt.Sprintf("QFT-20 seed %d, one worker vs two", seed), one, two, 1e-9)
	}
}
