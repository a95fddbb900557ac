package stochastic

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/statevec"
)

// partialJob is a job that exercises every accumulator field: sampled
// counts, a classical histogram (measurements), tracked float sums and
// the fidelity sum.
func partialJob(runs int) Job {
	c := circuit.GHZ(5)
	c.Measure(4, 0)
	return Job{
		Circuit: c,
		Model:   noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01},
		Opts: Options{
			Runs:        runs,
			Seed:        42,
			Shots:       2,
			ChunkSize:   16,
			TrackStates: []uint64{0, 31},
		},
	}
}

func TestPlanChunks(t *testing.T) {
	plan, err := PlanChunks(partialJob(100))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Target != 100 || plan.ChunkSize != 16 || plan.NumChunks != 7 {
		t.Fatalf("unexpected plan %+v", plan)
	}
	if got := plan.ChunkRuns(0); got != 16 {
		t.Errorf("chunk 0 runs = %d, want 16", got)
	}
	if got := plan.ChunkRuns(6); got != 4 {
		t.Errorf("last chunk runs = %d, want 4", got)
	}
	// The part rule k = min(8, max(1, NumChunks/32)) on the benchmark's
	// shapes: a job of up to 63 chunks runs chunk by chunk, a larger one
	// in parts of up to 8 chunks, the last part shorter.
	for _, tc := range []struct {
		runs, chunkSize       int
		partChunks, numParts  int
		lastFirst, lastChunks int
	}{
		{100, 16, 1, 7, 6, 1},
		{6000, 64, 2, 47, 92, 2},
		{30000, 64, 8, 59, 464, 5},
	} {
		job := partialJob(tc.runs)
		job.Opts.ChunkSize = tc.chunkSize
		plan, err := PlanChunks(job)
		if err != nil {
			t.Fatal(err)
		}
		first, count := plan.Part(plan.NumParts() - 1)
		if plan.PartChunks != tc.partChunks || plan.NumParts() != tc.numParts ||
			first != tc.lastFirst || count != tc.lastChunks {
			t.Errorf("%d runs of %d: %d parts of %d chunks, last [%d,+%d); want %d of %d, last [%d,+%d)",
				tc.runs, tc.chunkSize, plan.NumParts(), plan.PartChunks, first, count,
				tc.numParts, tc.partChunks, tc.lastFirst, tc.lastChunks)
		}
	}
	if _, err := PlanChunks(Job{}); err == nil {
		t.Error("nil circuit accepted")
	}
}

// TestRunChunksReduceBitIdentical is the distribution-seam invariant:
// chunks computed in separate RunChunks calls (as remote workers
// would), serialised through JSON (as the cluster wire format does)
// and merged in chunk order reproduce a single-node same-seed Run bit
// for bit — on both backends, including the fidelity estimator.
func TestRunChunksReduceBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory sim.Factory
	}{
		{"dd", ddback.Factory()},
		{"statevec", statevec.Factory()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := partialJob(100)
			job.Opts.TrackFidelity = true
			factory := tc.factory

			single, err := Run(job.Circuit, factory, job.Model, job.Opts)
			if err != nil {
				t.Fatal(err)
			}

			plan, err := PlanChunks(job)
			if err != nil {
				t.Fatal(err)
			}
			// Three uneven "workers", each with its own RunChunks call
			// (its own backend, RNG and checkpoint state).
			ranges := [][2]int{{0, 3}, {3, 1}, {4, plan.NumChunks - 4}}
			sums := make([]ChunkSum, 0, plan.NumChunks)
			for _, r := range ranges {
				part, err := RunChunks(context.Background(), factory, job, r[0], r[1], nil)
				if err != nil {
					t.Fatal(err)
				}
				// Wire round trip: the cluster protocol ships sums as
				// JSON; bit-exactness must survive it.
				data, err := json.Marshal(part)
				if err != nil {
					t.Fatal(err)
				}
				var back []ChunkSum
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatal(err)
				}
				sums = append(sums, back...)
			}
			merged, err := ReduceChunks(job, sums, 3)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, tc.name, single, merged)
			if single.ConfidenceRadius != merged.ConfidenceRadius {
				t.Errorf("radius %v vs %v", single.ConfidenceRadius, merged.ConfidenceRadius)
			}
			if merged.TargetRuns != single.TargetRuns || merged.Properties != single.Properties {
				t.Errorf("plan fields differ: %+v vs %+v", merged, single)
			}
		})
	}
}

func TestRunChunksValidation(t *testing.T) {
	job := partialJob(100)
	f := ddback.Factory()
	if _, err := RunChunks(context.Background(), f, job, -1, 1, nil); err == nil {
		t.Error("negative first accepted")
	}
	if _, err := RunChunks(context.Background(), f, job, 0, 0, nil); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := RunChunks(context.Background(), f, job, 6, 2, nil); err == nil {
		t.Error("range past plan accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunChunks(ctx, f, job, 0, 2, nil); err == nil {
		t.Error("cancelled context produced sums")
	}
}

func TestRunChunksProgressCallback(t *testing.T) {
	job := partialJob(64)
	var ticks []int
	sums, err := RunChunks(context.Background(), ddback.Factory(), job, 0, 4, func(done int) {
		ticks = append(ticks, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 4 {
		t.Fatalf("got %d sums", len(sums))
	}
	if len(ticks) != 4 || ticks[3] != 4 {
		t.Errorf("progress ticks %v", ticks)
	}
}

func TestReduceChunksRejectsBadSums(t *testing.T) {
	job := partialJob(100)
	f := ddback.Factory()
	sums, err := RunChunks(context.Background(), f, job, 0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReduceChunks(job, sums[:6], 1); err == nil {
		t.Error("missing chunk accepted")
	}
	swapped := append([]ChunkSum(nil), sums...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if _, err := ReduceChunks(job, swapped, 1); err == nil {
		t.Error("out-of-order chunks accepted")
	}
	dup := append([]ChunkSum(nil), sums...)
	dup[3] = dup[2]
	if _, err := ReduceChunks(job, dup, 1); err == nil {
		t.Error("duplicated chunk accepted")
	}
	short := append([]ChunkSum(nil), sums...)
	short[1].Runs--
	if _, err := ReduceChunks(job, short, 1); err == nil {
		t.Error("short chunk accepted")
	}
}

// TestExecutorsAgreeQFT16: a 1-worker local Run and one RunChunks call
// over the whole plan both run every chunk in order on one backend, and
// both reduce through the same chunk-order merge, so on QFT-16 — the
// smallest DD size whose bits move with the worker count — every
// numerical field is bit-identical.
func TestExecutorsAgreeQFT16(t *testing.T) {
	job := Job{
		Circuit: circuit.QFTWithInput(16, 0x5a5a),
		Model:   noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01},
		Opts: Options{Runs: 120, Seed: 11, Shots: 2, Workers: 1, ChunkSize: 16,
			TrackFidelity: true, TrackStates: []uint64{0, 0x5a5a}},
	}
	local, err := Run(job.Circuit, ddback.Factory(), job.Model, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanChunks(job)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := RunChunks(context.Background(), ddback.Factory(), job, 0, plan.NumChunks, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := ReduceChunks(job, sums, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "QFT-16, local vs RunChunks", local, merged)
	if len(local.TrackedProbs) != len(merged.TrackedProbs) {
		t.Errorf("tracked %d vs %d estimates", len(local.TrackedProbs), len(merged.TrackedProbs))
	}
	if local.TargetRuns != merged.TargetRuns || local.Properties != merged.Properties ||
		local.ConfidenceRadius != merged.ConfidenceRadius || local.BudgetExhausted != merged.BudgetExhausted {
		t.Errorf("plan fields differ: %+v vs %+v", local, merged)
	}
}

// recorder is a backend that records one draw of every trajectory's
// stream, taken when the trajectory samples. Run j's stream depends on
// j alone, so the draw names the run: a test can tell which runs each
// backend instance executed. A recorder's first sample waits on ready.
type recorder struct {
	sim.Backend
	draws []int64
	ready <-chan struct{}
}

func (r *recorder) SampleBasis(rng *rand.Rand) uint64 {
	if len(r.draws) == 0 {
		<-r.ready
	}
	r.draws = append(r.draws, rng.Int63())
	return r.Backend.SampleBasis(rng)
}

// recordingFactory makes statevec recorders whose first samples wait
// until n of them exist, so each of n workers holds a backend before
// any runs a trajectory.
func recordingFactory(n int) (sim.Factory, func() []*recorder) {
	var mu sync.Mutex
	var recs []*recorder
	ready := make(chan struct{})
	f := func(c *circuit.Circuit) (sim.Backend, error) {
		b, err := statevec.Factory()(c)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		recs = append(recs, &recorder{Backend: b, ready: ready})
		if len(recs) == n {
			close(ready)
		}
		return recs[len(recs)-1], nil
	}
	return f, func() []*recorder { mu.Lock(); defer mu.Unlock(); return recs }
}

// TestWorkersRunWholeParts shows that the engine's workers claim the
// plan's parts, not single chunks: in a 2-worker Run every part of 8
// chunks ran on one backend, so each backend ran a union of whole parts.
func TestWorkersRunWholeParts(t *testing.T) {
	c := circuit.QFT(6)
	opts := Options{Runs: 256, ChunkSize: 1, Seed: 5, Shots: 1}
	plan, err := PlanChunks(Job{Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PartChunks != 8 {
		t.Fatalf("plan has parts of %d chunks, want 8", plan.PartChunks)
	}
	run := func(workers int) []*recorder {
		f, recs := recordingFactory(workers)
		o := opts
		o.Workers = workers
		if _, err := Run(c, f, noise.Model{}, o); err != nil {
			t.Fatal(err)
		}
		return recs()
	}
	runOf := make(map[int64]int)
	for j, d := range run(1)[0].draws {
		runOf[d] = j
	}
	owner := make([]int, plan.NumChunks) // 1 + the backend that ran the chunk
	recs := run(2)
	if len(recs) != 2 {
		t.Fatalf("2-worker run compiled %d backends", len(recs))
	}
	for b, rec := range recs {
		for _, d := range rec.draws {
			j, ok := runOf[d]
			if !ok {
				t.Fatalf("backend %d ran a trajectory of no run index", b)
			}
			if owner[j] != 0 {
				t.Fatalf("run %d ran twice", j)
			}
			owner[j] = b + 1 // ChunkSize 1: run j is chunk j
		}
	}
	for i := 0; i < plan.NumParts(); i++ {
		first, count := plan.Part(i)
		for c := first; c < first+count; c++ {
			if owner[c] == 0 || owner[c] != owner[first] {
				t.Errorf("part %d split: chunk %d ran on backend %d, chunk %d on %d",
					i, first, owner[first]-1, c, owner[c]-1)
				break
			}
		}
	}
}
