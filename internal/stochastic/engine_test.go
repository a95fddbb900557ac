package stochastic

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/obs"
	"ddsim/internal/statevec"
)

// assertResultsIdentical fails unless two results are bit-identical in
// every deterministic field (Counts, ClassicalCounts, TrackedProbs,
// MeanFidelity, Runs).
func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Runs != b.Runs {
		t.Errorf("%s: runs %d vs %d", label, a.Runs, b.Runs)
	}
	if len(a.Counts) != len(b.Counts) {
		t.Errorf("%s: %d vs %d distinct outcomes", label, len(a.Counts), len(b.Counts))
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Errorf("%s: counts[%d] = %d vs %d", label, k, v, b.Counts[k])
		}
	}
	if len(a.ClassicalCounts) != len(b.ClassicalCounts) {
		t.Errorf("%s: classical histograms differ in size", label)
	}
	for k, v := range a.ClassicalCounts {
		if b.ClassicalCounts[k] != v {
			t.Errorf("%s: classical[%d] = %d vs %d", label, k, v, b.ClassicalCounts[k])
		}
	}
	for i := range a.TrackedProbs {
		if a.TrackedProbs[i] != b.TrackedProbs[i] {
			t.Errorf("%s: tracked[%d] = %v vs %v (not bit-identical)",
				label, i, a.TrackedProbs[i], b.TrackedProbs[i])
		}
	}
	if a.MeanFidelity != b.MeanFidelity {
		t.Errorf("%s: fidelity %v vs %v", label, a.MeanFidelity, b.MeanFidelity)
	}
}

// TestDeterminismAcrossWorkerCounts is the chunked-dispatch regression
// test: identical seeds must produce bit-identical results for any
// worker count, on both the fixed-M path and the adaptive path. Run
// under -race this also exercises the engine's locking.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	c := circuit.GHZ(4).MeasureAll()
	m := noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	cases := []struct {
		name string
		opts Options
	}{
		{"fixed", Options{
			Runs: 500, Seed: 42, Shots: 2, ChunkSize: 16,
			TrackStates: []uint64{0, 7, 15}, TrackFidelity: true,
		}},
		{"adaptive", Options{
			Runs: 100000, Seed: 42, Shots: 2, ChunkSize: 16,
			TrackStates: []uint64{0, 7, 15}, TrackFidelity: true,
			TargetAccuracy: 0.07, TargetConfidence: 0.95,
		}},
	}
	for _, tc := range cases {
		var ref *Result
		for _, w := range workerCounts {
			opts := tc.opts
			opts.Workers = w
			res, err := Run(c, ddback.Factory(), m, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if tc.name == "adaptive" && res.Runs >= 100000 {
				t.Fatalf("adaptive path did not stop early: %d runs", res.Runs)
			}
			if ref == nil {
				ref = res
				continue
			}
			assertResultsIdentical(t, tc.name, ref, res)
		}
	}
}

// TestAdaptiveStoppingStopsEarly: a loose accuracy target on a
// high-noise GHZ job must stop well before the M budget, and the
// reported radius must match obs.ConfidenceRadius for the actual run
// count.
func TestAdaptiveStoppingStopsEarly(t *testing.T) {
	const budget = 50000
	m := noise.Model{Depolarizing: 0.05, Damping: 0.08, PhaseFlip: 0.05}
	opts := Options{
		Runs: budget, Seed: 3, TrackStates: []uint64{0, 7},
		TargetAccuracy: 0.1, TargetConfidence: 0.95,
	}
	res, err := Run(circuit.GHZ(3), ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs >= budget/10 {
		t.Errorf("loose ε did not stop early: %d of %d runs", res.Runs, budget)
	}
	need, err := obs.SampleCount(2, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != need || res.TargetRuns != need {
		t.Errorf("runs = %d/%d, Theorem 1 requires exactly %d", res.Runs, res.TargetRuns, need)
	}
	if res.BudgetExhausted {
		t.Error("BudgetExhausted set although the target was met")
	}
	// δ = 1 − 0.95 differs from the literal 0.05 by one ULP, hence the
	// float-precision (not bitwise) comparison.
	if want := obs.ConfidenceRadius(res.Runs, 2, 0.05); math.Abs(res.ConfidenceRadius-want) > 1e-12 {
		t.Errorf("ConfidenceRadius = %v, obs.ConfidenceRadius(%d, 2, 0.05) = %v",
			res.ConfidenceRadius, res.Runs, want)
	}
	if res.ConfidenceRadius > 0.1 {
		t.Errorf("stopped with radius %v > target 0.1", res.ConfidenceRadius)
	}
}

// TestAdaptiveStoppingBudgetExhausted: a strict accuracy target the
// budget cannot reach consumes the full budget and flags it.
func TestAdaptiveStoppingBudgetExhausted(t *testing.T) {
	opts := Options{
		Runs: 300, Seed: 3, TrackStates: []uint64{0},
		TargetAccuracy: 0.005, TargetConfidence: 0.95,
	}
	res, err := Run(circuit.GHZ(3), ddback.Factory(), noise.PaperDefaults(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 300 {
		t.Errorf("runs = %d, want the full budget of 300", res.Runs)
	}
	if !res.BudgetExhausted {
		t.Error("BudgetExhausted not set")
	}
	if res.ConfidenceRadius <= 0.005 {
		t.Errorf("radius %v unexpectedly met the unreachable target", res.ConfidenceRadius)
	}
}

// TestCancelledContextReturnsPartialResult: cancelling mid-flight
// aggregates the completed runs into a partial result with
// Interrupted set.
func TestCancelledContextReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{
		Runs: 1000000, Seed: 1, ChunkSize: 8, ProgressEvery: 8,
		TrackStates: []uint64{0},
		OnProgress: func(p Progress) {
			once.Do(cancel) // cancel as soon as some runs completed
		},
	}
	res, err := RunContext(ctx, circuit.QFT(8), ddback.Factory(), noise.PaperDefaults(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("Interrupted not set")
	}
	if res.TimedOut {
		t.Error("TimedOut wrongly set on cancellation")
	}
	if res.Runs <= 0 || res.Runs >= 1000000 {
		t.Errorf("partial runs = %d", res.Runs)
	}
	if res.TrackedProbs[0] < 0 || res.TrackedProbs[0] > 1 {
		t.Errorf("partial estimate %v outside [0,1]", res.TrackedProbs[0])
	}
}

// TestCancelledBeforeStartErrors: a context cancelled before any
// trajectory completes yields an error, not an empty result.
func TestCancelledBeforeStartErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, circuit.GHZ(3), ddback.Factory(), noise.Model{}, Options{Runs: 100})
	if err == nil {
		t.Error("expected an error for a pre-cancelled context")
	}
}

// TestProgressCallbacks: Done is monotone, the final callback reports
// completion, and every reported radius matches the Theorem-1 bound
// for its run count.
func TestProgressCallbacks(t *testing.T) {
	var snaps []Progress
	opts := Options{
		Runs: 200, Seed: 9, ChunkSize: 16, ProgressEvery: 50,
		TrackStates: []uint64{0},
		OnProgress:  func(p Progress) { snaps = append(snaps, p) },
	}
	res, err := Run(circuit.GHZ(3), ddback.Factory(), noise.PaperDefaults(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress callbacks fired")
	}
	last := 0
	for i, p := range snaps {
		if p.Done <= last {
			t.Errorf("callback %d: Done = %d not monotone (prev %d)", i, p.Done, last)
		}
		last = p.Done
		if p.Target != 200 {
			t.Errorf("callback %d: Target = %d", i, p.Target)
		}
		if want := obs.ConfidenceRadius(p.Done, 1, 0.05); math.Abs(p.ConfidenceRadius-want) > 1e-12 {
			t.Errorf("callback %d: radius %v, want %v", i, p.ConfidenceRadius, want)
		}
		if len(p.TrackedProbs) != 1 || p.TrackedProbs[0] < 0 || p.TrackedProbs[0] > 1 {
			t.Errorf("callback %d: bad running estimate %v", i, p.TrackedProbs)
		}
	}
	if snaps[len(snaps)-1].Done != res.Runs {
		t.Errorf("final callback Done = %d, completed %d", snaps[len(snaps)-1].Done, res.Runs)
	}
}

// TestRunBatchMatchesStandaloneRuns: a batch over several noise points
// must give each job exactly the result a standalone Run produces.
func TestRunBatchMatchesStandaloneRuns(t *testing.T) {
	c := circuit.GHZ(4).MeasureAll()
	models := []noise.Model{
		{},
		{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01},
		{Depolarizing: 0.05, Damping: 0.08, PhaseFlip: 0.05},
	}
	opts := Options{Runs: 300, Seed: 23, ChunkSize: 32, TrackStates: []uint64{0, 15}}
	jobs := make([]Job, len(models))
	for i, m := range models {
		jobs[i] = Job{Circuit: c, Model: m, Opts: opts}
	}
	results, err := RunBatch(context.Background(), ddback.Factory(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, m := range models {
		solo, err := Run(c, ddback.Factory(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "batch job", solo, results[i])
	}
	// Noise must actually degrade the GHZ peak across the sweep.
	if results[2].TrackedProbs[0] >= results[0].TrackedProbs[0] {
		t.Errorf("sweep shows no noise effect: %v vs %v",
			results[2].TrackedProbs[0], results[0].TrackedProbs[0])
	}
}

// TestRunBatchPartialFailure: a job with invalid input fails alone;
// the remaining jobs still complete and the joined error names it.
func TestRunBatchPartialFailure(t *testing.T) {
	good := circuit.GHZ(3)
	jobs := []Job{
		{Circuit: good, Model: noise.Model{}, Opts: Options{Runs: 50, Seed: 1}},
		{Circuit: good, Model: noise.Model{Damping: 2}, Opts: Options{Runs: 50, Seed: 1}},
		{Circuit: good, Model: noise.PaperDefaults(), Opts: Options{Runs: 50, Seed: 1}},
	}
	results, err := RunBatch(context.Background(), ddback.Factory(), jobs, 2)
	if err == nil {
		t.Fatal("invalid noise model accepted in batch")
	}
	if results[1] != nil {
		t.Error("failed job produced a result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil || results[i].Runs != 50 {
			t.Errorf("job %d did not complete: %+v", i, results[i])
		}
	}
}

// TestRunBatchBackendFailure: a per-worker factory error (register too
// large for the backend) is reported for the affected job only.
func TestRunBatchBackendFailure(t *testing.T) {
	jobs := []Job{
		{Circuit: circuit.GHZ(3), Model: noise.Model{}, Opts: Options{Runs: 20, Seed: 1}},
		{Circuit: circuit.GHZ(statevec.MaxQubits + 1), Model: noise.Model{}, Opts: Options{Runs: 20, Seed: 1}},
	}
	results, err := RunBatch(context.Background(), statevec.Factory(), jobs, 2)
	if err == nil {
		t.Fatal("oversized register accepted")
	}
	if results[0] == nil || results[0].Runs != 20 {
		t.Errorf("healthy job did not complete: %+v", results[0])
	}
	if results[1] != nil {
		t.Error("oversized job produced a result")
	}
}

// TestBatchTimeoutIsPerJob: each job's Timeout budget starts when its
// first chunk is dispatched, so a later job in the batch is not
// starved by an earlier one eating the shared wall clock.
func TestBatchTimeoutIsPerJob(t *testing.T) {
	slow := Options{Runs: 10000000, Seed: 1, Timeout: 100 * time.Millisecond, ChunkSize: 8}
	jobs := []Job{
		{Circuit: circuit.QFT(10), Model: noise.PaperDefaults(), Opts: slow},
		{Circuit: circuit.QFT(10), Model: noise.PaperDefaults(), Opts: slow},
	}
	results, err := RunBatch(context.Background(), ddback.Factory(), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("job %d starved: no result", i)
		}
		if !res.TimedOut {
			t.Errorf("job %d: expected TimedOut", i)
		}
		if res.Runs <= 0 {
			t.Errorf("job %d: no runs completed in its own budget", i)
		}
	}
}

func TestRunBatchEmpty(t *testing.T) {
	if _, err := RunBatch(context.Background(), ddback.Factory(), nil, 0); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestAdaptiveEstimatesStayAccurate: the adaptive stop must not bias
// the estimates — the early-stopped GHZ probabilities still match the
// ideal 0.5/0.5 within the guaranteed radius.
func TestAdaptiveEstimatesStayAccurate(t *testing.T) {
	m := noise.Model{Depolarizing: 0.002, Damping: 0.002, PhaseFlip: 0.002}
	res, err := Run(circuit.GHZ(3), ddback.Factory(), m, Options{
		Runs: 100000, Seed: 5, TrackStates: []uint64{0, 7},
		TargetAccuracy: 0.05, TargetConfidence: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.5, 0.5} {
		// Noise drains a little probability from both GHZ peaks, so the
		// estimate sits slightly below 0.5 — well within ε plus the
		// noise-induced shift.
		if math.Abs(res.TrackedProbs[i]-want) > res.ConfidenceRadius+0.05 {
			t.Errorf("ô[%d] = %v, want %v ± %v", i, res.TrackedProbs[i], want, res.ConfidenceRadius)
		}
	}
}

func TestInvalidTargetConfidenceRejected(t *testing.T) {
	_, err := Run(circuit.GHZ(2), ddback.Factory(), noise.Model{}, Options{
		Runs: 10, TargetAccuracy: 0.1, TargetConfidence: 1.5,
	})
	if err == nil {
		t.Error("confidence 1.5 accepted")
	}
	_, err = Run(circuit.GHZ(2), ddback.Factory(), noise.Model{}, Options{
		Runs: 10, TargetAccuracy: 2,
	})
	if err == nil {
		t.Error("accuracy 2 accepted")
	}
}
