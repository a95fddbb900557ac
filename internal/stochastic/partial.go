package stochastic

import (
	"context"
	"fmt"
	"time"

	"ddsim/internal/obs"
	"ddsim/internal/sim"
)

// This file is the distribution seam of the trajectory engine: the
// chunked run-index space that RunBatch dispatches to goroutines is
// exposed so that chunks can be computed by *other processes* and the
// partial sums merged back. It is the in-process contract itself, not
// a copy of it: run j draws from the stream of (Seed, j) whichever
// process runs it (stream.go), every chunk is a fixed block of the
// run-index space that runChunk accumulates into one ChunkSum in run
// order, and both executors — RunBatch's finish and ReduceChunks —
// merge the sums strictly in chunk order through one function, reduce.
// Both also split the chunks into the same parts: the plan's parts are
// what the engine's workers claim and what a cluster leases, and one
// loop, runPart, runs a part on either side. So a cluster that leases
// parts to workers (internal/cluster) reproduces a single-node
// same-seed Result bit for bit on statevec, sparse and cache-resident
// DDs (TestRunChunksReduceBitIdentical), and one RunChunks call over
// the whole plan reproduces a 1-worker Run, on a QFT-16 DD too
// (TestExecutorsAgreeQFT16). Every RunChunks call compiles a fresh
// backend, so on a larger DD a cluster run reproduces itself for the
// same job, whatever the failure schedule
// (TestClusterQFT16ReproducesItselfAcrossFailures in internal/cluster),
// but not a single-node run.

// ChunkPlan describes the fixed chunk layout of one job's run-index
// space and its split into parts, as the engine dispatches it. The
// plan is a pure function of the job (the adaptive stopping point
// depends only on the options, not on any runtime state), so every
// node of a cluster derives the identical plan from the job spec
// alone.
type ChunkPlan struct {
	// Target is the number of trajectories planned: Options.Runs, or
	// the smaller Theorem-1 requirement when adaptive stopping applies.
	Target int `json:"target"`
	// ChunkSize is the normalised Options.ChunkSize.
	ChunkSize int `json:"chunk_size"`
	// NumChunks is ceil(Target / ChunkSize); chunks are numbered
	// 0..NumChunks-1 and chunk c covers run indices
	// [c*ChunkSize, min(Target, (c+1)*ChunkSize)).
	NumChunks int `json:"num_chunks"`
	// PartChunks is the number of consecutive chunks per part, the unit
	// a local worker claims and a cluster leases (the last part may be
	// shorter): min(8, max(1, NumChunks/32)). A job of up to 63 chunks
	// runs chunk by chunk; a larger one keeps at least 32 parts to
	// balance workers, and no part spans more than 8 chunks, so a lost
	// lease re-simulates at most 8 chunks.
	PartChunks int `json:"part_chunks"`
	// Exhausted mirrors Result.BudgetExhausted: adaptive stopping was
	// requested but the Theorem-1 requirement exceeded the Runs budget.
	Exhausted bool `json:"exhausted,omitempty"`
	// Properties is L, the Theorem-1 property count, and Delta the
	// failure probability δ — the inputs of the confidence radius.
	Properties int     `json:"properties"`
	Delta      float64 `json:"delta"`
}

// PlanChunks validates a job and returns its chunk layout.
func PlanChunks(job Job) (ChunkPlan, error) {
	js, err := prepareJob(job)
	if err != nil {
		return ChunkPlan{}, err
	}
	return js.plan, nil
}

// NumParts is the number of parts, ceil(NumChunks / PartChunks).
func (p ChunkPlan) NumParts() int {
	return (p.NumChunks + p.PartChunks - 1) / p.PartChunks
}

// Part returns part i's chunk range [first, first+count).
func (p ChunkPlan) Part(i int) (first, count int) {
	first = i * p.PartChunks
	return first, min(p.PartChunks, p.NumChunks-first)
}

// ChunkRuns returns the number of trajectories in chunk c (ChunkSize
// for every chunk except a possibly shorter final one).
func (p ChunkPlan) ChunkRuns(c int) int {
	return min(p.ChunkSize, p.Target-c*p.ChunkSize)
}

// ChunkSum is the partial sum of one chunk — the one type both
// executors accumulate into: the in-process engine commits one per
// chunk, RunChunks returns them, and both reduce through the same
// chunk-order merge. Float fields survive a JSON round trip
// bit-exactly (Go marshals float64 in shortest round-trip form), so
// sums computed on a remote worker reduce to the same Result as local
// ones.
type ChunkSum struct {
	// Chunk is the chunk index within the job's plan.
	Chunk int `json:"chunk"`
	// Runs is the number of trajectories accumulated; a valid sum
	// always carries the full ChunkRuns(Chunk) of its plan.
	Runs int `json:"runs"`
	// Counts histograms the sampled basis outcomes of the chunk.
	Counts map[uint64]int `json:"counts,omitempty"`
	// Classical histograms the packed classical register per run, for
	// circuits containing measurements.
	Classical map[uint64]int `json:"classical,omitempty"`
	// Tracked holds the *sums* (not means) of the per-run probability
	// estimates for Options.TrackStates, accumulated in run order.
	Tracked []float64 `json:"tracked,omitempty"`
	// Fidelity is the sum of per-run fidelities with the noise-free
	// reference state (Options.TrackFidelity).
	Fidelity float64 `json:"fidelity,omitempty"`
}

// RunChunks executes chunks [first, first+count) of the job's plan on
// one backend instance and returns their per-chunk sums in chunk
// order. The chunks run through runPart, the loop the in-process
// engine runs its parts with — trajectories in ascending run-index
// order, run j from the stream of (Seed, j) — so the sums are
// interchangeable with locally computed ones. onChunk, when non-nil,
// is called after each completed chunk with the number of chunks
// finished so far.
//
// Cancelling ctx aborts with an error: a partially accumulated chunk
// is never returned, because the reduction is defined over full chunks
// only.
func RunChunks(ctx context.Context, factory sim.Factory, job Job, first, count int, onChunk func(done int)) ([]ChunkSum, error) {
	js, err := prepareJob(job)
	if err != nil {
		return nil, err
	}
	if first < 0 || count < 1 || first+count > js.plan.NumChunks {
		return nil, fmt.Errorf("stochastic: chunk range [%d,%d) outside plan of %d chunks",
			first, first+count, js.plan.NumChunks)
	}
	// started only feeds progress snapshots (never fired here: the wire
	// options cannot carry OnProgress), but keep it sane regardless.
	js.started = time.Now()
	e := &engine{factory: factory, jobs: []*jobState{js}, workers: 1, start: js.started, ctx: ctx}
	wb, err := e.compile(js)
	if err != nil {
		return nil, err
	}
	defer wb.release()
	if done := e.runPart(js, wb, first, count, onChunk); done < count {
		// The context was cancelled mid-chunk; the partial prefix
		// must not escape.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stochastic: chunk %d incomplete", first+done)
	}
	return js.chunks[first : first+count : first+count], nil
}

// ReduceChunks merges per-chunk sums — exactly one for every chunk of
// the job's plan, in chunk order — into the job's Result. It validates
// the sums against the plan and hands them to reduce, the one
// chunk-order reduction RunBatch uses too, so every numerical field
// (Counts, ClassicalCounts, TrackedProbs, MeanFidelity,
// ConfidenceRadius) equals what RunBatch would reduce from the same
// sums; Elapsed is a scheduling artefact and is left to the caller.
// Where the sums do not depend on which process computed them, the
// Result is bit-identical to a single-node same-seed run
// (TestRunChunksReduceBitIdentical).
//
// Validation is strict: a missing, duplicated, out-of-order or
// short-run chunk is an error, never silently absorbed — the cluster
// layer's exactly-once accounting leans on this.
func ReduceChunks(job Job, sums []ChunkSum, workers int) (*Result, error) {
	js, err := prepareJob(job)
	if err != nil {
		return nil, err
	}
	if len(sums) != js.plan.NumChunks {
		return nil, fmt.Errorf("stochastic: reduce got %d chunk sums, plan has %d chunks",
			len(sums), js.plan.NumChunks)
	}
	tracked := len(js.job.Opts.TrackStates)
	for i := range sums {
		cs := &sums[i]
		if cs.Chunk != i {
			return nil, fmt.Errorf("stochastic: chunk sum %d carries index %d (missing or out of order)", i, cs.Chunk)
		}
		if want := js.plan.ChunkRuns(i); cs.Runs != want {
			return nil, fmt.Errorf("stochastic: chunk %d has %d runs, plan requires %d", i, cs.Runs, want)
		}
		if len(cs.Tracked) != tracked && len(cs.Tracked) != 0 {
			return nil, fmt.Errorf("stochastic: chunk %d tracks %d states, job tracks %d", i, len(cs.Tracked), tracked)
		}
	}
	res := reduce(js, sums)
	res.Workers = workers
	return res, nil
}

// reduce merges chunk sums strictly in the order given — chunk order,
// from both callers — into every numerical field of a Result: the
// histograms, the tracked-probability and fidelity means, the run
// counts, the properties and the confidence radius. The float sums
// therefore do not depend on which worker or process computed which
// chunk. A sum with no runs (a chunk the engine never dispatched)
// adds nothing. The scheduling fields (Elapsed, TimedOut, Interrupted,
// Checkpointed, Workers) are the caller's.
func reduce(js *jobState, sums []ChunkSum) *Result {
	res := &Result{
		TargetRuns:      js.plan.Target,
		Counts:          make(map[uint64]int),
		ClassicalCounts: make(map[uint64]int),
		TrackedProbs:    make([]float64, len(js.job.Opts.TrackStates)),
		Properties:      js.plan.Properties,
		BudgetExhausted: js.plan.Exhausted,
	}
	var fidelity float64
	for i := range sums {
		cs := &sums[i]
		for k, v := range cs.Counts {
			res.Counts[k] += v
		}
		for k, v := range cs.Classical {
			res.ClassicalCounts[k] += v
		}
		for t, v := range cs.Tracked {
			res.TrackedProbs[t] += v
		}
		fidelity += cs.Fidelity
		res.Runs += cs.Runs
	}
	for i := range res.TrackedProbs {
		res.TrackedProbs[i] /= float64(res.Runs)
	}
	if js.job.Opts.TrackFidelity {
		res.MeanFidelity = fidelity / float64(res.Runs)
	}
	res.ConfidenceRadius = obs.ConfidenceRadius(res.Runs, js.plan.Properties, js.plan.Delta)
	return res
}
