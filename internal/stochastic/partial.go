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
// partial sums merged back bit-identically. The contract mirrors the
// in-process one exactly — run j draws from the stream of (Seed, j)
// whichever process runs it (stream.go), every chunk is a fixed block
// of the run-index space accumulated in run order, and the final
// reduction merges per-chunk sums strictly in chunk order — so a
// cluster that leases chunk ranges to workers (internal/cluster)
// reproduces a single-node same-seed Result bit for bit.

// ChunkPlan describes the fixed chunk layout of one job's run-index
// space, as the engine would dispatch it. The plan is a pure function
// of the job (the adaptive stopping point depends only on the options,
// not on any runtime state), so every node of a cluster derives the
// identical plan from the job spec alone.
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
	return ChunkPlan{
		Target:     js.target,
		ChunkSize:  js.job.Opts.ChunkSize,
		NumChunks:  len(js.chunks),
		Exhausted:  js.exhausted,
		Properties: js.props,
		Delta:      js.delta,
	}, nil
}

// ChunkRuns returns the number of trajectories in chunk c (ChunkSize
// for every chunk except a possibly shorter final one).
func (p ChunkPlan) ChunkRuns(c int) int {
	first := c * p.ChunkSize
	n := p.ChunkSize
	if first+n > p.Target {
		n = p.Target - first
	}
	return n
}

// ChunkSum is the serialisable partial sum of one chunk: exactly the
// engine-internal accumulator a worker goroutine commits, in wire
// form. Float fields survive a JSON round trip bit-exactly (Go
// marshals float64 in shortest round-trip form), so sums computed on
// a remote worker reduce to the same Result as local ones.
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
// order. Within each chunk trajectories run in ascending run-index
// order, run j from the stream of (Seed, j), exactly as the in-process
// engine does, so the sums are interchangeable with locally computed
// ones. onChunk,
// when non-nil, is called after each completed chunk with the number
// of chunks finished so far (progress for lease heartbeats).
//
// Cancelling ctx aborts with an error: a partially accumulated chunk
// is never returned, because only full chunks merge bit-identically.
func RunChunks(ctx context.Context, factory sim.Factory, job Job, first, count int, onChunk func(done int)) ([]ChunkSum, error) {
	js, err := prepareJob(job)
	if err != nil {
		return nil, err
	}
	if first < 0 || count < 1 || first+count > len(js.chunks) {
		return nil, fmt.Errorf("stochastic: chunk range [%d,%d) outside plan of %d chunks",
			first, first+count, len(js.chunks))
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
	size := js.job.Opts.ChunkSize
	sums := make([]ChunkSum, 0, count)
	for c := first; c < first+count; c++ {
		lo := c * size
		n := size
		if lo+n > js.target {
			n = js.target - lo
		}
		e.runChunk(js, wb, lo, n)
		acc := js.chunks[c]
		if acc == nil || acc.runs != n {
			// The context was cancelled mid-chunk; the partial prefix
			// must not escape.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("stochastic: chunk %d incomplete (%d of %d runs)", c, accRuns(acc), n)
		}
		sums = append(sums, chunkSumOf(c, acc))
		acc.release()
		js.chunks[c] = nil
		if onChunk != nil {
			onChunk(c - first + 1)
		}
	}
	return sums, nil
}

func accRuns(a *accumulator) int {
	if a == nil {
		return 0
	}
	return a.runs
}

// chunkSumOf copies an accumulator into its wire form (the
// accumulator's maps are pooled and must not escape).
func chunkSumOf(c int, a *accumulator) ChunkSum {
	s := ChunkSum{Chunk: c, Runs: a.runs, Fidelity: a.fidelity}
	if len(a.counts) > 0 {
		s.Counts = make(map[uint64]int, len(a.counts))
		for k, v := range a.counts {
			s.Counts[k] = v
		}
	}
	if len(a.classical) > 0 {
		s.Classical = make(map[uint64]int, len(a.classical))
		for k, v := range a.classical {
			s.Classical[k] = v
		}
	}
	if len(a.tracked) > 0 {
		s.Tracked = append([]float64(nil), a.tracked...)
	}
	return s
}

// ReduceChunks merges per-chunk sums — exactly one for every chunk of
// the job's plan, in chunk order — into the job's Result. The merge
// applies the sums strictly in chunk order, which is the same
// floating-point reduction order RunBatch uses, so the Result is
// bit-identical to a single-node same-seed run on every numerical
// field (Counts, ClassicalCounts, TrackedProbs, MeanFidelity,
// ConfidenceRadius; Elapsed and Workers are scheduling artefacts and
// are left to the caller).
//
// Validation is strict: a missing, duplicated, out-of-order or
// short-run chunk is an error, never silently absorbed — the cluster
// layer's exactly-once accounting leans on this.
func ReduceChunks(job Job, sums []ChunkSum, workers int) (*Result, error) {
	js, err := prepareJob(job)
	if err != nil {
		return nil, err
	}
	if len(sums) != len(js.chunks) {
		return nil, fmt.Errorf("stochastic: reduce got %d chunk sums, plan has %d chunks",
			len(sums), len(js.chunks))
	}
	size := js.job.Opts.ChunkSize
	tracked := len(js.job.Opts.TrackStates)
	total := &accumulator{
		counts:    make(map[uint64]int),
		classical: make(map[uint64]int),
		tracked:   make([]float64, tracked),
	}
	for i := range sums {
		cs := &sums[i]
		if cs.Chunk != i {
			return nil, fmt.Errorf("stochastic: chunk sum %d carries index %d (missing or out of order)", i, cs.Chunk)
		}
		want := size
		if i*size+want > js.target {
			want = js.target - i*size
		}
		if cs.Runs != want {
			return nil, fmt.Errorf("stochastic: chunk %d has %d runs, plan requires %d", i, cs.Runs, want)
		}
		if len(cs.Tracked) != tracked && len(cs.Tracked) != 0 {
			return nil, fmt.Errorf("stochastic: chunk %d tracks %d states, job tracks %d", i, len(cs.Tracked), tracked)
		}
		for k, v := range cs.Counts {
			total.counts[k] += v
		}
		for k, v := range cs.Classical {
			total.classical[k] += v
		}
		for t := range cs.Tracked {
			total.tracked[t] += cs.Tracked[t]
		}
		total.fidelity += cs.Fidelity
		total.runs += cs.Runs
	}
	res := &Result{
		Runs:             total.runs,
		TargetRuns:       js.target,
		Counts:           total.counts,
		ClassicalCounts:  total.classical,
		TrackedProbs:     total.tracked,
		Properties:       js.props,
		ConfidenceRadius: obs.ConfidenceRadius(total.runs, js.props, js.delta),
		BudgetExhausted:  js.exhausted,
		Workers:          workers,
	}
	for i := range res.TrackedProbs {
		res.TrackedProbs[i] /= float64(total.runs)
	}
	if js.job.Opts.TrackFidelity {
		res.MeanFidelity = total.fidelity / float64(total.runs)
	}
	return res, nil
}
