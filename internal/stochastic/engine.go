package stochastic

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/obs"
	"ddsim/internal/sim"
	"ddsim/internal/telemetry"
)

const (
	defaultChunkSize     = 64
	defaultProgressEvery = 512
)

// Job pairs one circuit with one noise point and its simulation
// options — one unit of work for RunBatch. A noise sweep is a slice of
// Jobs sharing the circuit and varying the model.
type Job struct {
	Circuit *circuit.Circuit
	Model   noise.Model
	Opts    Options
}

// Progress is a periodic snapshot of a running job, delivered to
// Options.OnProgress. It marshals to JSON for the ddsimd event stream
// (Elapsed is serialised as nanoseconds).
type Progress struct {
	// Job is the index of the job within the batch (0 for Run).
	Job int `json:"job"`
	// Done is the number of completed trajectories.
	Done int `json:"done"`
	// Target is the number of planned trajectories (after the adaptive
	// stopping rule, if enabled).
	Target int `json:"target"`
	// TrackedProbs are the running estimates ô_l for
	// Options.TrackStates (aggregation order varies with scheduling;
	// final results are reduced deterministically instead).
	TrackedProbs []float64 `json:"tracked_probs,omitempty"`
	// MeanFidelity is the running fidelity estimate, when tracked.
	MeanFidelity float64 `json:"mean_fidelity,omitempty"`
	// ConfidenceRadius is the Theorem-1 accuracy guaranteed by the
	// Done runs completed so far (obs.ConfidenceRadius).
	ConfidenceRadius float64 `json:"confidence_radius"`
	// Elapsed is the wall-clock time since the engine started.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Run executes the stochastic simulation of circuit c on backends
// produced by factory, with the given noise model. It is
// RunContext with a background context.
func Run(c *circuit.Circuit, factory sim.Factory, model noise.Model, opts Options) (*Result, error) {
	return RunContext(context.Background(), c, factory, model, opts)
}

// RunContext executes one stochastic simulation job under a context:
// cancelling ctx stops issuing trajectories, and the completed runs
// are aggregated into a partial Result with Interrupted set (an error
// is returned only when no run completed at all).
func RunContext(ctx context.Context, c *circuit.Circuit, factory sim.Factory, model noise.Model, opts Options) (*Result, error) {
	opts.normalize()
	results, err := RunBatch(ctx, factory, []Job{{Circuit: c, Model: model, Opts: opts}}, opts.Workers)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunBatch executes a set of (circuit, noise-point) jobs through one
// shared worker pool of the given size (0 means GOMAXPROCS). A worker
// claims one part of a job's ChunkPlan at a time — the parts a cluster
// leases — and keeps its backend across the parts it claims; run j of
// a job always draws from the stream of (Opts.Seed, j), and the
// per-chunk ChunkSums are reduced in chunk order by reduce — the same
// function ReduceChunks merges a cluster's chunks with. So a job's
// result on one worker reproduces itself bit for bit
// (TestOneWorkerDDReproducesItselfQFT16), and on the statevec and
// sparse backends and on cache-resident DDs it is bit-identical to a
// standalone Run with any worker count
// (TestRunBatchMatchesStandaloneRuns). On a DD whose diagrams outgrow
// the compute caches the last bits can depend on which parts a
// worker's package ran before (docs/ARCHITECTURE.md, concurrency
// invariant 2).
//
// The returned slice is indexed like jobs. Jobs that fail (invalid
// input, backend error, zero completed runs) have a nil entry and
// contribute to the joined error; the remaining jobs still complete.
func RunBatch(ctx context.Context, factory sim.Factory, jobs []Job, workers int) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, errors.New("stochastic: empty job batch")
	}
	states := make([]*jobState, len(jobs))
	errs := make([]error, len(jobs))
	totalRuns := 0
	for i := range jobs {
		js, err := prepareJob(jobs[i])
		if err != nil {
			errs[i] = wrapJobErr(jobs, i, err)
			continue
		}
		states[i] = js
		totalRuns += js.plan.Target
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > totalRuns {
		workers = totalRuns
	}
	if workers < 1 {
		workers = 1
	}
	e := &engine{factory: factory, jobs: states, workers: workers, start: time.Now(), ctx: ctx}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker()
		}()
	}
	wg.Wait()

	results := make([]*Result, len(jobs))
	for i, js := range states {
		if js == nil {
			continue
		}
		res, err := e.finish(js)
		if err != nil {
			errs[i] = wrapJobErr(jobs, i, err)
			continue
		}
		results[i] = res
	}
	return results, errors.Join(errs...)
}

// wrapJobErr tags an error with its job for batch callers; single-job
// calls keep the bare error.
func wrapJobErr(jobs []Job, i int, err error) error {
	if len(jobs) == 1 {
		return err
	}
	name := "?"
	if jobs[i].Circuit != nil {
		name = jobs[i].Circuit.Name
	}
	return fmt.Errorf("job %d (%s): %w", i, name, err)
}

// jobState is the engine-internal state of one job.
type jobState struct {
	job        Job
	plan       ChunkPlan
	hasMeasure bool
	// started and deadline are set when the job's first part is
	// dispatched (not at engine start), so in a batch every job
	// reports its own elapsed time and gets its own Timeout budget
	// even though jobs run through the pool sequentially.
	started  time.Time
	deadline time.Time // zero until first dispatch, or when Timeout is unset

	// chunks holds one sum per fixed chunk of the run-index space,
	// committed by whichever worker executed it; reduce merges them in
	// chunk order so float sums are independent of scheduling. A chunk
	// never dispatched keeps the zero ChunkSum. tracked backs every
	// chunk's Tracked slice, len(TrackStates) floats per chunk, so a
	// job allocates them once rather than once per chunk.
	chunks  []ChunkSum
	tracked []float64

	// path is the job's noise model compiled against its circuit and
	// the reference path every trajectory runs along (see refPath).
	// Read-only once built, so workers share it.
	path *refPath

	// Guarded by engine.mu:
	nextPart     int       // next part of the plan to dispatch
	done         int       // completed runs
	ended        time.Time // time of the job's last committed chunk
	lastProgress int
	progTracked  []float64
	progFid      float64
	timedOut     bool
	checkpointed bool // at least one worker forked from a checkpoint
	err          error
}

// prepareJob validates inputs and plans the job's chunks and parts.
// Since the Theorem-1 bound is distribution-free, the adaptive
// stopping point depends only on (L, ε, δ) and is fixed here — which
// is what keeps the adaptive path deterministic across worker counts.
func prepareJob(job Job) (*jobState, error) {
	if job.Circuit == nil {
		return nil, errors.New("stochastic: nil circuit")
	}
	if err := job.Circuit.Validate(); err != nil {
		return nil, err
	}
	if err := job.Model.Validate(); err != nil {
		return nil, err
	}
	if err := job.Opts.ValidateMode(); err != nil {
		return nil, err
	}
	if job.Opts.Mode == ModeExact {
		return nil, errors.New("stochastic: exact-mode job routed to the trajectory engine (dispatch through ddsim.Simulate/BatchSimulate or internal/exact)")
	}
	job.Opts.normalize()
	delta, err := job.Opts.delta()
	if err != nil {
		return nil, err
	}
	plan := ChunkPlan{Target: job.Opts.Runs, ChunkSize: job.Opts.ChunkSize,
		Properties: job.Opts.properties(), Delta: delta}
	if eps := job.Opts.TargetAccuracy; eps > 0 {
		need, err := obs.SampleCount(plan.Properties, eps, delta)
		if err != nil {
			return nil, err
		}
		if need < plan.Target {
			plan.Target = need
		} else if need > plan.Target {
			plan.Exhausted = true
		}
	}
	plan.NumChunks = (plan.Target + plan.ChunkSize - 1) / plan.ChunkSize
	plan.PartChunks = min(8, max(1, plan.NumChunks/32))
	js := &jobState{
		job:         job,
		plan:        plan,
		hasMeasure:  circuitMeasures(job.Circuit),
		chunks:      make([]ChunkSum, plan.NumChunks),
		tracked:     make([]float64, plan.NumChunks*len(job.Opts.TrackStates)),
		progTracked: make([]float64, len(job.Opts.TrackStates)),
	}
	var noisePlan *noise.Plan
	if job.Model.Enabled() {
		if noisePlan, err = job.Model.Compile(job.Circuit); err != nil {
			return nil, err
		}
	}
	js.path = planRefPath(job.Circuit, noisePlan)
	return js, nil
}

// engine drives one RunBatch invocation: a shared worker pool pulling
// chunks of trajectories off a list of jobs.
type engine struct {
	factory sim.Factory
	jobs    []*jobState
	workers int
	start   time.Time
	ctx     context.Context

	mu          sync.Mutex
	cur         int    // first job that may still have undispatched chunks
	cbBusy      bool   // a progress callback is in flight (see commit)
	backendName string // engine name, captured at first compile (telemetry)
}

// compiled is a worker-private backend instance for one job, created
// lazily the first time the worker draws a chunk of that job.
type compiled struct {
	backend sim.Backend
	snapper sim.Snapshotter
	ref     sim.Snapshot
	clbits  []uint64
	// rng draws from src, the worker's reusable trajectory stream: run j
	// seeks it to (Seed, j) (see stream.go).
	rng *rand.Rand
	src *stream
	// traj runs the job's trajectories on backend: forked from the
	// noise-free reference path when the backend implements sim.Forker,
	// or replaying it.
	traj *ckptRunner
	// refTracked caches Probability(idx) of Options.TrackStates on the
	// reference path's final state, for the trajectories that end in
	// exactly that state; nil until the first one.
	refTracked []float64
	// lastStats is the table-stat snapshot at the last telemetry
	// report; reportTableStats pushes the delta since then.
	lastStats sim.TableStats
}

// release retires a worker's backend for good: backends implementing
// sim.Releaser return their pooled kernel memory (DD node slabs,
// compute caches, weight slabs) for reuse by the next compile.
func (wb *compiled) release() {
	if r, ok := wb.backend.(sim.Releaser); ok {
		r.Release()
	}
}

// reportTableStats pushes the growth of a backend's decision-diagram
// table counters since the last report into the process telemetry.
// Backends without tables (sim.TableStatser not implemented) are
// skipped.
func (wb *compiled) reportTableStats() {
	ts, ok := wb.backend.(sim.TableStatser)
	if !ok {
		return
	}
	cur, prev := ts.TableStats(), wb.lastStats
	wb.lastStats = cur
	telemetry.DDUniqueLookups.Add(cur.UniqueLookups - prev.UniqueLookups)
	telemetry.DDUniqueHits.Add(cur.UniqueHits - prev.UniqueHits)
	telemetry.DDComputeLookups.Add(cur.ComputeLookups - prev.ComputeLookups)
	telemetry.DDComputeHits.Add(cur.ComputeHits - prev.ComputeHits)
	telemetry.DDComputeConflicts.Add(cur.ComputeConflicts - prev.ComputeConflicts)
	telemetry.DDNodesCreated.Add(cur.NodesCreated - prev.NodesCreated)
	telemetry.DDGCRuns.Add(cur.GCRuns - prev.GCRuns)
	telemetry.DDBlockApplications.Add(cur.BlockApplications - prev.BlockApplications)
	telemetry.DDPeakNodes.SetMax(cur.PeakNodes)
	for i, c := range cur.UniqueProbe {
		telemetry.DDUniqueProbeLen.ObserveN(float64(i+1), c-prev.UniqueProbe[i])
	}
	telemetry.DDUniqueMaxProbe.SetMax(cur.UniqueMaxProbe)
	telemetry.DDUniqueLoadFactor.Set(cur.UniqueLoad)
}

func (e *engine) worker() {
	var js *jobState // the job wb was compiled for
	var wb *compiled
	defer func() {
		// Hand pooled kernel memory (node slabs, compute caches) back
		// for the next batch; sim.Releaser is a no-op for backends
		// without arenas.
		if wb != nil {
			wb.release()
		}
	}()
	for {
		next, first, count := e.nextPart()
		if next == nil {
			return
		}
		if next != js {
			// Jobs are dispatched in submission order, so this worker
			// will never draw the earlier job again: release its
			// backend and checkpoints (pinned DD nodes, amplitude
			// copies) instead of retaining them for the whole batch.
			if wb != nil {
				wb.release()
			}
			js = next
			var err error
			if wb, err = e.compile(js); err != nil {
				e.failJob(js, err)
				continue
			}
		}
		e.runPart(js, wb, first, count, nil)
	}
}

// nextPart claims the next part of the job plan — a block of
// consecutive chunks — skipping jobs that are fully dispatched,
// failed, or past their deadline. It returns a nil jobState when no
// work remains or the context is cancelled.
func (e *engine) nextPart() (*jobState, int, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ctx.Err() != nil {
		return nil, 0, 0
	}
	for e.cur < len(e.jobs) {
		js := e.jobs[e.cur]
		if js == nil || js.nextPart >= js.plan.NumParts() {
			e.cur++
			continue
		}
		if js.nextPart == 0 {
			js.started = time.Now()
			if js.job.Opts.Timeout > 0 {
				js.deadline = js.started.Add(js.job.Opts.Timeout)
			}
		}
		if !js.deadline.IsZero() && time.Now().After(js.deadline) {
			js.timedOut = true
			js.nextPart = js.plan.NumParts()
			e.cur++
			continue
		}
		first, count := js.plan.Part(js.nextPart)
		js.nextPart++
		return js, first, count
	}
	return nil, 0, 0
}

func (e *engine) compile(js *jobState) (*compiled, error) {
	backend, err := e.factory(js.job.Circuit)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.backendName == "" {
		e.backendName = backend.Name()
	}
	e.mu.Unlock()
	wb := &compiled{backend: backend, clbits: make([]uint64, 1)}
	wb.rng, wb.src = newStream()
	var forker sim.Forker
	if f, ok := backend.(sim.Forker); ok && js.path.worthwhile() {
		forker = f
		e.mu.Lock()
		js.checkpointed = true
		e.mu.Unlock()
	}
	// The fidelity reference is the circuit's noise-free final state.
	// When the reference path covers the circuit, the forking runner
	// walks to it anyway (fromPath); otherwise a replaying runner walks
	// the noise-free circuit, with measurements drawing from the stream
	// of (Seed, 0), so every worker derives the identical state.
	fromPath := forker != nil && js.path.endOp == len(js.job.Circuit.Ops)
	if js.job.Opts.TrackFidelity {
		s, ok := backend.(sim.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("stochastic: backend %q cannot track fidelity", backend.Name())
		}
		wb.snapper = s
		if !fromPath {
			wb.src.seek(js.job.Opts.Seed, 0)
			telemetry.GateApplications.Add(int64(replayNoiseFree(backend, js.job.Circuit, wb.rng, wb.clbits)))
			wb.ref = s.Snapshot()
		}
	}
	traj, pathGates := newCkptRunner(backend, forker, js.job.Circuit, js.path)
	if js.job.Opts.TrackFidelity && fromPath {
		var st ckptStats
		wb.ref = traj.finalState(wb.snapper, &st)
		pathGates += st.applied
	}
	telemetry.GateApplications.Add(int64(pathGates))
	wb.traj = traj
	return wb, nil
}

func (e *engine) failJob(js *jobState, err error) {
	e.mu.Lock()
	if js.err == nil {
		js.err = err
	}
	js.nextPart = js.plan.NumParts() // stop dispatching this job
	e.mu.Unlock()
}

// histPool recycles the histogram maps of the chunk sums the engine
// commits: a job churns through target/ChunkSize of them (469 on a
// 30000-run job), and a cleared map keeps its capacity, so a warm
// engine allocates no histogram per chunk. finish returns the maps once
// reduce has merged them; the sums RunChunks hands to its caller are
// never returned.
var histPool = sync.Pool{New: func() any { return make(map[uint64]int) }}

// releaseHist clears a chunk histogram and returns it to histPool.
func releaseHist(h map[uint64]int) {
	if h != nil {
		clear(h)
		histPool.Put(h)
	}
}

// runPart runs chunks [first, first+count) of a job in chunk order on
// the worker's backend, the one loop both executors run a part
// through: the engine's workers and RunChunks. Each chunk commits as
// it completes; a chunk cut short by cancellation or the job deadline
// ends the part. onChunk, when non-nil, is called after each full
// chunk with the number of chunks done so far. It returns that number.
func (e *engine) runPart(js *jobState, wb *compiled, first, count int, onChunk func(done int)) int {
	for c := first; c < first+count; c++ {
		if !e.runChunk(js, wb, c) {
			return c - first
		}
		if onChunk != nil {
			onChunk(c - first + 1)
		}
	}
	return count
}

// runChunk executes the trajectories of chunk c on the worker's
// private backend and commits the chunk's ChunkSum. The context and
// the job deadline are checked between trajectories, so a cancelled
// chunk commits the prefix it completed; runChunk reports whether the
// chunk ran in full.
func (e *engine) runChunk(js *jobState, wb *compiled, c int) bool {
	opts := &js.job.Opts
	first, count, t := c*opts.ChunkSize, js.plan.ChunkRuns(c), len(opts.TrackStates)
	sum := ChunkSum{Chunk: c, Counts: histPool.Get().(map[uint64]int)}
	if js.hasMeasure {
		sum.Classical = histPool.Get().(map[uint64]int)
	}
	if t > 0 {
		sum.Tracked = js.tracked[c*t : (c+1)*t : (c+1)*t]
	}
	deadlineHit := false
	var st ckptStats
	var chanCounts noise.ChannelCounts
	for k := 0; k < count; k++ {
		if e.ctx.Err() != nil {
			break
		}
		if !js.deadline.IsZero() && time.Now().After(js.deadline) {
			deadlineHit = true
			break
		}
		wb.src.seek(opts.Seed, uint64(first+k))
		rng := wb.rng
		reference := wb.traj.run(rng, wb.clbits, &st, &chanCounts)
		sum.Runs++
		for s := 0; s < opts.Shots; s++ {
			sum.Counts[wb.backend.SampleBasis(rng)]++
		}
		if js.hasMeasure {
			sum.Classical[wb.clbits[0]]++
		}
		if reference && wb.refTracked == nil {
			wb.refTracked = make([]float64, len(opts.TrackStates))
			for i, idx := range opts.TrackStates {
				wb.refTracked[i] = wb.backend.Probability(idx)
			}
		}
		for i, idx := range opts.TrackStates {
			if reference {
				// The same restored state every time: the same values.
				sum.Tracked[i] += wb.refTracked[i]
			} else {
				sum.Tracked[i] += wb.backend.Probability(idx)
			}
		}
		if wb.snapper != nil {
			sum.Fidelity += wb.snapper.FidelityTo(wb.ref)
		}
	}
	e.commit(js, sum, deadlineHit)
	telemetry.GateApplications.Add(int64(st.applied))
	telemetry.CheckpointGatesSkipped.Add(int64(st.skipped))
	if wb.traj.forker != nil {
		// A forked trajectory restores exactly once (ckptRunner.advance).
		telemetry.CheckpointForks.Add(int64(sum.Runs))
	}
	for l, n := range chanCounts {
		if n > 0 {
			telemetry.NoiseChannelApplications.With(noise.Labels[l]).Add(n)
		}
	}
	wb.reportTableStats()
	return sum.Runs == count
}

// commit stores a chunk's sum and fires the progress callback
// when due. The snapshot is built under the engine lock but the
// callback itself runs outside it, so a slow Options.OnProgress never
// stalls chunk dispatch; at most one callback is in flight (cbBusy),
// which both serialises delivery in Done order and coalesces bursts.
// Skipped ticks are recovered later because lastProgress only
// advances when a callback actually fires (finish delivers the final
// snapshot unconditionally).
func (e *engine) commit(js *jobState, sum ChunkSum, deadlineHit bool) {
	telemetry.Trajectories.Add(int64(sum.Runs))
	e.mu.Lock()
	js.chunks[sum.Chunk] = sum
	js.done += sum.Runs
	js.ended = time.Now()
	for i, v := range sum.Tracked {
		js.progTracked[i] += v
	}
	js.progFid += sum.Fidelity
	if deadlineHit {
		js.timedOut = true
		js.nextPart = js.plan.NumParts()
	}
	opts := &js.job.Opts
	if opts.OnProgress == nil || e.cbBusy || js.done <= js.lastProgress ||
		(js.done-js.lastProgress < opts.ProgressEvery && js.done != js.plan.Target) {
		e.mu.Unlock()
		return
	}
	e.cbBusy = true
	js.lastProgress = js.done
	snap := e.progressLocked(js)
	e.mu.Unlock()
	opts.OnProgress(snap)
	e.mu.Lock()
	e.cbBusy = false
	e.mu.Unlock()
}

func (e *engine) progressLocked(js *jobState) Progress {
	p := Progress{
		Job:    e.jobIndex(js),
		Done:   js.done,
		Target: js.plan.Target,
		// ended was stamped by this snapshot's own commit, so this is
		// "now" for live callbacks — and for the final snapshot fired
		// from finish (after the whole batch drained) it is still the
		// job's own runtime, not the batch's.
		ConfidenceRadius: obs.ConfidenceRadius(js.done, js.plan.Properties, js.plan.Delta),
		Elapsed:          js.ended.Sub(js.started),
	}
	if n := len(js.progTracked); n > 0 {
		p.TrackedProbs = make([]float64, n)
		for i, v := range js.progTracked {
			p.TrackedProbs[i] = v / float64(js.done)
		}
	}
	if js.job.Opts.TrackFidelity {
		p.MeanFidelity = js.progFid / float64(js.done)
	}
	return p
}

func (e *engine) jobIndex(js *jobState) int {
	for i, other := range e.jobs {
		if other == js {
			return i
		}
	}
	return 0
}

// finish reduces a job's committed chunk sums — in chunk order, so the
// numerical fields do not depend on which workers ran which chunks —
// into its Result, and adds the scheduling fields.
func (e *engine) finish(js *jobState) (*Result, error) {
	if js.err != nil {
		return nil, js.err
	}
	res := reduce(js, js.chunks)
	for i := range js.chunks {
		releaseHist(js.chunks[i].Counts)
		releaseHist(js.chunks[i].Classical)
	}
	js.chunks, js.tracked = nil, nil
	interrupted := e.ctx.Err() != nil && js.done < js.plan.Target && !js.timedOut
	if res.Runs == 0 {
		if interrupted {
			return nil, fmt.Errorf("stochastic: no runs completed: %w", e.ctx.Err())
		}
		return nil, errors.New("stochastic: no runs completed within the budget")
	}
	// Deliver the final progress snapshot if the last commits were
	// coalesced away. The workers have finished (finish runs after
	// wg.Wait), so reading the job state without the lock is safe.
	if cb := js.job.Opts.OnProgress; cb != nil && js.done > js.lastProgress {
		js.lastProgress = js.done
		cb(e.progressLocked(js))
	}
	res.Elapsed = js.ended.Sub(js.started)
	res.TimedOut = js.timedOut
	res.Interrupted = interrupted
	res.Checkpointed = js.checkpointed
	res.Workers = e.workers
	// Runs > 0 implies at least one chunk ran, so a backend was
	// compiled and backendName is set.
	telemetry.BackendSeconds.With(e.backendName).Add(res.Elapsed.Seconds())
	telemetry.BackendJobs.With(e.backendName).Inc()
	return res, nil
}
