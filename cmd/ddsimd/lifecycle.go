package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ddsim"
	"ddsim/internal/jobstore"
	"ddsim/internal/telemetry"
)

// The job lifecycle is one state machine:
//
//	newJob ──admit──▶ queued ──start──▶ running ──settle──▶ done | failed | cancelled
//	                    │
//	                    └──settle──▶ done (served from the cache) | cancelled
//
// newJob is the one constructor, admit the one admission path,
// setStatusLocked the one status writer and settle the one terminal
// edge. A job recovered with a final state is constructed settled; a
// recovered job that no longer compiles settles failed without being
// admitted.

// Job lifecycle states.
const (
	statusQueued    = "queued"    // accepted, waiting for an active-job slot
	statusRunning   = "running"   // trajectories executing
	statusDone      = "done"      // finished normally (possibly with per-point errors)
	statusCancelled = "cancelled" // DELETE /jobs/{id} or server shutdown
	statusFailed    = "failed"    // no point produced a result
)

// job is one accepted submission and its lifecycle state. Once the
// job is terminal it holds only what view prints: settle drops its
// circuit, noise points and submitted source (spec keeps only the
// sweep) and keeps its results as one encoded slice, shared with the
// store and with every job served from it. Jobs restored from the
// store in a terminal state start out that way.
type job struct {
	id       string
	seq      int64 // dispatch tiebreak: submission order
	spec     jobSpec
	circ     *ddsim.Circuit
	models   []ddsim.NoiseModel
	backend  string
	key      string // canonical content hash (ddsim.JobKey); "" = uncacheable
	priority int
	ctx      context.Context // set by admit
	cancel   context.CancelFunc

	// userCancel distinguishes an explicit DELETE from a shutdown-
	// induced context cancellation: only the former persists a
	// terminal "cancelled" state (a shutdown leaves the job in-flight
	// on disk so a restart re-queues it).
	userCancel atomic.Bool

	// circName/qubits/gates summarise the compiled circuit for views.
	circName string
	qubits   int
	gates    int

	mu        sync.Mutex
	status    string // "" until admit or settle; written by setStatusLocked, or by newJob for a job constructed settled
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  *ddsim.Progress
	results   json.RawMessage // encoded []*ddsim.Result, set on reaching a terminal status
	cacheable bool            // results are a pure function of key (see encodeResults)
	errMsg    string
	cached    bool // results served by an identical finished or in-flight job
	subs      map[chan ddsim.Progress]struct{}
	done      chan struct{} // closed on reaching a terminal status
}

// settledDone is the done channel of every job constructed settled.
var settledDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// newJob is the one constructor of a job, from its new or recovered
// record rc and its decoded spec. A record with a final state builds
// the job settled: it holds only what its view prints and counts no
// telemetry. Any other job holds its compiled circuit and noise
// points (nil for a recovered spec that no longer compiles) and waits
// for admit, or for settle.
func newJob(rc jobstore.Recovered, spec jobSpec, circ *ddsim.Circuit, models []ddsim.NoiseModel) *job {
	j := &job{
		id:        rc.Record.ID,
		seq:       int64(idNum(rc.Record.ID)),
		spec:      spec,
		circ:      circ,
		models:    models,
		backend:   rc.Record.Backend,
		priority:  rc.Record.Priority,
		circName:  rc.Record.Circuit,
		qubits:    rc.Record.Qubits,
		gates:     rc.Record.Gates,
		submitted: rc.Record.Submitted,
		subs:      make(map[chan ddsim.Progress]struct{}),
	}
	f := rc.Final
	if f == nil {
		j.done = make(chan struct{})
		return j
	}
	j.status, j.started, j.finished = rc.Status, f.Started, f.Finished
	j.errMsg, j.results = f.Error, f.Results
	j.dropInputs()
	j.done = settledDone
	return j
}

// admit is the one admission path, of a submission and of a job
// re-queued at restore: it gives the job its context and cache key,
// moves it to queued, publishes it in the table, counts it pending
// and starts its run goroutine.
func (s *server) admit(j *job) {
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	// The canonical content hash keys cache hits and in-flight dedup.
	// Circuits the QASM writer cannot express have no key and always
	// simulate.
	if key, err := ddsim.JobKey(j.circ, j.backend, j.models, j.spec.Options); err == nil {
		j.key = key
	}
	j.mu.Lock()
	j.setStatusLocked(statusQueued)
	j.mu.Unlock()
	s.publish(j)
	s.pending.Add(1)
	s.wg.Add(1)
	go s.run(j)
}

// setStatusLocked is the one writer of a job's status. It moves the
// ddsim_jobs_queued and ddsim_jobs_running gauges with the edge, so
// each counts the jobs holding its status. Caller holds j.mu.
func (j *job) setStatusLocked(to string) {
	switch j.status {
	case statusQueued:
		telemetry.JobsQueued.Dec()
	case statusRunning:
		telemetry.JobsRunning.Dec()
	}
	switch to {
	case statusQueued:
		telemetry.JobsQueued.Inc()
	case statusRunning:
		telemetry.JobsRunning.Inc()
	}
	j.status = to
}

// start is the queued → running edge, taken once the job holds a
// simulation slot.
func (j *job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.setStatusLocked(statusRunning)
	j.started = time.Now()
}

// complete settles a job that ran, or was cancelled before it could.
// A cancelled job keeps whatever partial results the engine
// aggregated (their Interrupted flag is set by the engine). A
// cancellation that raced the natural end of the simulation — every
// point finished, nothing interrupted — still counts as done. The
// results are encoded here, once, for the view, the store and every
// job served from them.
func (s *server) complete(j *job, results []*ddsim.Result, err error) {
	enc, cacheable := encodeResults(results)
	status := statusDone
	switch {
	case err == nil && allResultsClean(results):
	case j.ctx.Err() != nil:
		status = statusCancelled
	case err != nil && !anyResult(results):
		status = statusFailed
	}
	s.settle(j, status, enc, cacheable && err == nil, err)
}

// finishFromCache settles a job done with the encoded results of an
// identical job, without burning any trajectories.
func (s *server) finishFromCache(j *job, results json.RawMessage) {
	s.settle(j, statusDone, results, true, nil)
}

// failRestored settles a recovered job whose spec no longer compiles
// as failed, visibly and durably across further restarts.
func (s *server) failRestored(j *job, cause error) {
	s.settle(j, statusFailed, nil, false, fmt.Errorf("restore: %v", cause))
}

// settle is a job's one terminal edge, taken once. It records the
// terminal status with the encoded results, drops what the job was
// compiled from, observes ddsim_e2e_seconds and
// ddsim_jobs_done_total, closes done (waking joined jobs and event
// streams), makes a retained job with cacheable results the newest
// that answers its key, and persists the terminal state. A job that
// settles neither having run nor cancelled — served from the cache,
// or failed at restore — starts as it finishes, and is cached if done.
func (s *server) settle(j *job, status string, results json.RawMessage, cacheable bool, err error) {
	j.mu.Lock()
	j.setStatusLocked(status)
	j.finished = time.Now()
	if j.started.IsZero() && status != statusCancelled {
		j.started = j.finished
		j.cached = status == statusDone
	}
	j.results, j.cacheable = results, cacheable
	if err != nil {
		j.errMsg = err.Error()
	}
	j.dropInputs()
	f := jobstore.Final{Status: status, Error: j.errMsg, Results: results, Started: j.started, Finished: j.finished}
	j.mu.Unlock()
	telemetry.E2ESeconds.Observe(f.Finished.Sub(j.submitted).Seconds())
	telemetry.JobsDone.With(status).Inc()
	close(j.done)

	if cacheable && j.key != "" {
		s.mu.Lock()
		// Only a retained job may hold the key, and never in place of
		// an in-flight leader.
		if l := s.byKey[j.key]; s.jobs[j.id] == j && (l == nil || l.terminal()) {
			s.byKey[j.key] = j
		}
		s.mu.Unlock()
	}

	// A cancellation that was not an explicit DELETE — the server is
	// shutting down — is deliberately not persisted: the WAL keeps the
	// job's last in-flight status, so the next start re-queues and
	// re-runs it with the same seed.
	if s.store == nil || status == statusCancelled && !j.userCancel.Load() {
		return
	}
	start := time.Now()
	perr := s.store.PutFinal(j.id, f)
	telemetry.PersistSeconds.Observe(time.Since(start).Seconds())
	if perr != nil {
		fmt.Fprintf(os.Stderr, "ddsimd: persist final state of %s: %v\n", j.id, perr)
	}
}

// dropInputs releases what a terminal job was compiled from; view
// needs only the sweep. Caller holds j.mu.
func (j *job) dropInputs() {
	j.circ, j.models = nil, nil
	j.spec = jobSpec{Sweep: j.spec.Sweep}
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked()
}

// terminalLocked is terminal for a caller that holds j.mu.
func (j *job) terminalLocked() bool {
	return j.status == statusDone || j.status == statusCancelled || j.status == statusFailed
}

// outcome reports the job's encoded results, whether it reached a
// terminal status, and whether those results answer its key.
func (j *job) outcome() (results json.RawMessage, settled, cacheable bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results, j.terminalLocked(), j.cacheable
}

// encodeResults renders results in the wire form of GET /jobs/{id}
// (nil when there are none) and reports whether a later identical
// submission may be served them: only a complete, un-truncated
// outcome may. An unencodable outcome has no results and is not
// cacheable.
func encodeResults(results []*ddsim.Result) (json.RawMessage, bool) {
	if len(results) == 0 {
		return nil, false
	}
	enc, err := json.Marshal(results)
	if err != nil {
		return nil, false
	}
	for _, r := range results {
		if r == nil || r.Interrupted || r.TimedOut {
			return enc, false
		}
	}
	return enc, true
}

// allResultsClean reports whether every point produced a result and
// none was cut short by cancellation.
func allResultsClean(results []*ddsim.Result) bool {
	if len(results) == 0 {
		return false
	}
	for _, r := range results {
		if r == nil || r.Interrupted {
			return false
		}
	}
	return true
}

func anyResult(results []*ddsim.Result) bool {
	for _, r := range results {
		if r != nil {
			return true
		}
	}
	return false
}
