package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ddsim"
	"ddsim/internal/cluster"
	"ddsim/internal/dd"
	"ddsim/internal/dispatch"
	"ddsim/internal/exact"
	"ddsim/internal/jobstore"
	"ddsim/internal/qbench"
	"ddsim/internal/telemetry"
)

// Request resource bounds: a submission is parsed and compiled
// synchronously in the handler, so each input dimension needs a
// ceiling before any allocation happens.
const (
	// maxBodyBytes caps the request body (inline QASM, sweep lists).
	maxBodyBytes = 1 << 20
	// maxQubits is the hard API ceiling (basis states are addressed
	// with uint64 masks).
	maxQubits = dd.MaxQubits
	// maxDenseQubits bounds the dense baselines, which allocate 2^n
	// amplitudes per worker (26 → 1 GiB per statevec worker).
	maxDenseQubits = 26
	// maxPriority bounds the dispatch priority to ±maxPriority.
	maxPriority = 100
	// queueFullRetryAfter is the Retry-After hint (seconds) sent with
	// 429 responses when the unfinished-job queue is at capacity.
	queueFullRetryAfter = 5
)

// Maintenance cadences.
const (
	// defaultSSEKeepalive is the cadence of ": keepalive" comments on
	// idle event streams (one runtime ticker per open stream).
	defaultSSEKeepalive = 15 * time.Second
	// gaugeRefreshEvery is how often dispatch snapshot gauges are
	// pushed to telemetry.
	gaugeRefreshEvery = time.Second
)

// circuitSpec selects the circuit of a submission: either inline
// OpenQASM 2.0 source or a named built-in benchmark family with a
// qubit count (see qbench.BuiltinNames).
type circuitSpec struct {
	QASM string `json:"qasm,omitempty"`
	Name string `json:"name,omitempty"`
	N    int    `json:"n,omitempty"`
}

// jobSpec is the POST /jobs request body.
type jobSpec struct {
	Circuit circuitSpec `json:"circuit"`
	// Backend selects the engine (dd, statevec, sparse); default dd.
	Backend string `json:"backend,omitempty"`
	// Noise is the base noise point; omitted means noise-free. Use
	// {"depolarizing":0.001,"damping":0.002,"phase_flip":0.001,
	// "damping_as_event":true} for the paper's rates.
	Noise *ddsim.NoiseModel `json:"noise,omitempty"`
	// Sweep, when non-empty, runs one simulation per scale factor
	// applied to the base noise point — all points through one shared
	// worker pool (BatchSimulate). Results are indexed like Sweep.
	Sweep []float64 `json:"sweep,omitempty"`
	// Options configures the Monte-Carlo engine (runs, seed, adaptive
	// stopping, ...). The OnProgress callback is owned by the server
	// and feeds the SSE event stream.
	Options ddsim.Options `json:"options"`
	// Priority orders the dispatch queue: when simulation slots are
	// contended, higher-priority jobs start first (ties break by
	// submission order). Range ±100; default 0. Priority is not part
	// of the job's cache identity.
	Priority int `json:"priority,omitempty"`
}

// jobView is the JSON representation of a job returned by the API.
type jobView struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Circuit   string          `json:"circuit"`
	Qubits    int             `json:"qubits"`
	Gates     int             `json:"gates"`
	Backend   string          `json:"backend"`
	Priority  int             `json:"priority,omitempty"`
	Sweep     []float64       `json:"sweep,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Submitted time.Time       `json:"submitted_at"`
	Started   *time.Time      `json:"started_at,omitempty"`
	Finished  *time.Time      `json:"finished_at,omitempty"`
	Error     string          `json:"error,omitempty"`
	Progress  *ddsim.Progress `json:"progress,omitempty"`
	// Results is only decoded into, by clients of the API; the
	// server writes the encoded results below in its place.
	Results []*ddsim.Result `json:"results,omitempty"`

	// results is the job's encoded []*ddsim.Result, which MarshalJSON
	// writes verbatim as the results member.
	results json.RawMessage
}

// MarshalJSON renders the view with its encoded results in place of
// Results, so a finished job is never re-marshalled.
func (v jobView) MarshalJSON() ([]byte, error) {
	type fields jobView // without this method, so Marshal does not recurse
	return json.Marshal(struct {
		fields
		Results json.RawMessage `json:"results,omitempty"`
	}{fields(v), v.results})
}

// publish stores the latest progress snapshot and fans it out to SSE
// subscribers without blocking the engine (slow subscribers drop
// intermediate snapshots; the final state always arrives via done).
func (j *job) publish(p ddsim.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := p
	j.progress = &snap
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
}

func (j *job) subscribe() chan ddsim.Progress {
	ch := make(chan ddsim.Progress, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan ddsim.Progress) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// view renders the job for the API. Results are included only when
// requested (job detail), keeping list responses compact.
func (j *job) view(includeResults bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Status:    j.status,
		Circuit:   j.circName,
		Qubits:    j.qubits,
		Gates:     j.gates,
		Backend:   j.backend,
		Priority:  j.priority,
		Sweep:     j.spec.Sweep,
		Cached:    j.cached,
		Submitted: j.submitted,
		Error:     j.errMsg,
		Progress:  j.progress,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if includeResults {
		v.results = j.results
	}
	return v
}

// server owns the job table and the HTTP handlers of ddsimd.
type server struct {
	baseCtx    context.Context
	workers    int // shared-pool size per job (0 = GOMAXPROCS)
	maxRuns    int // per-point trajectory budget ceiling
	maxJobs    int // retained jobs; oldest finished are evicted
	maxPending int // admission cap on queued+running jobs

	// clusterCfg, when non-nil, puts the server in coordinator mode:
	// stochastic jobs lease their chunk ranges to the configured
	// worker fleet instead of the local pool (see cluster.go).
	clusterCfg *cluster.Config

	disp    *dispatch.Dispatcher // priority-ordered execution slots
	store   *jobstore.Store      // durable job/result persistence; nil = ephemeral
	limiter *rateLimiter         // per-client submission rate limit; nil = off

	// sseKeepalive is the idle-stream keepalive cadence (0 disables);
	// compactEvery schedules jobstore WAL compaction (0 disables).
	sseKeepalive time.Duration
	compactEvery time.Duration

	// stop ends the maintenance goroutines started by every; maint
	// counts them so close can wait.
	stop  chan struct{}
	maint sync.WaitGroup

	pending atomic.Int64 // jobs whose run goroutine has not finished

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for stable listings
	next  int
	// byKey names, for each job key, the job that answers it: the
	// in-flight leader simulating it, or the newest retained job that
	// finished clean and cacheable (see resolve). An entry names a job
	// in jobs; pruneLocked drops it with its job.
	byKey map[string]*job

	wg sync.WaitGroup
}

// newServer creates a server whose jobs are children of ctx (cancel
// ctx to abort everything, e.g. on shutdown). maxActive bounds the
// number of concurrently simulating jobs, workers the per-job pool
// size, and maxRuns the accepted per-point trajectory budget. The
// returned server has no store or rate limiter (both are optional);
// set them before serving requests — main.go constructs them from
// flags, so the defaults live in exactly one place.
func newServer(ctx context.Context, maxActive, workers, maxRuns int) *server {
	return &server{
		baseCtx:      ctx,
		workers:      workers,
		maxRuns:      maxRuns,
		maxJobs:      256,
		maxPending:   128,
		disp:         dispatch.NewDispatcher(maxActive),
		sseKeepalive: defaultSSEKeepalive,
		stop:         make(chan struct{}),
		jobs:         make(map[string]*job),
		byKey:        make(map[string]*job),
	}
}

// startMaintenance starts every periodic duty on its own ticker:
// rate-bucket refills (which also evict idle buckets), jobstore WAL
// compaction, and the telemetry snapshot refresh. Call once, after
// the optional store and limiter fields are set; close stops them.
func (s *server) startMaintenance() {
	if s.limiter != nil {
		s.every(s.limiter.refillEvery, func() { s.limiter.refill(time.Now()) })
	}
	if s.store != nil && s.compactEvery > 0 {
		s.every(s.compactEvery, func() {
			if err := s.store.Compact(); err != nil {
				fmt.Fprintf(os.Stderr, "ddsimd: compact WAL: %v\n", err)
			}
		})
	}
	s.every(gaugeRefreshEvery, s.refreshGauges)
}

// every runs f every d on a goroutine of its own until close. A run
// that overruns d delays the next one instead of overlapping it (the
// ticker drops the ticks it missed).
func (s *server) every(d time.Duration, f func()) {
	s.maint.Add(1)
	go func() {
		defer s.maint.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f()
			case <-s.stop:
				return
			}
		}
	}()
}

// refreshGauges pushes dispatch-plane snapshots into the telemetry
// gauges exposed on /metrics.
func (s *server) refreshGauges() {
	telemetry.DispatchWaiting.Set(s.disp.Waiting())
	telemetry.DispatchGranted.Set(s.disp.Granted())
}

// close stops the maintenance duties, waiting for a running one to
// finish.
func (s *server) close() {
	close(s.stop)
	s.maint.Wait()
}

// handler returns the service's HTTP routing table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.Handle("GET /metrics", telemetry.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// workerHandler is the -worker mode routing table: the cluster work
// plane (one streamed request per lease) plus observability. The
// /work/run handler lives in internal/cluster; the route is
// re-registered here so the docs gate keeps docs/API.md covering it.
func workerHandler(wk *cluster.Worker) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /work/run", wk.Handler())
	mux.Handle("GET /metrics", telemetry.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "mode": "worker"})
	})
	return mux
}

// wait blocks until every job goroutine has exited (call after
// cancelling baseCtx during shutdown).
func (s *server) wait() { s.wg.Wait() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveCircuit builds the submission's circuit from inline QASM or a
// built-in benchmark name.
func resolveCircuit(spec circuitSpec) (*ddsim.Circuit, error) {
	switch {
	case spec.QASM != "" && spec.Name != "":
		return nil, fmt.Errorf("circuit: qasm and name are mutually exclusive")
	case spec.QASM != "":
		return ddsim.ParseQASM("submitted", spec.QASM)
	case spec.Name != "":
		if spec.N < 1 {
			return nil, fmt.Errorf("circuit: built-in %q needs a positive qubit count n", spec.Name)
		}
		b, err := qbench.ByName(spec.Name, spec.N)
		if err != nil {
			return nil, err
		}
		return b.Circuit, nil
	default:
		return nil, fmt.Errorf("circuit: either qasm or name is required")
	}
}

// compile validates a submission and builds its circuit and noise
// points. It normalises spec in place (default backend). Every error
// is a client error (the submission can never succeed).
func (s *server) compile(spec *jobSpec) (*ddsim.Circuit, []ddsim.NoiseModel, error) {
	// Bound the register before building anything: circuit
	// construction is O(gates) and the handler runs it synchronously.
	if spec.Circuit.N > maxQubits {
		return nil, nil, fmt.Errorf("circuit.n %d exceeds the %d-qubit limit",
			spec.Circuit.N, maxQubits)
	}
	circ, err := resolveCircuit(spec.Circuit)
	if err != nil {
		return nil, nil, err
	}
	if circ.NumQubits > maxQubits {
		return nil, nil, fmt.Errorf("circuit has %d qubits, limit is %d",
			circ.NumQubits, maxQubits)
	}
	if spec.Backend == "" {
		spec.Backend = ddsim.BackendDD
	}
	if _, err := ddsim.Factory(spec.Backend); err != nil {
		return nil, nil, err
	}
	if err := spec.Options.ValidateMode(); err != nil {
		return nil, nil, err
	}
	if spec.Options.Mode == ddsim.ModeExact {
		// Exact mode has its own (tighter) register ceilings per
		// density-matrix representation, and rejects fidelity tracking
		// on measuring circuits; fail the submission, not the job.
		if err := exact.Validate(circ, spec.Options); err != nil {
			return nil, nil, err
		}
	} else if spec.Backend != ddsim.BackendDD && circ.NumQubits > maxDenseQubits {
		return nil, nil, fmt.Errorf(
			"backend %q allocates 2^n amplitudes per worker; %d qubits exceeds its %d-qubit limit",
			spec.Backend, circ.NumQubits, maxDenseQubits)
	}
	if spec.Priority < -maxPriority || spec.Priority > maxPriority {
		return nil, nil, fmt.Errorf("priority %d outside [%d, %d]",
			spec.Priority, -maxPriority, maxPriority)
	}
	base := ddsim.NoNoise()
	if spec.Noise != nil {
		base = *spec.Noise
	}
	models := []ddsim.NoiseModel{base}
	if len(spec.Sweep) > 0 {
		models = make([]ddsim.NoiseModel, len(spec.Sweep))
		for i, scale := range spec.Sweep {
			models[i] = base.Scale(scale)
		}
	}
	for i, m := range models {
		// ValidateFor additionally checks extended channels against the
		// register (a device description must calibrate every qubit).
		if err := m.ValidateFor(circ.NumQubits); err != nil {
			return nil, nil, fmt.Errorf("noise point %d: %v", i, err)
		}
	}
	// The runs budget is a trajectory knob; exact-mode submissions
	// ignore it entirely (documented in API.md), so it must not fail
	// admission there.
	if spec.Options.Mode != ddsim.ModeExact && s.maxRuns > 0 && spec.Options.Runs > s.maxRuns {
		return nil, nil, fmt.Errorf("options.runs %d exceeds the server limit %d",
			spec.Options.Runs, s.maxRuns)
	}
	return circ, models, nil
}

// publish inserts a job into the table, making it visible to the API:
// an accepted (and, with a store, persisted) job from admit, or a job
// restored settled. A submission that fails persistence (500) is never
// published, so it is never observable.
func (s *server) publish(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	evicted := s.pruneLocked()
	s.mu.Unlock()
	s.evictFromStore(evicted)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission stage 1: per-client token bucket. A client over its
	// submission rate is told when to come back.
	if s.limiter != nil {
		if ok, wait := s.limiter.allow(clientKey(r), time.Now()); !ok {
			telemetry.JobsRejected.With("rate_limit").Inc()
			secs := int(wait/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeErr(w, http.StatusTooManyRequests,
				"submission rate limit exceeded; retry in %ds", secs)
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec jobSpec
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	circ, models, err := s.compile(&spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission stage 2: beyond maxPending unfinished jobs, shed load
	// instead of growing the queue (goroutines, contexts, job state)
	// without bound.
	if s.maxPending > 0 && s.pending.Load() >= int64(s.maxPending) {
		telemetry.JobsRejected.With("queue_full").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(queueFullRetryAfter))
		writeErr(w, http.StatusTooManyRequests,
			"job queue full (%d unfinished jobs); retry later", s.maxPending)
		return
	}

	s.mu.Lock()
	s.next++
	id := fmt.Sprintf("j%d", s.next)
	s.mu.Unlock()
	rec := jobstore.Record{
		ID:        id,
		Priority:  spec.Priority,
		Submitted: time.Now(),
		Circuit:   circ.Name,
		Qubits:    circ.NumQubits,
		Gates:     circ.GateCount(),
		Backend:   spec.Backend,
	}
	if s.store != nil {
		rec.Spec, _ = json.Marshal(spec)
		if err := s.store.PutJob(rec); err != nil {
			// The durability contract is broken; refuse the job rather
			// than accept work that a restart would silently lose. The
			// job was never built, so nothing observed it, and the
			// failed append cut its line back out of the WAL (or, if
			// it could not, closed the WAL for every later write).
			writeErr(w, http.StatusInternalServerError, "persist job: %v", err)
			return
		}
	}
	s.admit(newJob(jobstore.Recovered{Record: rec}, spec, circ, models))

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     id,
		"status": statusQueued,
		"links": map[string]string{
			"self":   "/jobs/" + id,
			"events": "/jobs/" + id + "/events",
		},
	})
}

// run drives one job through its lifecycle: resolve it against the
// jobs of the same key (serve a hit instantly, or join an identical
// in-flight job), otherwise wait for a simulation slot in priority
// order, execute every noise point through one shared worker pool,
// and record and persist the outcome, which wakes the jobs that
// joined it. Cancelling the job context at any stage aborts cleanly —
// while queued the job just flips to cancelled, while running the
// engine returns the partial results with Interrupted set.
func (s *server) run(j *job) {
	defer s.wg.Done()
	defer s.pending.Add(-1)
	// Release the job's context registration in baseCtx once the job
	// is over, whether or not anyone ever called DELETE.
	defer j.cancel()

	if s.resolve(j) {
		return
	}
	enqueued := time.Now()
	if err := s.disp.Acquire(j.ctx, j.priority, j.seq); err != nil {
		s.complete(j, nil, nil)
		return
	}
	defer s.disp.Release()
	telemetry.QueueWaitSeconds.Observe(time.Since(enqueued).Seconds())

	j.start()

	simStart := time.Now()
	var results []*ddsim.Result
	var err error
	if s.clusterCfg != nil && j.spec.Options.Mode != ddsim.ModeExact {
		// Coordinator mode: chunk ranges lease out to the worker
		// fleet; the merged result reproduces itself for the same
		// job, and matches the local path below only where
		// results agree across worker counts (statevec, sparse,
		// cache-resident DDs). Exact-mode jobs have no chunked
		// run-index space and stay local.
		results, err = s.runOnCluster(j)
	} else {
		batch := make([]ddsim.BatchJob, len(j.models))
		for i, m := range j.models {
			opts := j.spec.Options
			opts.OnProgress = j.publish // Progress.Job = noise-point index
			batch[i] = ddsim.BatchJob{Circuit: j.circ, Model: m, Opts: opts}
		}
		results, err = ddsim.BatchSimulate(j.ctx, j.backend, batch, s.workers)
	}
	telemetry.SimulateSeconds.Observe(time.Since(simStart).Seconds())
	s.complete(j, results, err)
}

// resolve settles a job against byKey before it simulates. It
// returns true when the job reached a terminal state without
// simulating; false obliges the caller to simulate it, as the leader
// of its key when it has one. Each pass reads the key's entry l:
//
//   - none, or l finished without cacheable results: j becomes the
//     entry and simulates (a miss);
//   - l finished clean and cacheable: j is served l's encoded results
//     (a hit);
//   - l is in flight: j waits for l (a join) and, if l ends
//     cacheable, is served its results. Otherwise the pass repeats,
//     so one of l's waiters takes over as the new leader.
//
// A job cancelled before it is served finishes cancelled, never as a
// hit.
func (s *server) resolve(j *job) bool {
	if j.key == "" {
		return false
	}
	for {
		// A definitively cancelled job (DELETE before this goroutine
		// got here or while it waited, or shutdown) must terminate as
		// cancelled — a hit must not overrule an acknowledged
		// cancellation.
		if j.ctx.Err() != nil {
			s.complete(j, nil, nil)
			return true
		}
		s.mu.Lock()
		l := s.byKey[j.key]
		var results json.RawMessage
		settled, cacheable := false, false
		if l != nil {
			results, settled, cacheable = l.outcome()
		}
		if l == nil || settled && !cacheable {
			s.byKey[j.key] = j
			s.mu.Unlock()
			telemetry.ResCacheMisses.Inc()
			return false
		}
		s.mu.Unlock()
		if settled {
			telemetry.ResCacheHits.Inc()
			s.finishFromCache(j, results)
			return true
		}
		telemetry.ResCacheJoins.Inc()
		select {
		case <-l.done:
			// Read the leader itself: byKey may already have dropped
			// it, evicted, when the leader's results are still good.
			if results, _, cacheable = l.outcome(); cacheable && j.ctx.Err() == nil {
				s.finishFromCache(j, results)
				return true
			}
		case <-j.ctx.Done():
		}
	}
}

// pruneLocked evicts the oldest finished jobs (and their retained
// results) once more than maxJobs are tracked, returning the evicted
// ids. Queued and running jobs are never evicted — their population
// is bounded separately by the maxPending admission check — so a
// long-lived server stays at bounded memory. An evicted job that
// answered its key stops answering it, so an identical submission
// after that simulates again. Caller holds s.mu and
// must pass the returned ids to evictFromStore *after* unlocking:
// the store deletion fsyncs, and an fsync under s.mu would stall
// every HTTP handler.
func (s *server) pruneLocked() []string {
	if s.maxJobs <= 0 || len(s.order) <= s.maxJobs {
		return nil
	}
	var evicted []string
	excess := len(s.order) - s.maxJobs
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.terminal() {
			delete(s.jobs, id)
			if s.byKey[j.key] == j {
				delete(s.byKey, j.key)
			}
			evicted = append(evicted, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return evicted
}

// evictFromStore forgets evicted jobs durably, so a restart doesn't
// resurrect them. Call without holding s.mu.
func (s *server) evictFromStore(ids []string) {
	if s.store == nil {
		return
	}
	for _, id := range ids {
		if err := s.store.Delete(id); err != nil {
			fmt.Fprintf(os.Stderr, "ddsimd: evict %s from store: %v\n", id, err)
		}
	}
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
	}
	return j
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	// Snapshot the job pointers in one critical section: a concurrent
	// submission may prune entries from s.jobs, but the job objects
	// themselves stay valid.
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.terminal() {
		// Documented no-op: cancelling a job that already reached a
		// terminal state (including one restored from the store after
		// a restart) changes nothing and succeeds with 200.
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "status": st, "noop": true})
		return
	}
	j.userCancel.Store(true)
	j.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": "cancelling"})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"jobs":             n,
		"jobs_queued":      telemetry.JobsQueued.Value(),
		"jobs_running":     telemetry.JobsRunning.Value(),
		"persistence":      s.store != nil,
		"dispatch_waiting": s.disp.Waiting(),
		"dispatch_granted": s.disp.Granted(),
	})
}

// handleEvents streams a job's Progress snapshots as server-sent
// events: zero or more "progress" events (the latest snapshot is
// replayed on subscription, so every consumer sees at least one for a
// job that ran) followed by exactly one "result" event carrying the
// final job view, after which the stream closes.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	sub := j.subscribe()
	defer j.unsubscribe(sub)

	// Keepalive: one ticker per stream, read by this goroutine, so the
	// stream is only ever written from one goroutine.
	var keepalive <-chan time.Time // nil (blocks forever) when disabled
	if s.sseKeepalive > 0 {
		kt := time.NewTicker(s.sseKeepalive)
		defer kt.Stop()
		keepalive = kt.C
	}

	// Replay the latest snapshot so late subscribers still observe
	// progress before the result.
	j.mu.Lock()
	last := j.progress
	j.mu.Unlock()
	if last != nil {
		if !send("progress", *last) {
			return
		}
	}
	for {
		select {
		case p := <-sub:
			if !send("progress", p) {
				return
			}
		case <-keepalive:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
			telemetry.SSEKeepalives.Inc()
		case <-j.done:
			send("result", j.view(true))
			return
		case <-r.Context().Done():
			return
		}
	}
}
