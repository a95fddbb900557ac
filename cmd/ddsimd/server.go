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
	"ddsim/internal/rescache"
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

// Dispatch-plane sizing and maintenance cadences.
const (
	// dispatchRingCap sizes the submit ring. The consumer drains the
	// ring into its heap continuously, so the ring only needs to absorb
	// the burst between two consumer wakeups — 1024 slots is far beyond
	// any maxPending the admission layer allows through.
	dispatchRingCap = 1024
	// defaultSSEKeepalive is the cadence of ": keepalive" comments on
	// idle event streams (one runtime ticker per open stream).
	defaultSSEKeepalive = 15 * time.Second
	// gaugeRefreshEvery is how often dispatch snapshot gauges are
	// pushed to telemetry.
	gaugeRefreshEvery = time.Second
	// cacheSweepEvery is the TTL sweep cadence of the result cache.
	cacheSweepEvery = 30 * time.Second
)

// Job lifecycle states.
const (
	statusQueued    = "queued"    // accepted, waiting for an active-job slot
	statusRunning   = "running"   // trajectories executing
	statusDone      = "done"      // finished normally (possibly with per-point errors)
	statusCancelled = "cancelled" // DELETE /jobs/{id} or server shutdown
	statusFailed    = "failed"    // no point produced a result
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
	Results   []*ddsim.Result `json:"results,omitempty"`
}

// job is one accepted submission and its lifecycle state. Jobs
// restored from the store in a terminal state have a nil circ (the
// circuit summary fields below serve the API without re-compiling)
// and a no-op cancel.
type job struct {
	id       string
	seq      int64 // dispatch tiebreak: submission order
	spec     jobSpec
	circ     *ddsim.Circuit
	models   []ddsim.NoiseModel
	backend  string
	key      string // canonical content hash; "" = uncacheable
	priority int
	ctx      context.Context
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
	status    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  *ddsim.Progress
	results   []*ddsim.Result
	errMsg    string
	cached    bool // result served from the cache or an identical in-flight job
	subs      map[chan ddsim.Progress]struct{}
	done      chan struct{} // closed on reaching a terminal status
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
		v.Results = j.results
	}
	return v
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == statusDone || j.status == statusCancelled || j.status == statusFailed
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

	disp    *dispatch.Dispatcher // lock-free submit ring + priority-ordered slots
	store   *jobstore.Store      // durable job/result persistence; nil = ephemeral
	cache   *rescache.Cache      // content-addressed result cache; nil = disabled
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

	wg sync.WaitGroup
}

// newServer creates a server whose jobs are children of ctx (cancel
// ctx to abort everything, e.g. on shutdown). maxActive bounds the
// number of concurrently simulating jobs, workers the per-job pool
// size, and maxRuns the accepted per-point trajectory budget. The
// returned server has no store, cache or rate limiter (all three are
// optional); set them before serving requests — main.go constructs
// them from flags, so the defaults live in exactly one place.
func newServer(ctx context.Context, maxActive, workers, maxRuns int) *server {
	return &server{
		baseCtx:      ctx,
		workers:      workers,
		maxRuns:      maxRuns,
		maxJobs:      256,
		maxPending:   128,
		disp:         dispatch.NewDispatcher(maxActive, dispatchRingCap),
		sseKeepalive: defaultSSEKeepalive,
		stop:         make(chan struct{}),
		jobs:         make(map[string]*job),
	}
}

// startMaintenance starts every periodic duty on its own ticker:
// rate-bucket refills (which also evict idle buckets), result-cache
// TTL sweeps, jobstore WAL compaction, and the telemetry snapshot
// refresh. Call once, after the optional store/cache/limiter fields
// are set; close stops them.
func (s *server) startMaintenance() {
	if s.limiter != nil {
		s.every(s.limiter.refillEvery, func() { s.limiter.refill(time.Now()) })
	}
	if s.cache != nil {
		s.every(cacheSweepEvery, func() { s.cache.Sweep(time.Now()) })
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
// finish, and then the dispatch consumer. Call after wait() — every
// job goroutine must have released its slot first.
func (s *server) close() {
	close(s.stop)
	s.maint.Wait()
	s.disp.Stop()
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
// plane (lease grant, heartbeat renewal, completion hand-off) plus
// observability. The /work handlers live in internal/cluster; the
// routes are re-registered here so the docs gate keeps docs/API.md
// covering them.
func workerHandler(wk *cluster.Worker) http.Handler {
	mux := http.NewServeMux()
	h := wk.Handler()
	mux.Handle("POST /work/lease", h)
	mux.Handle("POST /work/heartbeat", h)
	mux.Handle("POST /work/complete", h)
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
	switch spec.Options.Checkpointing {
	case "", ddsim.CheckpointAuto, ddsim.CheckpointOff:
	case ddsim.CheckpointOn:
		// The sparse baseline has no fork support; reject at submit
		// instead of failing the job after it queued.
		if spec.Backend == ddsim.BackendSparse {
			return nil, nil, fmt.Errorf(
				"options.checkpointing %q is unsupported by backend %q", ddsim.CheckpointOn, spec.Backend)
		}
	default:
		return nil, nil, fmt.Errorf("options.checkpointing %q invalid (want %s, %s or %s)",
			spec.Options.Checkpointing, ddsim.CheckpointAuto, ddsim.CheckpointOn, ddsim.CheckpointOff)
	}
	return circ, models, nil
}

// newJob builds the in-memory job for a compiled submission and
// allocates its id. The job is NOT yet in the table — the caller
// persists it first and then calls publish, so a submission that
// fails persistence (500) is never observable via the API.
func (s *server) newJob(spec jobSpec, circ *ddsim.Circuit, models []ddsim.NoiseModel) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		spec:      spec,
		circ:      circ,
		models:    models,
		backend:   spec.Backend,
		priority:  spec.Priority,
		circName:  circ.Name,
		qubits:    circ.NumQubits,
		gates:     circ.GateCount(),
		ctx:       ctx,
		cancel:    cancel,
		status:    statusQueued,
		submitted: time.Now(),
		subs:      make(map[chan ddsim.Progress]struct{}),
		done:      make(chan struct{}),
	}
	// The canonical content hash keys the result cache and in-flight
	// dedup. Circuits the QASM writer cannot express have no key and
	// bypass caching.
	if key, err := ddsim.JobKey(circ, spec.Backend, models, spec.Options); err == nil {
		j.key = key
	}
	s.mu.Lock()
	s.next++
	j.id = fmt.Sprintf("j%d", s.next)
	j.seq = int64(s.next)
	s.mu.Unlock()
	return j
}

// publish inserts an accepted (and, with a store, persisted) job
// into the table, making it visible to the API.
func (s *server) publish(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	evicted := s.pruneLocked()
	s.mu.Unlock()
	s.evictFromStore(evicted)
}

// record renders the job's durable submission record.
func (j *job) record() jobstore.Record {
	spec, _ := json.Marshal(j.spec)
	return jobstore.Record{
		ID:        j.id,
		Spec:      spec,
		Priority:  j.priority,
		Submitted: j.submitted,
		Circuit:   j.circName,
		Qubits:    j.qubits,
		Gates:     j.gates,
		Backend:   j.backend,
	}
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

	j := s.newJob(spec, circ, models)
	if s.store != nil {
		if err := s.store.PutJob(j.record()); err != nil {
			// The durability contract is broken; refuse the job rather
			// than accept work that a restart would silently lose. The
			// job was never published, so nothing observed it; the
			// store delete sweeps up a record file that may have
			// landed before the WAL append failed (a surviving record
			// would be recovered as queued on the next restart).
			j.cancel()
			_ = s.store.Delete(j.id)
			writeErr(w, http.StatusInternalServerError, "persist job: %v", err)
			return
		}
	}
	s.publish(j)

	telemetry.JobsQueued.Inc()
	s.pending.Add(1)
	s.wg.Add(1)
	go s.run(j)

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"status": statusQueued,
		"links": map[string]string{
			"self":   "/jobs/" + j.id,
			"events": "/jobs/" + j.id + "/events",
		},
	})
}

// run drives one job through its lifecycle: resolve it against the
// result cache (serve a hit instantly, or join an identical in-flight
// job), otherwise wait for a simulation slot in priority order,
// execute every noise point through one shared worker pool, record
// and persist the outcome, and settle the cache flight. Cancelling
// the job context at any stage aborts cleanly — while queued the job
// just flips to cancelled, while running the engine returns the
// partial results with Interrupted set.
func (s *server) run(j *job) {
	defer s.wg.Done()
	defer s.pending.Add(-1)
	// Release the job's context registration in baseCtx once the job
	// is over, whether or not anyone ever called DELETE.
	defer j.cancel()

	finished, leader := s.serveCached(j)
	if finished {
		return
	}
	enqueued := time.Now()
	tkt, err := s.disp.Submit(j.ctx, j.priority, j.seq)
	if err == nil {
		err = s.disp.Wait(j.ctx, tkt)
	}
	if err != nil {
		telemetry.JobsQueued.Dec()
		s.finalize(j, nil, nil)
		if leader {
			s.cache.Abort(j.key)
		}
		return
	}
	defer s.disp.Release()
	telemetry.QueueWaitSeconds.Observe(time.Since(enqueued).Seconds())

	telemetry.JobsQueued.Dec()
	telemetry.JobsRunning.Inc()
	j.mu.Lock()
	j.status = statusRunning
	j.started = time.Now()
	j.mu.Unlock()
	if s.store != nil {
		_ = s.store.SetStatus(j.id, statusRunning)
	}

	simStart := time.Now()
	var results []*ddsim.Result
	if s.clusterCfg != nil && j.spec.Options.Mode != ddsim.ModeExact {
		// Coordinator mode: chunk ranges lease out to the worker
		// fleet; the merged result is bit-identical to the local
		// path below. Exact-mode jobs have no chunked run-index
		// space and stay local.
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
	telemetry.JobsRunning.Dec()
	s.finalize(j, results, err)
	if leader {
		if payload, ok := j.cachePayload(); ok {
			s.cache.Complete(j.key, payload)
		} else {
			s.cache.Abort(j.key)
		}
	}
}

// serveCached resolves a job against the result cache per the
// rescache protocol. It returns finished=true when the job reached a
// terminal state without simulating (cache hit, dedup join, or
// cancellation while waiting on one); otherwise the caller must
// simulate, and leader=true obliges it to settle the flight with
// Complete or Abort.
func (s *server) serveCached(j *job) (finished, leader bool) {
	if s.cache == nil || j.key == "" {
		return false, false
	}
	for {
		// A definitively cancelled job (DELETE before this goroutine
		// got here, or shutdown) must terminate as cancelled — a
		// cache hit must not overrule an acknowledged cancellation.
		if j.ctx.Err() != nil {
			telemetry.JobsQueued.Dec()
			s.finalize(j, nil, nil)
			return true, false
		}
		val, ch, outcome := s.cache.GetOrJoin(j.key)
		switch outcome {
		case rescache.Hit:
			return s.finishFromCache(j, val), false
		case rescache.Join:
			select {
			case v, ok := <-ch:
				if !ok {
					continue // leader aborted: retry (maybe lead now)
				}
				return s.finishFromCache(j, v), false
			case <-j.ctx.Done():
				s.cache.Leave(j.key, ch)
				telemetry.JobsQueued.Dec()
				s.finalize(j, nil, nil)
				return true, false
			}
		default: // rescache.Lead
			return false, true
		}
	}
}

// finishFromCache completes a job with a cached payload, marking it
// done without burning any trajectories. A payload that fails to
// decode (cannot happen with payloads this process wrote) reports
// false and the job simulates normally.
func (s *server) finishFromCache(j *job, payload []byte) bool {
	var results []*ddsim.Result
	if err := json.Unmarshal(payload, &results); err != nil || len(results) == 0 {
		return false
	}
	telemetry.JobsQueued.Dec()
	now := time.Now()
	j.mu.Lock()
	j.status = statusDone
	j.started = now
	j.finished = now
	j.results = results
	j.cached = true
	telemetry.E2ESeconds.Observe(now.Sub(j.submitted).Seconds())
	j.mu.Unlock()
	telemetry.JobsDone.With(statusDone).Inc()
	close(j.done)
	s.persistFinal(j)
	return true
}

// cachePayload marshals the job's results for the cache, but only
// when they are a pure function of the job key: a clean, complete,
// un-truncated success. Partial, failed, interrupted or timed-out
// outcomes must never be served to a later identical submission.
func (j *job) cachePayload() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != statusDone || j.errMsg != "" || len(j.results) == 0 {
		return nil, false
	}
	for _, r := range j.results {
		if r == nil || r.Interrupted || r.TimedOut {
			return nil, false
		}
	}
	payload, err := json.Marshal(j.results)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// finalize records a job's terminal state and persists it.
func (s *server) finalize(j *job, results []*ddsim.Result, err error) {
	j.complete(results, err)
	s.persistFinal(j)
}

// persistFinal writes the job's terminal state to the store. A
// cancellation that was *not* an explicit DELETE — i.e. the server is
// shutting down or crashed — is deliberately not persisted: the WAL
// keeps the job's last in-flight status, so the next start re-queues
// and re-runs it (same seed, bit-identical result).
func (s *server) persistFinal(j *job) {
	if s.store == nil {
		return
	}
	j.mu.Lock()
	f := jobstore.Final{
		Status:   j.status,
		Error:    j.errMsg,
		Started:  j.started,
		Finished: j.finished,
	}
	if len(j.results) > 0 {
		if data, err := json.Marshal(j.results); err == nil {
			f.Results = data
		}
	}
	j.mu.Unlock()
	if f.Status == statusCancelled && !j.userCancel.Load() {
		return
	}
	start := time.Now()
	err := s.store.PutFinal(j.id, f)
	telemetry.PersistSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddsimd: persist final state of %s: %v\n", j.id, err)
	}
}

// complete records the terminal state of a job and wakes up every
// event stream. A cancelled job keeps whatever partial results the
// engine aggregated (their Interrupted flag is set by the engine). A
// cancellation that raced the natural end of the simulation — every
// point finished, nothing interrupted — still counts as done.
func (j *job) complete(results []*ddsim.Result, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.results = results
	switch {
	case err == nil && allResultsClean(results):
		j.status = statusDone
	case j.ctx.Err() != nil:
		j.status = statusCancelled
	case err != nil && !anyResult(results):
		j.status = statusFailed
	default:
		j.status = statusDone
	}
	if err != nil {
		j.errMsg = err.Error()
	}
	telemetry.E2ESeconds.Observe(j.finished.Sub(j.submitted).Seconds())
	telemetry.JobsDone.With(j.status).Inc()
	j.mu.Unlock()
	close(j.done)
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

// pruneLocked evicts the oldest finished jobs (and their retained
// results) once more than maxJobs are tracked, returning the evicted
// ids. Queued and running jobs are never evicted — their population
// is bounded separately by the maxPending admission check — so a
// long-lived server stays at bounded memory. Caller holds s.mu and
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

func anyResult(results []*ddsim.Result) bool {
	for _, r := range results {
		if r != nil {
			return true
		}
	}
	return false
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
	h := map[string]any{
		"status":           "ok",
		"jobs":             n,
		"jobs_queued":      telemetry.JobsQueued.Value(),
		"jobs_running":     telemetry.JobsRunning.Value(),
		"persistence":      s.store != nil,
		"dispatch_waiting": s.disp.Waiting(),
		"dispatch_granted": s.disp.Granted(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		h["cache_entries"] = cs.Entries
		h["cache_bytes"] = cs.Bytes
	}
	writeJSON(w, http.StatusOK, h)
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
