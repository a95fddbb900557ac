package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"ddsim/internal/sim"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// maxWorkerTasks bounds the retained task map. Finished tasks whose
// coordinator never collected them (a coordinator that died after the
// lease was reassigned) are evicted oldest lease first past this
// bound; re-simulation covers anything evicted.
const maxWorkerTasks = 64

// Worker serves leased chunk computations. It is stateless across
// restarts: every task lives only in memory, keyed by its lease
// token, and a worker that dies simply forces the coordinator to
// reassign the lease.
type Worker struct {
	// Resolve maps a backend name to a simulation factory; ddsimd
	// injects its factory table.
	resolve func(backend string) (sim.Factory, error)

	// Gate, when non-nil, is called before each chunk of every task
	// with the lease token and the absolute chunk index. Tests use it
	// to block a worker mid-range so lease expiry and stale-completion
	// schedules become deterministic.
	Gate func(lease Token, chunk int)

	// DropHeartbeats, when set, makes /work/heartbeat fail with 503 —
	// a heartbeat-path network partition in one switch, for fault
	// tests.
	DropHeartbeats func() bool

	mu    sync.Mutex
	tasks map[Token]*workerTask
}

type workerTask struct {
	cancel context.CancelFunc

	mu         sync.Mutex
	phase      string
	chunksDone int
	sums       []stochastic.ChunkSum
	err        string
}

// NewWorker returns a worker resolving backends through resolve.
func NewWorker(resolve func(backend string) (sim.Factory, error)) *Worker {
	return &Worker{resolve: resolve, tasks: make(map[Token]*workerTask)}
}

// Handler returns the worker's HTTP routes, mountable under any mux.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /work/lease", w.handleLease)
	mux.HandleFunc("POST /work/heartbeat", w.handleHeartbeat)
	mux.HandleFunc("POST /work/complete", w.handleComplete)
	return mux
}

// Close cancels every in-flight task.
func (w *Worker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range w.tasks {
		t.cancel()
	}
}

func (w *Worker) handleLease(rw http.ResponseWriter, r *http.Request) {
	telemetry.ClusterWorkerRequests.With("lease").Inc()
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decode lease: %w", err))
		return
	}
	lease, err := parseLeaseID(req.LeaseID)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	job, err := req.Job.Job()
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	factory, err := w.resolve(req.Job.Backend)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &workerTask{cancel: cancel, phase: phaseRunning}

	w.mu.Lock()
	if _, dup := w.tasks[lease]; dup {
		w.mu.Unlock()
		cancel()
		// Idempotent: the coordinator retried a lease RPC whose first
		// attempt actually landed. The running task stands.
		rw.WriteHeader(http.StatusAccepted)
		return
	}
	w.tasks[lease] = t
	w.evictLocked()
	w.mu.Unlock()

	go func() {
		defer cancel()
		first, count := req.First, req.Count
		onChunk := func(done int) {
			t.mu.Lock()
			t.chunksDone = done
			t.mu.Unlock()
			telemetry.ClusterChunksComputed.Inc()
			if hook := w.Gate; hook != nil && done < count {
				hook(lease, first+done) // gate before each subsequent chunk
			}
		}
		if hook := w.Gate; hook != nil {
			hook(lease, first) // gate before the first chunk
		}
		sums, err := stochastic.RunChunks(ctx, factory, job, first, count, onChunk)
		t.mu.Lock()
		defer t.mu.Unlock()
		if err != nil {
			t.phase = phaseFailed
			t.err = err.Error()
			return
		}
		t.phase = phaseDone
		t.sums = sums
	}()
	rw.WriteHeader(http.StatusAccepted)
}

func (w *Worker) handleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	telemetry.ClusterWorkerRequests.With("heartbeat").Inc()
	if drop := w.DropHeartbeats; drop != nil && drop() {
		writeError(rw, http.StatusServiceUnavailable, fmt.Errorf("heartbeats dropped"))
		return
	}
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decode heartbeat: %w", err))
		return
	}
	t := w.lookup(req.LeaseID, rw)
	if t == nil {
		return
	}
	t.mu.Lock()
	resp := heartbeatResponse{Phase: t.phase, ChunksDone: t.chunksDone, Error: t.err}
	t.mu.Unlock()
	writeJSON(rw, resp)
}

func (w *Worker) handleComplete(rw http.ResponseWriter, r *http.Request) {
	telemetry.ClusterWorkerRequests.With("complete").Inc()
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decode complete: %w", err))
		return
	}
	t := w.lookup(req.LeaseID, rw)
	if t == nil {
		return
	}
	t.mu.Lock()
	phase, sums := t.phase, t.sums
	t.mu.Unlock()
	if phase != phaseDone {
		writeError(rw, http.StatusConflict, fmt.Errorf("lease %s is %s, not done", req.LeaseID, phase))
		return
	}
	// Hand-off complete: drop the task. The coordinator owns the sums
	// now; a lost response is covered by re-simulation.
	lease, _ := parseLeaseID(req.LeaseID)
	w.mu.Lock()
	delete(w.tasks, lease)
	w.mu.Unlock()
	writeJSON(rw, completeResponse{Sums: sums})
}

// lookup resolves a lease token to its task, writing the error
// response (400/404) itself when it returns nil.
func (w *Worker) lookup(id string, rw http.ResponseWriter) *workerTask {
	lease, err := parseLeaseID(id)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return nil
	}
	w.mu.Lock()
	t := w.tasks[lease]
	w.mu.Unlock()
	if t == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("unknown lease %s", id))
		return nil
	}
	return t
}

// evictLocked drops finished tasks past maxWorkerTasks, the one with
// the smallest token first: tokens increase with mint time, so that is
// the oldest lease. Running tasks are never evicted. Callers hold w.mu.
func (w *Worker) evictLocked() {
	for len(w.tasks) > maxWorkerTasks {
		var victim Token
		for id, t := range w.tasks {
			t.mu.Lock()
			idle := t.phase != phaseRunning
			t.mu.Unlock()
			if idle && (victim == 0 || id < victim) {
				victim = id
			}
		}
		if victim == 0 {
			return // everything is running; let it be
		}
		w.tasks[victim].cancel()
		delete(w.tasks, victim)
	}
}

func parseLeaseID(s string) (Token, error) {
	var id uint64
	if _, err := fmt.Sscanf(s, "%016x", &id); err != nil || id == 0 {
		return 0, fmt.Errorf("cluster: malformed lease id %q", s)
	}
	return Token(id), nil
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, code int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(errorResponse{Error: err.Error()})
}
