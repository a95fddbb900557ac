package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ddsim/internal/sim"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// Worker serves leased chunk computations. It holds no state between
// requests: a lease's computation lives exactly as long as the
// /work/run request that carries it, so a worker that dies, or a
// coordinator that hangs up, leaves nothing behind.
type Worker struct {
	// Resolve maps a backend name to a simulation factory; ddsimd
	// injects its factory table.
	resolve func(backend string) (sim.Factory, error)

	// Gate, when non-nil, is called before each chunk of every lease
	// with the lease token and the absolute chunk index. Tests use it
	// to block a worker mid-range so lease expiry and stale-completion
	// schedules become deterministic.
	Gate func(lease Token, chunk int)
}

// NewWorker returns a worker resolving backends through resolve.
func NewWorker(resolve func(backend string) (sim.Factory, error)) *Worker {
	return &Worker{resolve: resolve}
}

// Handler returns the worker's HTTP routes, mountable under any mux.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /work/run", w.handleRun)
	return mux
}

// handleRun validates a lease, answering 400 before any line if the
// body is malformed, and then streams the computation: a keepalive
// line every req.Keepalive, then one final line. The computation runs
// under the request's context, so a coordinator that hangs up stops it
// at the next trajectory, and the handler returns at once.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	telemetry.ClusterWorkerRequests.With("run").Inc()
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decode run request: %w", err))
		return
	}
	lease, err := parseLeaseID(req.LeaseID)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if req.Keepalive < minKeepalive {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: keepalive %v below %v", req.Keepalive, minKeepalive))
		return
	}
	job, err := req.Job.Job()
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if req.First < 0 || req.Count < 1 || req.Count > plan.NumChunks-req.First {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: chunk range [%d,+%d) outside plan of %d chunks", req.First, req.Count, plan.NumChunks))
		return
	}
	factory, err := w.resolve(req.Job.Backend)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	done := make(chan runLine, 1) // the computation never blocks on a handler that has returned
	go func() {
		first, count := req.First, req.Count
		onChunk := func(n int) {
			telemetry.ClusterChunksComputed.Inc()
			if hook := w.Gate; hook != nil && n < count {
				hook(lease, first+n) // gate before each subsequent chunk
			}
		}
		if hook := w.Gate; hook != nil {
			hook(lease, first) // gate before the first chunk
		}
		sums, err := stochastic.RunChunks(ctx, factory, job, first, count, onChunk)
		if err != nil {
			done <- runLine{Error: err.Error()}
			return
		}
		done <- runLine{Sums: sums}
	}()

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(rw)
	enc := json.NewEncoder(rw)
	send := func(l runLine) error {
		if err := enc.Encode(l); err != nil {
			return err
		}
		return rc.Flush()
	}
	if rc.Flush() != nil { // the headers go out now
		return
	}
	tick := time.NewTicker(req.Keepalive)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if send(runLine{}) != nil {
				return
			}
		case l := <-done:
			_ = send(l) // nothing is left to do if the coordinator has gone
			return
		}
	}
}

func parseLeaseID(s string) (Token, error) {
	var id uint64
	if _, err := fmt.Sscanf(s, "%016x", &id); err != nil || id == 0 {
		return 0, fmt.Errorf("cluster: malformed lease id %q", s)
	}
	return Token(id), nil
}

func writeError(rw http.ResponseWriter, code int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(runLine{Error: err.Error()})
}
