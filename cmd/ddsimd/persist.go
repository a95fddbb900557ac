package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ddsim"
	"ddsim/internal/jobstore"
	"ddsim/internal/telemetry"
)

// restore replays the job store into the server: jobs that reached a
// terminal state before the restart are re-inserted with their
// persisted results and served without any simulation, while jobs
// that were queued or running at the crash are re-queued and re-run
// with the same seed (main.go says when that reproduces the lost
// run). Call once,
// after the store is attached and before the listener starts.
func (s *server) restore() (served, requeued int) {
	if s.store == nil {
		return 0, 0
	}
	for _, rc := range s.store.Recover() {
		if n := idNum(rc.Record.ID); n > s.next {
			s.next = n
		}
		var spec jobSpec
		if err := json.Unmarshal(rc.Record.Spec, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "ddsimd: restore %s: corrupt spec: %v\n", rc.Record.ID, err)
			continue
		}
		if rc.Final != nil {
			s.restoreFinished(rc, spec)
			telemetry.JobsRecovered.With("served").Inc()
			served++
			continue
		}
		if err := s.requeue(rc, spec); err != nil {
			// The spec was valid when accepted; failing to compile now
			// means the server's limits changed across the restart.
			// Fail the job durably and visibly instead of dropping it.
			s.failRestored(rc, spec, err)
			telemetry.JobsRecovered.With("failed").Inc()
			fmt.Fprintf(os.Stderr, "ddsimd: restore %s: failed permanently: %v\n", rc.Record.ID, err)
			continue
		}
		telemetry.JobsRecovered.With("requeued").Inc()
		requeued++
	}
	s.mu.Lock()
	evicted := s.pruneLocked()
	s.mu.Unlock()
	s.evictFromStore(evicted)
	return served, requeued
}

// restoreFinished inserts a terminal job reconstructed purely from
// disk: no circuit is compiled, the results stay encoded as stored
// and no context exists — the job only serves reads (GET returns the
// persisted results, DELETE is the documented no-op, the event
// stream emits the final result immediately).
func (s *server) restoreFinished(rc jobstore.Recovered, spec jobSpec) {
	j := &job{
		id:        rc.Record.ID,
		spec:      jobSpec{Sweep: spec.Sweep},
		backend:   rc.Record.Backend,
		priority:  rc.Record.Priority,
		circName:  rc.Record.Circuit,
		qubits:    rc.Record.Qubits,
		gates:     rc.Record.Gates,
		cancel:    func() {},
		status:    rc.Status,
		submitted: rc.Record.Submitted,
		started:   rc.Final.Started,
		finished:  rc.Final.Finished,
		errMsg:    rc.Final.Error,
		results:   rc.Final.Results,
		subs:      make(map[chan ddsim.Progress]struct{}),
		done:      make(chan struct{}),
	}
	close(j.done)
	s.insertRestored(j)
}

// requeue re-admits a job that was in flight at the crash: the spec
// re-enters the submit path (compile, key, dispatch) with its
// original id, priority and submission time. A compile error is
// returned to the caller, which records the job as permanently
// failed.
func (s *server) requeue(rc jobstore.Recovered, spec jobSpec) error {
	circ, models, err := s.compile(&spec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        rc.Record.ID,
		spec:      spec,
		circ:      circ,
		models:    models,
		backend:   spec.Backend,
		priority:  rc.Record.Priority,
		circName:  circ.Name,
		qubits:    circ.NumQubits,
		gates:     circ.GateCount(),
		ctx:       ctx,
		cancel:    cancel,
		status:    statusQueued,
		submitted: rc.Record.Submitted,
		subs:      make(map[chan ddsim.Progress]struct{}),
		done:      make(chan struct{}),
	}
	j.seq = int64(idNum(j.id))
	if key, err := ddsim.JobKey(circ, spec.Backend, models, spec.Options); err == nil {
		j.key = key
	}
	s.insertRestored(j)
	telemetry.JobsQueued.Inc()
	s.pending.Add(1)
	s.wg.Add(1)
	go s.run(j)
	return nil
}

// failRestored records a permanently failed restoration as a terminal
// job, visible over the API and durable across further restarts.
func (s *server) failRestored(rc jobstore.Recovered, spec jobSpec, cause error) {
	now := time.Now()
	j := &job{
		id:        rc.Record.ID,
		spec:      jobSpec{Sweep: spec.Sweep},
		backend:   rc.Record.Backend,
		priority:  rc.Record.Priority,
		circName:  rc.Record.Circuit,
		qubits:    rc.Record.Qubits,
		gates:     rc.Record.Gates,
		cancel:    func() {},
		status:    statusFailed,
		submitted: rc.Record.Submitted,
		started:   now,
		finished:  now,
		errMsg:    fmt.Sprintf("restore: %v", cause),
		subs:      make(map[chan ddsim.Progress]struct{}),
		done:      make(chan struct{}),
	}
	close(j.done)
	s.insertRestored(j)
	s.persistFinal(j)
}

// insertRestored adds a restored job to the table. Restore runs in
// submission order (the store sorts), so appending keeps listings
// stable across restarts.
func (s *server) insertRestored(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

// idNum extracts the numeric part of a "j<n>" job id (0 when the id
// has another shape).
func idNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}
