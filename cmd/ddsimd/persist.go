package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ddsim/internal/telemetry"
)

// restore replays the job store into the server: jobs that reached a
// terminal state before the restart are re-inserted with their
// persisted results and served without any simulation, while jobs
// that were queued or running at the crash are re-queued and re-run
// with the same seed (main.go says when that reproduces the lost
// run). Call once, after the store is attached and before the
// listener starts.
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
			// No circuit is compiled and no context exists: the job
			// only serves reads (GET returns the persisted results,
			// DELETE is the documented no-op, the event stream emits
			// the final result immediately).
			s.publish(newJob(rc, spec, nil, nil))
			telemetry.JobsRecovered.With("served").Inc()
			served++
			continue
		}
		// The spec re-enters the submit path (compile, key, dispatch)
		// with its original id, priority and submission time.
		circ, models, err := s.compile(&spec)
		j := newJob(rc, spec, circ, models)
		if err != nil {
			// The spec was valid when accepted; failing to compile now
			// means the server's limits changed across the restart.
			// Fail the job durably and visibly instead of dropping it.
			s.failRestored(j, err)
			s.publish(j)
			telemetry.JobsRecovered.With("failed").Inc()
			fmt.Fprintf(os.Stderr, "ddsimd: restore %s: failed permanently: %v\n", rc.Record.ID, err)
			continue
		}
		s.admit(j)
		telemetry.JobsRecovered.With("requeued").Inc()
		requeued++
	}
	return served, requeued
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
