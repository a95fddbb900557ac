package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ddsim"
	"ddsim/internal/cluster"
	"ddsim/internal/jobstore"
	"ddsim/internal/telemetry"
)

// ghzQASM is an n-qubit GHZ preparation as an inline-QASM circuit
// field, so the submitted source is part of the job's spec.
func ghzQASM(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\nh q[0];\n", n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", i-1, i)
	}
	src, _ := json.Marshal(b.String())
	return `{"qasm": ` + string(src) + `}`
}

// heldInputs names what a job still holds of what it was compiled
// from: every field holding a circuit, noise points or decoded
// results, and the submitted QASM source. A terminal job keeps only
// what its view prints, so for one this is empty.
func heldInputs(t *testing.T, s *server, id string) []string {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s not in the table", id)
	}
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf((*ddsim.Circuit)(nil)):   true,
		reflect.TypeOf([]ddsim.NoiseModel(nil)): true,
		reflect.TypeOf([]*ddsim.Result(nil)):    true,
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v := reflect.ValueOf(j).Elem()
	var held []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); forbidden[f.Type()] && !f.IsZero() {
			held = append(held, v.Type().Field(i).Name)
		}
	}
	if j.spec.Circuit.QASM != "" {
		held = append(held, "spec.Circuit.QASM")
	}
	return held
}

// TestTerminalJobsDropInputs is the guard for the terminal-state
// deletion: once a job is done, cancelled with partial results,
// failed, served from the cache or restored after a restart, it no
// longer holds its circuit, noise points, decoded results or QASM
// source — only its view's fields and the encoded results.
func TestTerminalJobsDropInputs(t *testing.T) {
	dir := t.TempDir()
	ts1, s1, stop1 := newPersistentServer(t, dir)
	noisy := `"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true}`
	body := `{"circuit": ` + ghzQASM(4) + `, ` + noisy + `, "options": {"runs": 30, "seed": 4}}`

	want := map[string]string{}
	check := func(label string, s *server, id string) {
		t.Helper()
		if held := heldInputs(t, s, id); len(held) > 0 {
			t.Errorf("%s job %s still holds %v", label, id, held)
		}
	}

	done := submit(t, ts1, body)
	if v := waitTerminal(t, ts1, done); v.Status != statusDone || len(v.Results) != 1 {
		t.Fatalf("done job: %+v", v)
	}
	want[done] = statusDone
	check("done", s1, done)

	dup := submit(t, ts1, body)
	if v := waitTerminal(t, ts1, dup); v.Status != statusDone || !v.Cached {
		t.Fatalf("duplicate job: status %s, cached %v", v.Status, v.Cached)
	}
	want[dup] = statusDone
	check("cached", s1, dup)

	long := `{"circuit": ` + ghzQASM(12) + `, ` + noisy +
		`, "options": {"runs": 3000000, "seed": 1, "progress_every": 1, "chunk_size": 16}}`
	cancelled := submit(t, ts1, long)
	resp, err := http.Get(ts1.URL + "/jobs/" + cancelled + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: progress") {
			break // a trajectory committed: the cancellation leaves a partial result
		}
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/jobs/"+cancelled, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if v := waitTerminal(t, ts1, cancelled); v.Status != statusCancelled ||
		len(v.Results) != 1 || v.Results[0] == nil || !v.Results[0].Interrupted {
		t.Fatalf("cancelled job: status %s, results %+v", v.Status, v.Results)
	}
	want[cancelled] = statusCancelled
	check("cancelled", s1, cancelled)

	// A coordinator whose only worker is unreachable fails the job.
	s1.clusterCfg = &cluster.Config{
		Workers:  []string{"http://127.0.0.1:1"},
		LeaseTTL: 50 * time.Millisecond,
	}
	failed := submit(t, ts1, `{"circuit": `+ghzQASM(3)+`, "options": {"runs": 16, "seed": 9}}`)
	if v := waitTerminal(t, ts1, failed); v.Status != statusFailed {
		t.Fatalf("failed job: status %s", v.Status)
	}
	want[failed] = statusFailed
	check("failed", s1, failed)
	stop1()

	ts2, s2, _ := newPersistentServer(t, dir)
	for id, status := range want {
		if v := getJob(t, ts2, id); v.Status != status {
			t.Fatalf("restored job %s: status %s, want %s", id, v.Status, status)
		}
		check("restored", s2, id)
	}
}

// sseResults returns the results member of a job's SSE "result"
// event verbatim.
func sseResults(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].name != "result" {
		t.Fatalf("job %s: stream ended without a result event", id)
	}
	var v struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(events[len(events)-1].data, &v); err != nil {
		t.Fatal(err)
	}
	return string(v.Results)
}

// TestResultBytesIdenticalAcrossViews pins the wire form of a sweep
// job's results: the SSE result event, GET /jobs/{id}, the duplicate
// served from the cache and GET after a restart all carry the same
// bytes, and those are json.Marshal of the engine's []*ddsim.Result.
func TestResultBytesIdenticalAcrossViews(t *testing.T) {
	dir := t.TempDir()
	ts1, s1, stop1 := newPersistentServer(t, dir)
	body := `{"circuit": {"name": "ghz", "n": 4},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"sweep": [1, 20],
		"options": {"runs": 64, "seed": 5, "track_states": [0, 15]}}`

	id := submit(t, ts1, body)
	views := map[string]string{"sse": sseResults(t, ts1, id), "get": rawResults(t, ts1, id)}
	dup := submit(t, ts1, body)
	if v := waitTerminal(t, ts1, dup); !v.Cached {
		t.Fatalf("duplicate %s was not served from the cache", dup)
	}
	views["cached"] = rawResults(t, ts1, dup)
	stop1()
	ts2, _, _ := newPersistentServer(t, dir)
	views["restarted"] = rawResults(t, ts2, id)

	var spec jobSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	circ, models, err := s1.compile(&spec)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]ddsim.BatchJob, len(models))
	for i, m := range models {
		batch[i] = ddsim.BatchJob{Circuit: circ, Model: m, Opts: spec.Options}
	}
	results, err := ddsim.BatchSimulate(context.Background(), spec.Backend, batch, s1.workers)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed is the one wall-clock field; take the served run's.
	var served []*ddsim.Result
	if err := json.Unmarshal([]byte(views["get"]), &served); err != nil || len(served) != len(results) {
		t.Fatalf("served results %s (err %v)", views["get"], err)
	}
	for i := range results {
		results[i].Elapsed = served[i].Elapsed
	}
	want, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range views {
		if !bytes.Equal([]byte(got), want) {
			t.Errorf("%s results differ from json.Marshal of the engine's:\n got %s\nwant %s", name, got, want)
		}
	}
}

// lifecycleCounters is a snapshot of the telemetry the lifecycle
// moves: the two gauges and ddsim_jobs_done_total by status.
type lifecycleCounters struct {
	queued, running int64
	done            map[string]int64
}

func readLifecycleCounters() lifecycleCounters {
	c := lifecycleCounters{
		queued:  telemetry.JobsQueued.Value(),
		running: telemetry.JobsRunning.Value(),
		done:    map[string]int64{},
	}
	for _, st := range []string{statusDone, statusCancelled, statusFailed} {
		c.done[st] = telemetry.JobsDone.With(st).Value()
	}
	return c
}

// checkSettled asserts that every job is terminal with its done
// channel closed, that both gauges are back at base, and that
// ddsim_jobs_done_total moved by exactly want.
func checkSettled(t *testing.T, label string, s *server, base lifecycleCounters, want map[string]int64, ids ...string) {
	t.Helper()
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("%s: job %s not in the table", label, id)
		}
		select {
		case <-j.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: job %s never settled", label, id)
		}
		if !j.terminal() {
			t.Errorf("%s: job %s has done closed but is not terminal", label, id)
		}
	}
	got := readLifecycleCounters()
	if got.queued != base.queued || got.running != base.running {
		t.Errorf("%s: gauges queued %d running %d, want %d and %d",
			label, got.queued, got.running, base.queued, base.running)
	}
	for st, n := range got.done {
		if d := n - base.done[st]; d != want[st] {
			t.Errorf("%s: ddsim_jobs_done_total{status=%q} moved by %d, want %d", label, st, d, want[st])
		}
	}
}

// waitStatus polls a job until it reports status.
func waitStatus(t *testing.T, ts *httptest.Server, id, status string) {
	t.Helper()
	waitFor(t, "job "+id+" "+status, func() bool { return getJob(t, ts, id).Status == status })
}

// TestLifecycleCounters drives every path through the job state
// machine and checks its telemetry after each: the queued and running
// gauges return to their baseline, ddsim_jobs_done_total counts each
// settled job once under its status (a job restored settled counts
// nothing), and every job's done channel is closed.
func TestLifecycleCounters(t *testing.T) {
	small := func(seed int) string {
		return fmt.Sprintf(`{"circuit": {"name": "ghz", "n": 4}, "options": {"runs": 40, "seed": %d}}`, seed)
	}
	long := `{"circuit": ` + ghzQASM(12) + `, "noise": {"depolarizing": 0.001, "damping": 0.002},
		"options": {"runs": 3000000, "seed": 1, "progress_every": 1, "chunk_size": 16}}`

	t.Run("direct", func(t *testing.T) {
		// No HTTP: the constructor, admit and the terminal edges alone.
		ctx, cancel := context.WithCancel(context.Background())
		s := newServer(ctx, 1, 1, 0)
		t.Cleanup(func() { cancel(); s.wait() })
		build := func(id string) (jobstore.Recovered, jobSpec, *ddsim.Circuit, []ddsim.NoiseModel) {
			var spec jobSpec
			if err := json.Unmarshal([]byte(small(5)), &spec); err != nil {
				t.Fatal(err)
			}
			circ, models, err := s.compile(&spec)
			if err != nil {
				t.Fatal(err)
			}
			return jobstore.Recovered{Record: jobstore.Record{ID: id, Backend: spec.Backend, Submitted: time.Now()}},
				spec, circ, models
		}
		base := readLifecycleCounters()
		s.admit(newJob(build("j1")))
		checkSettled(t, "admitted", s, base, map[string]int64{statusDone: 1}, "j1")

		base = readLifecycleCounters()
		s.admit(newJob(build("j2")))
		checkSettled(t, "served from j1", s, base, map[string]int64{statusDone: 1}, "j2")
		if v := s.jobs["j2"].view(false); !v.Cached || v.Started == nil {
			t.Errorf("j2 served from the cache: %+v", v)
		}

		base = readLifecycleCounters()
		rc, spec, _, _ := build("j3")
		j := newJob(rc, spec, nil, nil)
		s.failRestored(j, fmt.Errorf("limits changed"))
		s.publish(j)
		checkSettled(t, "failed at restore", s, base, map[string]int64{statusFailed: 1}, "j3")

		base = readLifecycleCounters()
		rc.Record.ID = "j4"
		rc.Status, rc.Final = statusDone, &jobstore.Final{Status: statusDone}
		s.publish(newJob(rc, spec, nil, nil))
		checkSettled(t, "constructed settled", s, base, nil, "j4")
	})

	ts, s := newTestServer(t, 1)

	base := readLifecycleCounters()
	a := submit(t, ts, small(1))
	checkSettled(t, "done", s, base, map[string]int64{statusDone: 1}, a)

	base = readLifecycleCounters()
	hit := submit(t, ts, small(1))
	checkSettled(t, "cache hit", s, base, map[string]int64{statusDone: 1}, hit)
	if v := getJob(t, ts, hit); !v.Cached {
		t.Errorf("cache hit %s not cached", hit)
	}

	base = readLifecycleCounters()
	running := submit(t, ts, long)
	waitFor(t, "a committed trajectory", func() bool { return getJob(t, ts, running).Progress != nil })
	cancelJob(t, ts, running)
	checkSettled(t, "cancelled while running", s, base, map[string]int64{statusCancelled: 1}, running)
	if v := getJob(t, ts, running); v.Status != statusCancelled || len(v.Results) != 1 || !v.Results[0].Interrupted {
		t.Errorf("cancelled while running: status %s, results %+v", v.Status, v.Results)
	}

	base = readLifecycleCounters()
	blocker := submit(t, ts, long)
	waitStatus(t, ts, blocker, statusRunning)
	queued := submit(t, ts, small(2))
	cancelJob(t, ts, queued)
	cancelJob(t, ts, blocker)
	checkSettled(t, "cancelled while queued", s, base, map[string]int64{statusCancelled: 2}, blocker, queued)
	if v := getJob(t, ts, queued); v.Status != statusCancelled || v.Started != nil {
		t.Errorf("cancelled while queued: %+v", v)
	}

	base = readLifecycleCounters()
	blocker = submit(t, ts, long)
	waitStatus(t, ts, blocker, statusRunning)
	joins := telemetry.ResCacheJoins.Value()
	leader := submit(t, ts, small(3))
	joined := submit(t, ts, small(3))
	waitJoins(t, joins+1)
	cancelJob(t, ts, blocker)
	checkSettled(t, "join", s, base, map[string]int64{statusCancelled: 1, statusDone: 2}, blocker, leader, joined)
	if v := getJob(t, ts, joined); !v.Cached {
		t.Errorf("joined job %s not cached", joined)
	}
}

// TestLifecycleCountersRestore restarts a store holding a finished
// job and two jobs in flight at shutdown, on a server whose run limit
// one of them now exceeds: the finished job is served and counts
// nothing, the re-queued one counts its own end, and the one that no
// longer compiles counts failed.
func TestLifecycleCountersRestore(t *testing.T) {
	dir := t.TempDir()
	ts1, s1, stop1 := newPersistentServer(t, dir)
	served := submit(t, ts1, `{"circuit": {"name": "ghz", "n": 4}, "options": {"runs": 40, "seed": 1}}`)
	waitTerminal(t, ts1, served)
	base := readLifecycleCounters()
	blocker := submit(t, ts1, `{"circuit": `+ghzQASM(12)+`, "options": {"runs": 3000000, "seed": 1, "chunk_size": 16}}`)
	waitStatus(t, ts1, blocker, statusRunning)
	requeued := submit(t, ts1, `{"circuit": {"name": "ghz", "n": 4}, "options": {"runs": 40, "seed": 2}}`)
	stop1() // a shutdown: both in-flight jobs settle cancelled in memory only
	checkSettled(t, "shutdown", s1, base, map[string]int64{statusCancelled: 2}, blocker, requeued)

	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s2 := newServer(ctx, 1, 2, 1000) // the blocker's runs no longer compile
	s2.store = store
	t.Cleanup(func() { cancel(); s2.wait(); store.Close() })
	base = readLifecycleCounters()
	nServed, nRequeued := s2.restore()
	if nServed != 1 || nRequeued != 1 {
		t.Fatalf("restored %d served, %d re-queued; want 1 and 1", nServed, nRequeued)
	}
	checkSettled(t, "restore", s2, base, map[string]int64{statusDone: 1, statusFailed: 1}, served, blocker, requeued)
	for id, want := range map[string]string{served: statusDone, blocker: statusFailed, requeued: statusDone} {
		if v := s2.jobs[id].view(false); v.Status != want {
			t.Errorf("restored job %s: status %s, want %s", id, v.Status, want)
		}
	}
}
