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
		Workers:        []string{"http://127.0.0.1:1"},
		LeaseTTL:       50 * time.Millisecond,
		HeartbeatEvery: 5 * time.Millisecond,
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
