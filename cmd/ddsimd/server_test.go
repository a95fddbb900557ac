package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ddsim/internal/telemetry"
)

func newTestServer(t *testing.T, maxActive int) (*httptest.Server, *server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, maxActive, 2, 10_000_000)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.wait()
		s.close()
	})
	return ts, s
}

func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		t.Fatalf("submit: bad response %s (err %v)", raw, err)
	}
	return out.ID
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("get %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, raw)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("get %s: decode: %v", id, err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		switch v.Status {
		case statusDone, statusCancelled, statusFailed:
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return jobView{}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE parses events off an event-stream body until it closes or
// the "result" event arrives.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	var data bytes.Buffer
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		case line == "":
			if name != "" || data.Len() > 0 {
				events = append(events, sseEvent{name: name, data: append([]byte(nil), data.Bytes()...)})
				if name == "result" {
					return events
				}
				name = ""
				data.Reset()
			}
		}
	}
	return events
}

func TestSubmitRunsToCompletion(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	id := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 3},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 60, "seed": 1}
	}`)
	v := waitTerminal(t, ts, id)
	if v.Status != statusDone {
		t.Fatalf("status = %q (error %q), want done", v.Status, v.Error)
	}
	if len(v.Results) != 1 || v.Results[0] == nil {
		t.Fatalf("want exactly one result, got %+v", v.Results)
	}
	res := v.Results[0]
	if res.Runs != 60 || res.Interrupted {
		t.Fatalf("result = runs %d interrupted %v, want 60 clean runs", res.Runs, res.Interrupted)
	}
	if len(res.Counts) == 0 {
		t.Fatal("result has no sampled counts")
	}
	if v.Qubits != 3 || v.Backend != "dd" {
		t.Fatalf("job view = %+v", v)
	}

	// The listing knows the job, without the bulky results.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, jv := range list.Jobs {
		if jv.ID == id {
			found = true
			if jv.Results != nil {
				t.Error("listing should not include result payloads")
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from listing", id)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts, fmt.Sprintf(`{
				"circuit": {"name": "ghz", "n": %d},
				"options": {"runs": 40, "seed": %d}
			}`, 3+i, i+1))
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		v := waitTerminal(t, ts, id)
		if v.Status != statusDone {
			t.Fatalf("job %s: status %q (error %q)", id, v.Status, v.Error)
		}
		if v.Results[0].Runs != 40 {
			t.Fatalf("job %s: runs = %d, want 40", id, v.Results[0].Runs)
		}
	}
}

func TestSweepSharedPool(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	id := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 4},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"sweep": [0, 1, 5],
		"options": {"runs": 50, "seed": 3, "track_states": [0]}
	}`)
	v := waitTerminal(t, ts, id)
	if v.Status != statusDone {
		t.Fatalf("status = %q (error %q)", v.Status, v.Error)
	}
	if len(v.Results) != 3 {
		t.Fatalf("want 3 sweep results, got %d", len(v.Results))
	}
	// Scale 0 is noise-free: the GHZ |0000⟩ probability is 1/2 (up to
	// float accumulation across runs).
	if p := v.Results[0].TrackedProbs[0]; math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("noise-free P(|0000>) = %v, want 0.5", p)
	}
	for i, r := range v.Results {
		if r == nil || r.Runs != 50 {
			t.Fatalf("sweep point %d: %+v", i, r)
		}
	}
}

func TestSSEStreamsProgressThenResult(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	id := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 6},
		"options": {"runs": 3000, "seed": 1, "progress_every": 100, "chunk_size": 32}
	}`)
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("want >=2 events (progress..., result), got %d: %+v", len(events), events)
	}
	nProgress := 0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before result", ev.name)
		}
		var p struct {
			Done   int `json:"done"`
			Target int `json:"target"`
		}
		if err := json.Unmarshal(ev.data, &p); err != nil {
			t.Fatalf("bad progress payload %s: %v", ev.data, err)
		}
		if p.Target != 3000 {
			t.Fatalf("progress target = %d, want 3000", p.Target)
		}
		nProgress++
	}
	if nProgress < 1 {
		t.Fatal("no progress events before the result")
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("last event = %q, want result", last.name)
	}
	var final jobView
	if err := json.Unmarshal(last.data, &final); err != nil {
		t.Fatalf("bad result payload: %v", err)
	}
	if final.Status != statusDone || final.Results[0].Runs != 3000 {
		t.Fatalf("final view = %+v", final)
	}
}

func TestCancelRunningJobKeepsPartialResult(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	// A budget far beyond what completes in test time; tiny chunks so
	// progress (and thus the cancellation point) arrives early.
	id := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 12},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 3000000, "seed": 1, "progress_every": 1, "chunk_size": 16}
	}`)

	// Wait until at least one trajectory committed, via the stream.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: progress") {
			sawProgress = true
			break
		}
	}
	if !sawProgress {
		t.Fatal("stream closed before any progress event")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}

	v := waitTerminal(t, ts, id)
	if v.Status != statusCancelled {
		t.Fatalf("status = %q, want cancelled", v.Status)
	}
	if len(v.Results) != 1 || v.Results[0] == nil {
		t.Fatalf("cancelled job lost its partial result: %+v", v.Results)
	}
	res := v.Results[0]
	if !res.Interrupted {
		t.Fatal("partial result does not have Interrupted set")
	}
	if res.Runs <= 0 || res.Runs >= res.TargetRuns {
		t.Fatalf("partial runs = %d of %d, want 0 < runs < target", res.Runs, res.TargetRuns)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	ts, _ := newTestServer(t, 1) // one active slot: the second job queues
	blocker := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 12},
		"options": {"runs": 3000000, "seed": 1, "chunk_size": 16}
	}`)
	queued := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 3},
		"options": {"runs": 10}
	}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	v := waitTerminal(t, ts, queued)
	if v.Status != statusCancelled {
		t.Fatalf("queued job status = %q, want cancelled", v.Status)
	}
	if v.Results != nil {
		t.Fatalf("queued job should have no results, got %+v", v.Results)
	}

	// Unblock and drain the first job so the test server shuts down
	// promptly.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts, blocker)
}

func TestMetricsReportSimulationActivity(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	id := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 5},
		"options": {"runs": 80, "seed": 2}
	}`)
	waitTerminal(t, ts, id)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	// The trajectory and DD-table counters must be non-zero after a
	// completed DD job (globals, so >= this job's contribution).
	if telemetry.Trajectories.Value() < 80 {
		t.Fatalf("trajectory counter = %d, want >= 80", telemetry.Trajectories.Value())
	}
	if telemetry.DDUniqueLookups.Value() == 0 || telemetry.DDComputeLookups.Value() == 0 {
		t.Fatal("DD table counters still zero after a DD job")
	}
	for _, want := range []string{
		"ddsim_trajectories_total",
		"ddsim_dd_unique_lookups_total",
		"ddsim_dd_compute_hits_total",
		`ddsim_backend_seconds_total{backend="dd"}`,
		`ddsim_jobs_done_total{status="done"}`,
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// And the text values themselves must be non-zero.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "ddsim_trajectories_total ") {
			if strings.TrimSpace(strings.TrimPrefix(line, "ddsim_trajectories_total")) == "0" {
				t.Error("exposition shows zero trajectories")
			}
		}
	}
}

func TestSubmissionValidation(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	cases := []struct {
		name, body string
	}{
		{"no circuit", `{"options": {"runs": 1}}`},
		{"both qasm and name", `{"circuit": {"qasm": "x", "name": "ghz", "n": 2}}`},
		{"builder without n", `{"circuit": {"name": "ghz"}}`},
		{"unknown builder", `{"circuit": {"name": "nope", "n": 4}}`},
		{"bad qasm", `{"circuit": {"qasm": "OPENQASM 9;"}}`},
		{"unknown backend", `{"circuit": {"name": "ghz", "n": 3}, "backend": "quantum"}`},
		{"bad noise", `{"circuit": {"name": "ghz", "n": 3}, "noise": {"depolarizing": 2}}`},
		{"bad sweep point", `{"circuit": {"name": "ghz", "n": 3}, "noise": {"depolarizing": 0.5}, "sweep": [0, 4]}`},
		{"runs over limit", `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 99999999}}`},
		{"unknown field", `{"circuit": {"name": "ghz", "n": 3}, "bogus": 1}`},
		{"qubits over limit", `{"circuit": {"name": "ghz", "n": 2000000000}}`},
		{"qasm qubits over limit", `{"circuit": {"qasm": "OPENQASM 2.0;\nqreg q[70];\n"}}`},
		{"dense backend too large", `{"circuit": {"name": "ghz", "n": 40}, "backend": "statevec"}`},
		{"priority out of range", `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 10}, "priority": 101}`},
		{"priority below range", `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 10}, "priority": -101}`},
		// options.checkpointing was removed: jobs fork whenever the
		// backend can, and the field is now an unknown one.
		{"removed checkpointing field", `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 10, "checkpointing": "off"}}`},
		// options.exact_backend was removed: exact mode picks dense ρ
		// or the density DD from the circuit.
		{"removed exact_backend field", `{"circuit": {"name": "ghz", "n": 3}, "options": {"mode": "exact", "exact_backend": "density"}}`},
	}
	// Error bodies (JSON-escaped) that must name the offending field.
	names := map[string]string{
		"removed checkpointing field": `unknown field \"checkpointing\"`,
		"removed exact_backend field": `unknown field \"exact_backend\"`,
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), names[tc.name]) {
			t.Errorf("%s: status = %d (%s), want 400 naming %q", tc.name, resp.StatusCode, raw, names[tc.name])
		}
	}

	for _, path := range []string{"/jobs/none", "/jobs/none/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFinishedJobEviction checks the retention policy: once more than
// maxJobs are tracked, the oldest finished jobs disappear from the
// table while newer ones survive. Retention also bounds cache hits: an
// identical submission is served while a job holding its results is
// retained, and simulates again once every such job is evicted.
func TestFinishedJobEviction(t *testing.T) {
	ts, s := newTestServer(t, 1)
	s.maxJobs = 2
	const body = `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 5}}`
	var ids []string
	for i := 0; i < 4; i++ {
		id := submit(t, ts, body)
		waitTerminal(t, ts, id)
		ids = append(ids, id)
	}
	// The two oldest jobs must be gone, the two newest retrievable.
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	for _, id := range ids[2:] {
		getJob(t, ts, id)
	}

	// The two retained jobs were served from the first; either holds
	// the key.
	if v := waitTerminal(t, ts, submit(t, ts, body)); v.Status != statusDone || !v.Cached {
		t.Fatalf("fifth submission: status %q cached=%v, want a hit", v.Status, v.Cached)
	}
	// Two other jobs evict every holder of the key.
	for seed := 1; seed <= 2; seed++ {
		other := fmt.Sprintf(`{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 5, "seed": %d}}`, seed)
		waitTerminal(t, ts, submit(t, ts, other))
	}
	if v := waitTerminal(t, ts, submit(t, ts, body)); v.Status != statusDone || v.Cached {
		t.Fatalf("resubmission after eviction: status %q cached=%v, want simulated", v.Status, v.Cached)
	}
}

// TestSubmissionBackpressure checks admission control: beyond
// maxPending unfinished jobs, submissions are shed with 429 and a
// Retry-After hint.
func TestSubmissionBackpressure(t *testing.T) {
	ts, s := newTestServer(t, 1)
	s.maxPending = 1
	blocker := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 12},
		"options": {"runs": 3000000, "seed": 1, "chunk_size": 16}
	}`)
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitTerminal(t, ts, blocker)
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body bad: %+v err %v", h, err)
	}
}

// TestQASMSubmission runs an inline OpenQASM circuit end to end.
func TestQASMSubmission(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	spec := map[string]any{
		"circuit": map[string]string{
			"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
		},
		"options": map[string]any{"runs": 30, "seed": 5, "track_states": []int{0, 3}},
	}
	body, _ := json.Marshal(spec)
	id := submit(t, ts, string(body))
	v := waitTerminal(t, ts, id)
	if v.Status != statusDone {
		t.Fatalf("status = %q (error %q)", v.Status, v.Error)
	}
	res := v.Results[0]
	// A noise-free Bell pair: P(|00>) and P(|11>) are 1/2 (up to float
	// accumulation across runs).
	if math.Abs(res.TrackedProbs[0]-0.5) > 1e-9 || math.Abs(res.TrackedProbs[1]-0.5) > 1e-9 {
		t.Fatalf("Bell probabilities = %v, want [0.5 0.5]", res.TrackedProbs)
	}
}
