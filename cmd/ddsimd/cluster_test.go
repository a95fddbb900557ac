package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ddsim"
	"ddsim/internal/cluster"
)

// newClusterServer boots n in-process cluster workers and a
// coordinator-mode ddsimd fronting them, all over real HTTP.
func newClusterServer(t *testing.T, n int) (*httptest.Server, *server) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w := cluster.NewWorker(ddsim.Factory)
		ws := httptest.NewServer(workerHandler(w))
		t.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	ts, s := newTestServer(t, 2)
	s.clusterCfg = &cluster.Config{Workers: urls}
	return ts, s
}

// assertSameResult is the service-level bit-identity check between a
// locally simulated and a cluster-merged result. Elapsed and Workers
// are scheduling artefacts and excluded.
func assertSameResult(t *testing.T, label string, want, got *ddsim.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing result (%v vs %v)", label, want, got)
	}
	if got.Runs != want.Runs {
		t.Errorf("%s: runs %d vs %d", label, got.Runs, want.Runs)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Errorf("%s: %d count keys vs %d", label, len(got.Counts), len(want.Counts))
	}
	for k, v := range want.Counts {
		if got.Counts[k] != v {
			t.Errorf("%s: counts[%d] = %d, want %d", label, k, got.Counts[k], v)
		}
	}
	for k, v := range want.ClassicalCounts {
		if got.ClassicalCounts[k] != v {
			t.Errorf("%s: classical[%d] = %d, want %d", label, k, got.ClassicalCounts[k], v)
		}
	}
	for i := range want.TrackedProbs {
		if got.TrackedProbs[i] != want.TrackedProbs[i] {
			t.Errorf("%s: tracked[%d] = %v, want %v (bit-exact)", label, i, got.TrackedProbs[i], want.TrackedProbs[i])
		}
	}
	if got.MeanFidelity != want.MeanFidelity {
		t.Errorf("%s: fidelity %v vs %v (bit-exact)", label, got.MeanFidelity, want.MeanFidelity)
	}
	if got.ConfidenceRadius != want.ConfidenceRadius {
		t.Errorf("%s: radius %v vs %v", label, got.ConfidenceRadius, want.ConfidenceRadius)
	}
}

// TestClusterModeBitIdentical submits the same paper-noise job to a
// plain single-node server and to a 2-worker cluster: the jobs must
// both finish done and carry bit-identical results.
func TestClusterModeBitIdentical(t *testing.T) {
	body := `{
		"circuit": {"name": "ghz", "n": 6},
		"backend": "dd",
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001},
		"options": {"runs": 96, "seed": 11, "shots": 2, "chunk_size": 8,
		            "track_states": [0, 63], "track_fidelity": true}
	}`
	local, _ := newTestServer(t, 2)
	want := waitTerminal(t, local, submit(t, local, body))
	if want.Status != statusDone {
		t.Fatalf("local job: status %s (%s)", want.Status, want.Error)
	}

	clustered, _ := newClusterServer(t, 2)
	got := waitTerminal(t, clustered, submit(t, clustered, body))
	if got.Status != statusDone {
		t.Fatalf("cluster job: status %s (%s)", got.Status, got.Error)
	}
	if len(got.Results) != 1 || len(want.Results) != 1 {
		t.Fatalf("results: %d vs %d, want 1 each", len(got.Results), len(want.Results))
	}
	assertSameResult(t, "ghz6", want.Results[0], got.Results[0])
	if got.Results[0].Workers != 2 {
		t.Errorf("cluster result reports %d workers, want 2", got.Results[0].Workers)
	}
}

// TestClusterModeSweep drives a noise sweep through the cluster: one
// coordinator run per point, every point bit-identical to its local
// counterpart.
func TestClusterModeSweep(t *testing.T) {
	body := `{
		"circuit": {"name": "qft", "n": 4},
		"noise": {"depolarizing": 0.002},
		"sweep": [0.5, 1, 2],
		"options": {"runs": 48, "seed": 7, "chunk_size": 8}
	}`
	local, _ := newTestServer(t, 2)
	want := waitTerminal(t, local, submit(t, local, body))
	clustered, _ := newClusterServer(t, 2)
	got := waitTerminal(t, clustered, submit(t, clustered, body))
	if got.Status != statusDone {
		t.Fatalf("cluster sweep: status %s (%s)", got.Status, got.Error)
	}
	if len(got.Results) != 3 {
		t.Fatalf("cluster sweep: %d results, want 3", len(got.Results))
	}
	for i := range got.Results {
		assertSameResult(t, fmt.Sprintf("point%d", i), want.Results[i], got.Results[i])
	}
}

// TestClusterModeExactStaysLocal proves the routing gate: an
// exact-mode job on a coordinator whose workers are unreachable still
// finishes, because exact mode never leaves the local path.
func TestClusterModeExactStaysLocal(t *testing.T) {
	ts, s := newTestServer(t, 2)
	s.clusterCfg = &cluster.Config{Workers: []string{"http://127.0.0.1:1"}}
	v := waitTerminal(t, ts, submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 4},
		"noise": {"depolarizing": 0.001},
		"options": {"mode": "exact"}
	}`))
	if v.Status != statusDone {
		t.Fatalf("exact job in coordinator mode: status %s (%s)", v.Status, v.Error)
	}
}

// TestClusterModeDeadWorkersFailJob is the converse: a stochastic job
// against an all-dead fleet must reach a terminal failed state, not
// hang.
func TestClusterModeDeadWorkersFailJob(t *testing.T) {
	ts, s := newTestServer(t, 2)
	s.clusterCfg = &cluster.Config{
		Workers:  []string{"http://127.0.0.1:1"},
		LeaseTTL: 50 * time.Millisecond,
	}
	v := waitTerminal(t, ts, submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 4},
		"options": {"runs": 16}
	}`))
	if v.Status != statusFailed {
		t.Fatalf("job against dead workers: status %s, want failed", v.Status)
	}
}

// TestWorkerHandlerSurface covers the -worker mode routing table:
// observability endpoints respond, a malformed lease is a client
// error, and the polling routes of older builds are gone, so a
// coordinator of such a build gets a 404.
func TestWorkerHandlerSurface(t *testing.T) {
	ws := httptest.NewServer(workerHandler(cluster.NewWorker(ddsim.Factory)))
	defer ws.Close()

	resp, err := http.Get(ws.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["mode"] != "worker" {
		t.Errorf("healthz mode = %v, want worker", health["mode"])
	}
	resp, err = http.Get(ws.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ws.URL+"/work/run", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed lease: status %d, want 400", resp.StatusCode)
	}
	for _, path := range []string{"/work/lease", "/work/heartbeat", "/work/complete"} {
		resp, err = http.Post(ws.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSplitURLs covers the -coordinator list parser.
func TestSplitURLs(t *testing.T) {
	got := splitURLs(" http://a:1/, ,http://b:2 ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitURLs = %v", got)
	}
}
