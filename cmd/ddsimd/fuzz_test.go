package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ddsim/internal/jobstore"
)

// Fuzz-run bounds. The kernels have no node or time budget yet, so a
// body the server would accept is only run when its job is small;
// bodies it rejects are always sent.
const (
	fuzzMaxRuns   = 256 // the server's per-point runs ceiling
	fuzzMaxQubits = 5
	fuzzMaxGates  = 64
	fuzzMaxPoints = 4
	fuzzMaxShots  = 16
	fuzzMaxStates = 16 // tracked basis states
	// fuzzCancelAfter is how long a job may run before it is
	// cancelled; cancellation must still reach a terminal state.
	fuzzCancelAfter = 5 * time.Second
)

// affordable reports whether body, decoded and compiled exactly as
// POST /jobs does, is either rejected or describes a job small enough
// to run within a fuzz iteration.
func affordable(s *server, body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec jobSpec
	if dec.Decode(&spec) != nil {
		return true
	}
	circ, models, err := s.compile(&spec)
	if err != nil {
		return true
	}
	return circ.NumQubits <= fuzzMaxQubits && circ.GateCount() <= fuzzMaxGates &&
		len(models) <= fuzzMaxPoints && spec.Options.Shots <= fuzzMaxShots &&
		len(spec.Options.TrackStates) <= fuzzMaxStates
}

// streamResult follows a job's event stream for up to d. It returns
// the final view when the stream delivered a result event and then
// closed, and ok=false when d ran out first.
func streamResult(t *testing.T, ts *httptest.Server, id string, d time.Duration) (v jobView, ok bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return jobView{}, false
		}
		t.Fatalf("events %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: status %d", id, resp.StatusCode)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].name != "result" {
		if ctx.Err() != nil {
			return jobView{}, false
		}
		t.Fatalf("events %s: stream closed without a result event", id)
	}
	if rest, _ := io.ReadAll(resp.Body); len(bytes.TrimSpace(rest)) > 0 {
		t.Fatalf("events %s: stream continued after the result event: %q", id, rest)
	}
	if err := json.Unmarshal(events[len(events)-1].data, &v); err != nil {
		t.Fatalf("events %s: result view does not decode: %v", id, err)
	}
	return v, true
}

// FuzzSubmit sends arbitrary POST /jobs bodies to a server with a job
// store. No request may get a 5xx, and every accepted job reaches
// exactly one terminal state — one result event, after which the
// stream closes — whose view decodes and agrees with GET.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 8, "seed": 1}}`,
		`{"circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"},
		  "noise": {"depolarizing": 0.01, "damping": 0.02, "damping_as_event": true},
		  "sweep": [0, 1], "options": {"runs": 16, "seed": 2, "track_states": [0, 3]}}`,
		`{"circuit": {"name": "qft", "n": 3}, "backend": "statevec", "priority": 5,
		  "options": {"runs": 32, "seed": 3, "track_fidelity": true, "chunk_size": 4, "progress_every": 1}}`,
		`{"circuit": {"name": "bv", "n": 4}, "options": {"mode": "exact", "track_states": [0]}}`,
		`{"circuit": {"name": "qft", "n": 4}, "options": {"runs": 256, "timeout_ns": 1}}`,
		`{"circuit": {"name": "ghz", "n": 2}, "backend": "sparse", "options": {"checkpointing": "on"}}`,
		`{"circuit": {"name": "ghz", "n": -1}}`,
		`{"circuit": {"qasm": "qreg q[1];", "name": "ghz"}}`,
		`{"circuit": {"name": "ghz", "n": 2}, "bogus": 1}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	store, err := jobstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, 1, 1, fuzzMaxRuns)
	s.store = store
	ts := httptest.NewServer(s.handler())
	f.Cleanup(func() {
		ts.Close()
		cancel()
		s.wait()
		s.close()
		store.Close()
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		if !affordable(s, body) {
			return
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("POST /jobs %q: status %d: %s", body, resp.StatusCode, raw)
		}
		if resp.StatusCode != http.StatusAccepted {
			return
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
			t.Fatalf("202 body %s (err %v)", raw, err)
		}
		v, ok := streamResult(t, ts, acc.ID, fuzzCancelAfter)
		if !ok {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+acc.ID, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode >= 500 {
				t.Fatalf("DELETE %s: status %d", acc.ID, dresp.StatusCode)
			}
			if v, ok = streamResult(t, ts, acc.ID, time.Minute); !ok {
				t.Fatalf("job %s did not terminate after cancellation", acc.ID)
			}
		}
		switch v.Status {
		case statusDone, statusCancelled, statusFailed:
		default:
			t.Fatalf("job %s: result event with status %q", acc.ID, v.Status)
		}
		if got := getJob(t, ts, acc.ID); got.Status != v.Status {
			t.Fatalf("job %s: GET says %s after a %s result event", acc.ID, got.Status, v.Status)
		}
	})
}
