package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/stochastic"
)

// postRun posts a /work/run body to the worker at url.
func postRun(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/work/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestWorkerStreamsRun reads one lease's stream: keepalive lines at the
// stated cadence while the worker computes, then exactly one final
// line whose sums are the leased range's, equal to a local RunChunks.
func TestWorkerStreamsRun(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(3), 32) // 4 chunks
	urls, workers, _ := startWorkers(t, 1)
	gate := newBlockingGate(t, workers[0])
	body, err := json.Marshal(runRequest{LeaseID: Token(7).String(), Job: spec, First: 1, Count: 2, Keepalive: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resp := postRun(t, urls[0], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	<-gate.blocked
	for i := 0; i < 2; i++ {
		var l runLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.final() {
			t.Fatalf("line %d of a gated computation is final: %+v", i, l)
		}
	}
	close(gate.release)
	var l runLine
	for !l.final() {
		l = runLine{}
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
	}
	if l.Error != "" {
		t.Fatal(l.Error)
	}
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	factory, err := testResolve(spec.Backend)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stochastic.RunChunks(context.Background(), factory, job, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Sums, want) {
		t.Errorf("streamed sums %+v, want %+v", l.Sums, want)
	}
	if err := dec.Decode(&l); err == nil {
		t.Errorf("a line followed the final one: %+v", l)
	}
}

// TestWorkerRejectsMalformedRuns: a body the worker cannot run is a
// 400 with an error body, answered before any line.
func TestWorkerRejectsMalformedRuns(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(3), 32) // 4 chunks
	req := func(mut func(*runRequest)) string {
		r := runRequest{LeaseID: Token(7).String(), Job: spec, First: 0, Count: 1, Keepalive: time.Second}
		mut(&r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	urls, _, _ := startWorkers(t, 1)
	for name, body := range map[string]string{
		"truncated":       "{",
		"zero lease id":   req(func(r *runRequest) { r.LeaseID = Token(0).String() }),
		"no keepalive":    req(func(r *runRequest) { r.Keepalive = 0 }),
		"bad qasm":        req(func(r *runRequest) { r.Job.QASM = "not qasm" }),
		"range past plan": req(func(r *runRequest) { r.First, r.Count = 3, 2 }),
		"empty range":     req(func(r *runRequest) { r.Count = 0 }),
		"unknown backend": req(func(r *runRequest) { r.Job.Backend = "abacus" }),
	} {
		resp := postRun(t, urls[0], []byte(body))
		var e runLine
		if resp.StatusCode != http.StatusBadRequest || json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
			t.Errorf("%s: status %d, error %q; want 400 with an error body", name, resp.StatusCode, e.Error)
		}
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Errorf("%s: content type %q", name, resp.Header.Get("Content-Type"))
		}
	}
}
