package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/qasm"
	"ddsim/internal/stochastic"
)

// Fuzz-run bounds. The kernels have no node or time budget, so a body
// the worker would run is only sent when its job is small; bodies it
// rejects are always sent.
const (
	fuzzMaxQubits = 5
	fuzzMaxGates  = 64
	fuzzMaxRuns   = 256
	fuzzMaxShots  = 16
	fuzzMaxStates = 16 // tracked basis states
)

// affordable reports whether body, decoded as the worker decodes it,
// is either rejected or describes a job small enough to run within a
// fuzz iteration.
func affordable(body []byte) bool {
	var req runRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
		return true
	}
	job, err := req.Job.Job()
	if err != nil {
		return true
	}
	o := job.Opts
	return job.Circuit.NumQubits <= fuzzMaxQubits && job.Circuit.GateCount() <= fuzzMaxGates &&
		o.Runs <= fuzzMaxRuns && o.Shots <= fuzzMaxShots && len(o.TrackStates) <= fuzzMaxStates
}

// FuzzWorkWire fuzzes both ends of the cluster wire. body goes to the
// worker's POST /work/run: no body may panic it or get a 5xx, one that
// does not decode gets a 4xx, and a 200 stream is keepalive lines and
// then exactly one final line, whose sums cover the requested range.
// stream goes to the coordinator's line reader as a worker's reply to
// a lease: whatever it holds, the lease table never completes the part
// with sums other than one per chunk of the lease's range, in order,
// and a lease the stream let down is back in the table.
func FuzzWorkWire(f *testing.F) {
	src, err := qasm.Write(circuit.GHZ(3))
	if err != nil {
		f.Fatal(err)
	}
	spec := JobSpec{
		Name:    "ghz3",
		QASM:    src,
		Backend: "dd",
		Noise:   noise.Model{Depolarizing: 0.01},
		Options: stochastic.Options{Runs: 32, Seed: 5, ChunkSize: 8, TrackStates: []uint64{0}},
	}
	valid, err := json.Marshal(runRequest{LeaseID: Token(1).String(), Job: spec, First: 1, Count: 2, Keepalive: time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct{ body, stream string }{
		{string(valid), "{}\n{\"sums\":[{\"chunk\":2,\"runs\":8},{\"chunk\":3,\"runs\":8}]}\n"},
		{`{"lease_id":"0000000000000000"}`, `{"sums":[{"chunk":0,"runs":8},{"chunk":1,"runs":8}]}`},
		{`{"lease_id":"00000000000000ff","job":{"qasm":"qreg q[1];","backend":"statevec"},"count":1,"keepalive_ns":1000000}`, `{"error":"boom"}`},
		{`{"lease_id":"00000000000000ff","job":{"qasm":"OPENQASM 2.0;\nqreg q[1];\nx q[0];\n","backend":"sparse"},"count":1,"keepalive_ns":1000000}`, `{"sums":[]}`},
		{`{"lease_id":"0000000000000001","first":-1,"count":1,"keepalive_ns":1}`, `{}{}{"sums":[{"chunk":2,"runs":8},{"chunk":3}]}`},
		{`{`, `{"sums":[{"chunk":2,"runs":8}`},
		{`[]`, ``},
	} {
		f.Add([]byte(seed.body), []byte(seed.stream))
	}

	job, err := spec.Job()
	if err != nil {
		f.Fatal(err)
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		f.Fatal(err)
	}
	plan.PartChunks = 2 // parts [0,2) and [2,4)
	clk := newManualClock(time.Unix(3000, 0))
	coord, err := New(Config{Workers: []string{"http://fuzz.invalid"}, LeaseTTL: time.Hour, Clock: clk.Now})
	if err != nil {
		f.Fatal(err)
	}
	handler := NewWorker(testResolve).Handler()

	f.Fuzz(func(t *testing.T, body, stream []byte) {
		if affordable(body) {
			checkWorkerRun(t, handler, body)
		}

		tb := newTable(plan, time.Hour, clk.Now)
		tb.Acquire("fuzz") // part 0 stays leased: its chunks are wrong for the lease below
		lease, ok := tb.Acquire("fuzz")
		if !ok || lease.First != 2 {
			t.Fatalf("second lease %+v", lease)
		}
		ctx, cancel := context.WithCancel(context.Background())
		lines := make(chan runLine)
		go func() {
			defer close(lines)
			readLines(ctx, bytes.NewReader(stream), lines)
		}()
		kept := coord.resolve(ctx, lease, lines, tb, nil, func(err error) { t.Errorf("fatal: %v", err) })
		cancel()
		for range lines {
		}

		p := &tb.parts[lease.Part]
		switch p.state {
		case partDone:
			if !kept {
				t.Errorf("completed part reported as a worker failure")
			}
			if len(p.sums) != lease.Count {
				t.Fatalf("part completed with %d sums, lease spans %d chunks", len(p.sums), lease.Count)
			}
			for i, s := range p.sums {
				if s.Chunk != lease.First+i {
					t.Fatalf("part completed with sum %d for chunk %d, want %d", i, s.Chunk, lease.First+i)
				}
			}
		case partPending:
			if kept {
				t.Errorf("a lease given back was not reported as a worker failure")
			}
		case partLeased:
			// A stream of keepalives that ends in EOF is a broken one,
			// so only a cancelled context can leave the lease held.
			t.Errorf("stream %q left the lease held", stream)
		}
	})
}

// checkWorkerRun sends one body to the worker's handler and checks its
// answer.
func checkWorkerRun(t *testing.T, handler http.Handler, body []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/work/run", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	var parsed runRequest
	decodes := json.NewDecoder(bytes.NewReader(body)).Decode(&parsed) == nil
	switch {
	case rec.Code >= 500:
		t.Fatalf("POST /work/run %q: status %d: %s", body, rec.Code, rec.Body)
	case rec.Code != http.StatusOK:
		var e runLine
		if rec.Code < 400 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("POST /work/run %q: status %d with body %q, want a 4xx error", body, rec.Code, rec.Body)
		}
		return
	case !decodes:
		t.Fatalf("POST /work/run %q: a body that does not decode was accepted", body)
	}
	if ctx.Err() != nil {
		return // cut short: no final line is owed
	}
	dec := json.NewDecoder(rec.Body)
	var l runLine
	for !l.final() {
		l = runLine{}
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("POST /work/run %q: stream ended without a final line: %v", body, err)
		}
	}
	if dec.More() {
		t.Fatalf("POST /work/run %q: a line followed the final one", body)
	}
	if l.Error != "" {
		return
	}
	if len(l.Sums) != parsed.Count {
		t.Fatalf("POST /work/run %q: %d sums for %d chunks", body, len(l.Sums), parsed.Count)
	}
	for i, s := range l.Sums {
		if s.Chunk != parsed.First+i {
			t.Fatalf("POST /work/run %q: sum %d is for chunk %d, want %d", body, i, s.Chunk, parsed.First+i)
		}
	}
}
