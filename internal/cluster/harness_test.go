package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/qasm"
	"ddsim/internal/sim"
	"ddsim/internal/statevec"
	"ddsim/internal/stochastic"
)

// The in-process cluster harness: N real workers behind httptest
// servers, a real coordinator doing real HTTP, and the acceptance
// criterion of the whole subsystem — every cluster topology reproduces
// the single-node same-seed result bit for bit.

func testResolve(backend string) (sim.Factory, error) {
	switch backend {
	case "dd":
		return ddback.Factory(), nil
	case "statevec":
		return statevec.Factory(), nil
	}
	return nil, fmt.Errorf("unknown backend %q", backend)
}

// benchSpec wraps a paper benchmark circuit in the cluster wire form
// with the paper's noise rates and a plan of several parts.
func benchSpec(t *testing.T, c *circuit.Circuit, runs int) JobSpec {
	t.Helper()
	src, err := qasm.Write(c)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{
		Name:    c.Name,
		QASM:    src,
		Backend: "dd",
		Noise:   noise.Model{Depolarizing: 0.001, Damping: 0.002, PhaseFlip: 0.001},
		Options: stochastic.Options{
			Runs:          runs,
			Seed:          11,
			Shots:         2,
			ChunkSize:     8,
			TrackStates:   []uint64{0, 1},
			TrackFidelity: true,
		},
	}
}

// startWorkers boots n worker servers and returns their URLs and
// handles (for fault injection).
func startWorkers(t *testing.T, n int) ([]string, []*Worker, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	workers := make([]*Worker, n)
	servers := make([]*httptest.Server, n)
	for i := range urls {
		w := NewWorker(testResolve)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i], workers[i], servers[i] = srv.URL, w, srv
	}
	return urls, workers, servers
}

// singleNode computes the reference result on the engine's ordinary
// in-process path.
func singleNode(t *testing.T, spec JobSpec) *stochastic.Result {
	t.Helper()
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	factory, err := testResolve(spec.Backend)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stochastic.Run(job.Circuit, factory, job.Model, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertIdentical is the bit-identity check: every numerical field of
// the merged result must equal the single-node reference exactly —
// not approximately.
func assertIdentical(t *testing.T, label string, want, got *stochastic.Result) {
	t.Helper()
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
	if len(got.ClassicalCounts) != len(want.ClassicalCounts) {
		t.Errorf("%s: %d classical keys vs %d", label, len(got.ClassicalCounts), len(want.ClassicalCounts))
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

// runCluster runs spec through a coordinator over the given workers,
// configured with nothing but the worker list unless mut says more.
func runCluster(t *testing.T, urls []string, spec JobSpec, jobID string, mut func(*Config)) *stochastic.Result {
	t.Helper()
	cfg := Config{Workers: urls}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, jobID, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterBitIdentical is the headline harness: paper benchmarks
// through 1-, 2- and 5-worker clusters, every topology bit-identical
// to single-node.
func TestClusterBitIdentical(t *testing.T) {
	benchmarks := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"entanglement6", circuit.GHZ(6).MeasureAll()},
		{"qft5", circuit.QFT(5)},
	}
	for _, b := range benchmarks {
		spec := benchSpec(t, b.c, 120)
		want := singleNode(t, spec)
		for _, n := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/workers=%d", b.name, n), func(t *testing.T) {
				urls, _, _ := startWorkers(t, n)
				got := runCluster(t, urls, spec, fmt.Sprintf("bit-%s-%d", b.name, n), nil)
				assertIdentical(t, b.name, want, got)
				if got.Workers != n {
					t.Errorf("result reports %d workers, want %d", got.Workers, n)
				}
			})
		}
	}
}

// TestClusterProgressReporting checks the OnProgress plumbing reaches
// the terminal chunk count exactly once per accepted part.
func TestClusterProgressReporting(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(5), 64) // 8 chunks, 8 parts
	urls, _, _ := startWorkers(t, 2)
	var mu sync.Mutex
	var seen []int
	res := runCluster(t, urls, spec, "progress", func(cfg *Config) {
		cfg.OnProgress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 8 {
				t.Errorf("total = %d, want 8", total)
			}
			seen = append(seen, done)
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 || seen[len(seen)-1] != 8 {
		t.Errorf("progress sequence %v never reached 8/8", seen)
	}
	if res.Runs != 64 {
		t.Errorf("runs = %d, want 64", res.Runs)
	}
}

// TestClusterDefaultConfig runs the 8-part GHZ-5 job on two workers
// configured with nothing but their URLs: a part costs the time it
// computes, not a poll period, so the job finishes well inside a
// second, bit-identical to the single-node run.
func TestClusterDefaultConfig(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(5), 64) // 8 chunks, 8 parts
	want := singleNode(t, spec)
	urls, _, _ := startWorkers(t, 2)
	start := time.Now()
	got := runCluster(t, urls, spec, "defaults", nil)
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("8-part job on default settings took %v, want under 1s", elapsed)
	}
	assertIdentical(t, "defaults", want, got)
}

// TestCoordinatorValidation covers construction and spec errors.
func TestCoordinatorValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("coordinator with no workers accepted")
	}
	urls, _, _ := startWorkers(t, 1)
	if _, err := New(Config{Workers: urls, LeaseTTL: time.Millisecond}); err == nil {
		t.Error("coordinator with a lease TTL below three keepalives' worth accepted")
	}
	coord, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), "bad", JobSpec{QASM: "not qasm", Backend: "dd"}); err == nil {
		t.Error("malformed QASM accepted")
	}
}
