package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// Fault-injection schedules. Every test here ends on the same
// assertion as the happy path: the merged result is bit-identical to
// single-node, because a lost lease re-simulates deterministically and
// the fence keeps every chunk counted exactly once.

// blockingGate wires a Worker.Gate that blocks every compute at its
// first chunk until released, signalling the first entry.
type blockingGate struct {
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingGate(t *testing.T, w *Worker) *blockingGate {
	g := &blockingGate{blocked: make(chan struct{}), release: make(chan struct{})}
	w.Gate = func(Token, int) {
		g.once.Do(func() { close(g.blocked) })
		<-g.release
	}
	t.Cleanup(func() {
		select {
		case <-g.release:
		default:
			close(g.release)
		}
	})
	return g
}

// stallFirst serves the first request the way a partition does: the
// response headers go out and then nothing, until the coordinator
// hangs up. entered is closed when that request arrives; later
// requests reach h.
func stallFirst(h http.Handler, entered chan struct{}) http.Handler {
	var first sync.Once
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		stall := false
		first.Do(func() { stall = true })
		if !stall {
			h.ServeHTTP(rw, r)
			return
		}
		rw.WriteHeader(http.StatusOK)
		rw.(http.Flusher).Flush()
		close(entered)
		<-r.Context().Done()
	})
}

// TestWorkerKilledMidChunk kills a worker mid-range — its compute is
// stalled inside a chunk and then its server goes away entirely — and
// asserts the surviving worker re-simulates the lost lease to a
// bit-identical merged result. The broken stream gives the part back
// at once, so this runs on the default lease settings.
func TestWorkerKilledMidChunk(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(6).MeasureAll(), 80) // 10 chunks
	want := singleNode(t, spec)
	urls, workers, servers := startWorkers(t, 2)
	gate := newBlockingGate(t, workers[0])

	reassignedBefore := telemetry.ClusterReassignments.Value()
	failuresBefore := telemetry.ClusterWorkerFailures.Value()
	coord, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type outcome struct {
		res *stochastic.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(ctx, "killed-worker", spec)
		done <- outcome{res, err}
	}()

	// Worker 0 is now stalled inside its first leased chunk; kill it.
	<-gate.blocked
	servers[0].CloseClientConnections()
	servers[0].Close()

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertIdentical(t, "killed-worker", want, out.res)
	if telemetry.ClusterReassignments.Value() == reassignedBefore {
		t.Error("no lease was reassigned despite the killed worker")
	}
	if telemetry.ClusterWorkerFailures.Value() == failuresBefore {
		t.Error("the coordinator saw no worker failure despite the killed worker")
	}
}

// TestClusterQFT16ReproducesItselfAcrossFailures runs a QFT-16 job —
// the smallest DD size whose results move with the worker count —
// through a 2-worker cluster twice: once clean, and once with worker 0
// killed inside its first lease. Every lease re-runs one part of the
// job's plan on a fresh backend, so the two merged results must be
// bit-identical to each other (not to a single-node run, whose workers
// keep one backend across their parts).
func TestClusterQFT16ReproducesItselfAcrossFailures(t *testing.T) {
	spec := benchSpec(t, circuit.QFTWithInput(16, 0x5a5a), 160) // 20 chunks, 20 parts
	urls, _, _ := startWorkers(t, 2)
	clean := runCluster(t, urls, spec, "qft16-clean", nil)

	urls, workers, servers := startWorkers(t, 2)
	gate := newBlockingGate(t, workers[0])
	failuresBefore := telemetry.ClusterWorkerFailures.Value()
	coord, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type outcome struct {
		res *stochastic.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(ctx, "qft16-killed", spec)
		done <- outcome{res, err}
	}()
	<-gate.blocked
	servers[0].CloseClientConnections()
	servers[0].Close()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertIdentical(t, "QFT-16, worker 0 killed mid-part", clean, out.res)
	if telemetry.ClusterWorkerFailures.Value() == failuresBefore {
		t.Error("the coordinator saw no worker failure despite the killed worker")
	}
}

// TestLeaseExpiryByClockAdvance drives lease expiry purely by
// advancing a manual clock: worker 0's first stream is partitioned
// (headers, then silence), and nothing happens until the clock
// advances past the TTL — then the lease expires, the part is
// re-simulated, and the merged result stays bit-identical.
func TestLeaseExpiryByClockAdvance(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(6).MeasureAll(), 80) // 10 chunks, 10 parts
	want := singleNode(t, spec)
	urls, _, _ := startWorkers(t, 1)
	entered := make(chan struct{})
	stalled := httptest.NewServer(stallFirst(NewWorker(testResolve).Handler(), entered))
	t.Cleanup(stalled.Close)

	clk := newManualClock(time.Unix(1000, 0))
	partsBefore := telemetry.ClusterPartsCompleted.Value()
	expiredBefore := telemetry.ClusterLeasesExpired.Value()
	coord, err := New(Config{
		Workers:  []string{stalled.URL, urls[0]},
		LeaseTTL: time.Second, // manual-clock seconds: frozen until Advance
		Clock:    clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan *stochastic.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := coord.Run(ctx, "expiry", spec)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()

	// The partitioned stream holds exactly one part; the other worker
	// finishes the other 9. Until the clock moves, the silent lease
	// cannot expire.
	<-entered
	deadline := time.After(30 * time.Second)
	for telemetry.ClusterPartsCompleted.Value() < partsBefore+9 {
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("the other worker never finished the unblocked parts")
		case <-time.After(time.Millisecond):
		}
	}
	if got := telemetry.ClusterLeasesExpired.Value(); got != expiredBefore {
		t.Fatalf("a lease expired while the clock was frozen")
	}

	// One clock advance past the TTL is the whole failure: the lease
	// expires, and its part is re-leased and re-simulated.
	clk.Advance(1500 * time.Millisecond)
	select {
	case res := <-done:
		assertIdentical(t, "expiry", want, res)
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete after the lease expired")
	}
	// Whichever saw it first, the driver's deadline check or another
	// driver's Acquire, counts the expiry; the other finds it handled.
	if got := telemetry.ClusterLeasesExpired.Value() - expiredBefore; got != 1 {
		t.Errorf("expiry counter rose by %d, want 1", got)
	}
}

// TestStaleCompletionFenced replays the full split-brain schedule
// against a real worker over HTTP: a lease expires while its worker's
// stream is silent, the part is reassigned and completed elsewhere,
// and then the original worker finishes and streams its sums — which
// the fencing token rejects, leaving every chunk counted exactly once
// and the merged result bit-identical.
func TestStaleCompletionFenced(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(5).MeasureAll(), 32) // 4 chunks, one part
	want := singleNode(t, spec)
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		t.Fatal(err)
	}
	urls, workers, _ := startWorkers(t, 1)
	gate := newBlockingGate(t, workers[0])

	// An hour-long lease on a manual clock: the worker's keepalive
	// cadence and the driver's deadline check (20 real minutes) never
	// come round, so the stream stays silent while the worker is gated.
	clk := newManualClock(time.Unix(2000, 0))
	plan.PartChunks = plan.NumChunks // one part
	tb := newTable(plan, time.Hour, clk.Now)
	coord, err := New(Config{Workers: urls, LeaseTTL: time.Hour, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Grant the lease and stream it from the worker, exactly as
	// drive() would.
	l1, ok := tb.Acquire(urls[0])
	if !ok {
		t.Fatal("acquire failed")
	}
	ran := make(chan bool, 1)
	go func() { ran <- coord.run(ctx, urls[0], spec, l1, tb, nil, func(error) {}) }()
	<-gate.blocked

	// Reassignment: past the deadline the part is reclaimed under a
	// newer fence and its chunks re-simulated (here inline — same
	// seeds, same sums).
	clk.Advance(2 * time.Hour)
	l2, ok := tb.Acquire("recovery-worker")
	if !ok {
		t.Fatal("expired lease was not reclaimed")
	}
	if l2.Part != l1.Part || l2.ID <= l1.ID {
		t.Fatalf("reclaim lease %+v does not fence %+v", l2, l1)
	}
	factory, err := testResolve(spec.Backend)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := stochastic.RunChunks(ctx, factory, job, l2.First, l2.Count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Complete(l2, sums); err != nil {
		t.Fatal(err)
	}

	// The original worker finishes and streams its sums: they must
	// bounce off the fence, and a fenced completion is no worker
	// failure.
	staleBefore := telemetry.ClusterStaleCompletions.Value()
	close(gate.release)
	select {
	case ok := <-ran:
		if !ok {
			t.Error("the fenced stream was counted as a worker failure")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the stale lease's stream never resolved")
	}
	if got := telemetry.ClusterStaleCompletions.Value() - staleBefore; got != 1 {
		t.Errorf("stale completions = %d, want exactly 1", got)
	}

	// Exactly-once accounting: the table holds one sum per chunk and
	// the merge is still bit-identical.
	all, err := tb.Sums()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := stochastic.ReduceChunks(job, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "stale-fenced", want, merged)
}
