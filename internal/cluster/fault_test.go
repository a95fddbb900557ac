package cluster

import (
	"context"
	"sync"
	"sync/atomic"
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

// TestWorkerKilledMidChunk kills a worker mid-range — its compute is
// stalled inside a chunk and then its server goes away entirely — and
// asserts the surviving worker re-simulates the lost lease to a
// bit-identical merged result.
func TestWorkerKilledMidChunk(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(6).MeasureAll(), 80) // 10 chunks
	want := singleNode(t, spec)
	urls, workers, servers := startWorkers(t, 2)
	gate := newBlockingGate(t, workers[0])
	// The coordinator heartbeats a lease only after it has read the
	// worker's 202 for it. Killing worker 0 before that could cut the
	// reply, and the coordinator would release the part at once instead
	// of letting it expire, which is the path this test pins.
	heartbeat := make(chan struct{})
	var heartbeatOnce sync.Once
	workers[0].DropHeartbeats = func() bool {
		heartbeatOnce.Do(func() { close(heartbeat) })
		return false
	}

	reassignedBefore := telemetry.ClusterReassignments.Value()
	coord, err := New(Config{
		Workers:        urls,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: 5 * time.Millisecond,
	})
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

	// Worker 0 is now stalled inside its first leased chunk, and the
	// coordinator holds the lease; kill it.
	<-gate.blocked
	<-heartbeat
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
	coord, err := New(Config{
		Workers:        urls,
		LeaseTTL:       100 * time.Millisecond,
		HeartbeatEvery: 5 * time.Millisecond,
	})
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
	// The lost part comes back either by lease expiry or, when the
	// kill also cut the grant's reply, by an immediate release; both
	// count a worker failure.
	if telemetry.ClusterWorkerFailures.Value() == failuresBefore {
		t.Error("the coordinator saw no worker failure despite the killed worker")
	}
}

// TestLeaseExpiryByClockAdvance drives lease expiry purely by
// advancing a manual clock: worker 0 accepts a lease, its
// heartbeat path partitions, and nothing happens until the clock
// advances past the TTL — then the lease is reclaimed, re-simulated
// by worker 1, and the merged result stays bit-identical.
func TestLeaseExpiryByClockAdvance(t *testing.T) {
	spec := benchSpec(t, circuit.GHZ(6).MeasureAll(), 80) // 10 chunks, 10 parts
	want := singleNode(t, spec)
	urls, workers, _ := startWorkers(t, 2)
	gate := newBlockingGate(t, workers[0])
	var dropping atomic.Bool
	dropping.Store(true)
	workers[0].DropHeartbeats = dropping.Load

	clk := newManualClock(time.Unix(1000, 0))
	partsBefore := telemetry.ClusterPartsCompleted.Value()
	expiredBefore := telemetry.ClusterLeasesExpired.Value()
	coord, err := New(Config{
		Workers:        urls,
		LeaseTTL:       time.Second, // manual-clock seconds: frozen until Advance
		HeartbeatEvery: 2 * time.Millisecond,
		Clock:          clk.Now,
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

	// Worker 0 holds exactly one part, stalled; worker 1 finishes the
	// other 9. Until the clock moves, the stalled lease cannot expire.
	<-gate.blocked
	deadline := time.After(30 * time.Second)
	for telemetry.ClusterPartsCompleted.Value() < partsBefore+9 {
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("worker 1 never finished the unblocked parts")
		case <-time.After(time.Millisecond):
		}
	}
	if got := telemetry.ClusterLeasesExpired.Value(); got != expiredBefore {
		t.Fatalf("a lease expired while the clock was frozen")
	}

	// One clock advance past the TTL is the whole failure: the lease
	// expires, worker 1 reclaims and re-simulates the lost chunk.
	clk.Advance(1500 * time.Millisecond)
	select {
	case res := <-done:
		assertIdentical(t, "expiry", want, res)
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("job did not complete after the lease expired")
	}
	if telemetry.ClusterLeasesExpired.Value() == expiredBefore {
		t.Error("expiry counter did not advance")
	}
}

// TestStaleCompletionFenced replays the full split-brain schedule
// against a real worker over HTTP: a lease expires while its worker
// is partitioned, the part is reassigned and completed elsewhere, and
// then the original worker comes back and delivers its finished sums
// — which the fencing token rejects, leaving every chunk counted
// exactly once and the merged result bit-identical.
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
	var dropping atomic.Bool
	dropping.Store(true)
	workers[0].DropHeartbeats = dropping.Load

	clk := newManualClock(time.Unix(2000, 0))
	plan.PartChunks = plan.NumChunks // one part
	tb := newTable(plan, time.Second, clk.Now)
	coord, err := New(Config{
		Workers:        urls,
		LeaseTTL:       time.Second,
		HeartbeatEvery: time.Millisecond,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Grant the lease and hand it to the worker, exactly as drive()
	// would.
	l1, ok := tb.Acquire(urls[0])
	if !ok {
		t.Fatal("acquire failed")
	}
	req := leaseRequest{LeaseID: l1.ID.String(), Job: spec, First: l1.First, Count: l1.Count}
	if err := coord.post(ctx, urls[0]+"/work/lease", req, nil); err != nil {
		t.Fatal(err)
	}
	<-gate.blocked

	tendDone := make(chan struct{})
	go func() {
		defer close(tendDone)
		coord.tend(ctx, urls[0], l1, tb, nil, func(error) {})
	}()

	// Partitioned heartbeats + clock advance: the lease expires.
	clk.Advance(1500 * time.Millisecond)

	// Reassignment: the coordinator re-leases the part and the chunks
	// are re-simulated (here inline — same seeds, same sums).
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

	// The partitioned worker comes back and finishes: its completion
	// must bounce off the fence.
	staleBefore := telemetry.ClusterStaleCompletions.Value()
	dropping.Store(false)
	close(gate.release)
	select {
	case <-tendDone:
	case <-time.After(30 * time.Second):
		t.Fatal("tender never resolved the stale lease")
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
