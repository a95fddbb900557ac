package main

// Regression tests for the serving plane: SSE keepalive cadence from
// the per-stream ticker, no goroutine outliving close, Retry-After
// hints derived from the refill schedule, bounded rate-bucket tables,
// phase histograms on /metrics, and bit-identical same-seed results
// through the dispatcher.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddsim/internal/jobstore"
	"ddsim/internal/telemetry"
)

// TestSSEKeepaliveCadence subscribes to a job that is queued behind a
// busy slot — its stream is otherwise silent — and expects its ticker
// to deliver keepalive comments at the configured cadence without
// corrupting the event framing.
func TestSSEKeepaliveCadence(t *testing.T) {
	ts, s := newTestServer(t, 1)
	s.sseKeepalive = 30 * time.Millisecond

	// Occupy the only slot with a long job, then queue a second one.
	long := `{"circuit":{"name":"ghz","n":16},"options":{"runs":10000000,"seed":1}}`
	blocker := submit(t, ts, long)
	// Submitted first, the blocker's goroutine can still reach the
	// dispatcher after the queued job's and lose the slot to it.
	waitFor(t, "the blocker to hold the slot", func() bool { return getJob(t, ts, blocker).Status == statusRunning })
	queued := submit(t, ts, `{"circuit":{"name":"ghz","n":4},"options":{"runs":10,"seed":2}}`)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+queued+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer resp.Body.Close()

	// Count keepalive comments off the live stream; three at a 30ms
	// cadence should arrive well within the deadline.
	keepalives := 0
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for keepalives < 3 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed after %d keepalives", keepalives)
			}
			if strings.HasPrefix(line, ":") {
				keepalives++
			}
		case <-deadline:
			t.Fatalf("only %d keepalives after 10s at a 30ms cadence", keepalives)
		}
	}

	// Unblock and let the queued job finish; the stream must still end
	// with a well-formed result event despite the interleaved comments.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker, nil)
	if _, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	var sawResult bool
	resultDeadline := time.After(20 * time.Second)
	for !sawResult {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed without a result event")
			}
			if line == "event: result" {
				sawResult = true
			}
		case <-resultDeadline:
			t.Fatalf("no result event after unblocking the queue")
		}
	}
}

// TestTimersStopOnClose holds 50 SSE streams open on queued jobs at a
// 10ms keepalive cadence beside fast maintenance duties, then closes
// everything: no duty may run once close has returned, and the
// goroutine count must return to its pre-server baseline.
func TestTimersStopOnClose(t *testing.T) {
	const streams = 50
	before := runtime.NumGoroutine()

	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, 1, 1, 10_000_000)
	s.sseKeepalive = 10 * time.Millisecond
	s.store = store
	s.compactEvery = 5 * time.Millisecond
	s.limiter = newRateLimiter(1e6, 1e6)
	s.limiter.refillEvery = time.Millisecond
	s.startMaintenance()
	ts := httptest.NewServer(s.handler())

	submit(t, ts, `{"circuit":{"name":"ghz","n":16},"options":{"runs":10000000,"seed":1}}`)
	tr := &http.Transport{}
	streamCtx, closeStreams := context.WithCancel(context.Background())
	var keptAlive atomic.Int32 // streams that saw a keepalive
	var ended sync.WaitGroup
	for i := 0; i < streams; i++ {
		id := submit(t, ts, fmt.Sprintf(`{"circuit":{"name":"ghz","n":4},"options":{"runs":10,"seed":%d}}`, i+2))
		req, _ := http.NewRequestWithContext(streamCtx, http.MethodGet, ts.URL+"/jobs/"+id+"/events", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatalf("subscribe %s: %v", id, err)
		}
		ended.Add(1)
		go func() {
			defer ended.Done()
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for first := true; sc.Scan(); {
				if first && strings.HasPrefix(sc.Text(), ":") {
					first = false
					keptAlive.Add(1)
				}
			}
		}()
	}
	waitFor(t, "a keepalive on every stream", func() bool { return keptAlive.Load() == streams })

	lastRefill := func() time.Time {
		s.limiter.mu.Lock()
		defer s.limiter.mu.Unlock()
		return s.limiter.nextRefill
	}
	compactions := telemetry.WALCompactions.Value()
	waitFor(t, "maintenance duties running", func() bool {
		return telemetry.WALCompactions.Value() >= compactions+2 && !lastRefill().IsZero()
	})

	closeStreams()
	ended.Wait()
	ts.Close()
	cancel()
	s.wait()
	s.close()
	compactions, refill := telemetry.WALCompactions.Value(), lastRefill()
	time.Sleep(50 * time.Millisecond) // ten compaction and fifty refill periods
	if telemetry.WALCompactions.Value() != compactions || !lastRefill().Equal(refill) {
		t.Fatal("a maintenance duty ran after close returned")
	}
	store.Close()
	tr.CloseIdleConnections()

	waitFor(t, fmt.Sprintf("goroutines back to the baseline of %d", before),
		func() bool { return runtime.NumGoroutine() <= before })
}

// waitFor polls cond for up to 10s and fails the test with what it
// was waiting for if cond never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerStartsNoGoroutine: newServer starts no goroutine of its
// own (the dispatcher grants inside Acquire and Release), and after
// close the goroutine count is back at its baseline.
func TestServerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newServer(ctx, 2, 1, 10_000_000)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("newServer started %d goroutines", n-before)
	}
	s.close()
	waitFor(t, fmt.Sprintf("goroutines back to the baseline of %d", before),
		func() bool { return runtime.NumGoroutine() <= before })
}

// TestRetryAfterFromRefillSchedule pins the Retry-After computation to
// the refill schedule: once a refill tick has run, the wait for
// an empty bucket is exactly (time to next tick) + (full ticks still
// needed), not a continuous-rate guess.
func TestRetryAfterFromRefillSchedule(t *testing.T) {
	rl := newRateLimiter(2, 1) // 2 tokens/s, 0.5 per 250ms tick
	t0 := time.Unix(1000, 0)
	rl.refill(t0) // schedule established: next tick at t0+250ms

	if ok, _ := rl.allow("c", t0); !ok {
		t.Fatalf("first submission must pass on a full bucket")
	}
	now := t0.Add(10 * time.Millisecond)
	ok, wait := rl.allow("c", now)
	if ok {
		t.Fatalf("second submission must be rejected (burst 1)")
	}
	// Deficit 1 token at 0.5/tick → 2 ticks; first lands at t0+250ms.
	want := 240*time.Millisecond + 250*time.Millisecond
	if wait != want {
		t.Fatalf("wait = %v, want %v (refill-schedule derived)", wait, want)
	}

	// Before any refill tick the limiter falls back to the continuous
	// estimate — deficit/rate — so it never promises a schedule it
	// does not have.
	fresh := newRateLimiter(2, 1)
	fresh.allow("c", t0)
	_, wait = fresh.allow("c", t0)
	if want := 500 * time.Millisecond; wait != want {
		t.Fatalf("pre-schedule wait = %v, want %v", wait, want)
	}
}

// TestRateBucketIdleEviction proves the per-client bucket table cannot
// grow without bound: full buckets idle past idleAfter are evicted by
// the periodic refill pass.
func TestRateBucketIdleEviction(t *testing.T) {
	rl := newRateLimiter(100, 1) // refills to full in one tick
	rl.idleAfter = 10 * time.Millisecond
	t0 := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		rl.allow(fmt.Sprintf("client-%d", i), t0)
	}
	if got := rl.size(); got != 50 {
		t.Fatalf("tracked %d buckets, want 50", got)
	}
	rl.refill(t0.Add(5 * time.Millisecond)) // tops every bucket back up; none idle yet
	if got := rl.size(); got != 50 {
		t.Fatalf("eviction fired before idleAfter: %d buckets left", got)
	}
	rl.refill(t0.Add(50 * time.Millisecond)) // all full and idle → evicted
	if got := rl.size(); got != 0 {
		t.Fatalf("idle eviction left %d buckets, want 0", got)
	}
	// An active client survives the sweep.
	rl.allow("busy", t0.Add(60*time.Millisecond))
	rl.refill(t0.Add(65 * time.Millisecond))
	if got := rl.size(); got != 1 {
		t.Fatalf("active client evicted: %d buckets, want 1", got)
	}
}

// TestPhaseHistogramsExposed completes one job and expects the
// per-phase latency histograms and their quantile gauges on /metrics.
func TestPhaseHistogramsExposed(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	id := submit(t, ts, `{"circuit":{"name":"ghz","n":4},"options":{"runs":20,"seed":7}}`)
	waitTerminal(t, ts, id)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, want := range []string{
		"# TYPE ddsim_queue_wait_seconds histogram",
		`ddsim_queue_wait_seconds_bucket{le="+Inf"}`,
		"ddsim_queue_wait_seconds_p99",
		"# TYPE ddsim_simulate_seconds histogram",
		"ddsim_e2e_seconds_count",
		"ddsim_e2e_seconds_p50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestSameSeedBitIdentical re-runs an identical submission (the
// server retains one job, so the second submission evicts the first
// and both actually simulate through the dispatcher) and requires
// byte-identical results.
func TestSameSeedBitIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, 2, 2, 10_000_000)
	s.maxJobs = 1
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.wait()
		s.close()
	})

	spec := `{"circuit":{"name":"ghz","n":8},
		"noise":{"depolarizing":0.001,"damping":0.002,"phase_flip":0.001,"damping_as_event":true},
		"options":{"runs":300,"seed":42}}`
	a := waitTerminal(t, ts, submit(t, ts, spec))
	b := waitTerminal(t, ts, submit(t, ts, spec))
	if a.Status != statusDone || b.Status != statusDone {
		t.Fatalf("statuses %s/%s, want done/done", a.Status, b.Status)
	}
	if a.Cached || b.Cached {
		t.Fatalf("first job evicted but a job was served cached")
	}
	ra, rb := canonicalResults(t, a), canonicalResults(t, b)
	if ra != rb {
		t.Fatalf("same-seed results differ:\n%s\n%s", ra, rb)
	}
}

// canonicalResults renders a job's results with wall-clock timing
// stripped: elapsed_ns measures the run, not the simulation, and is
// the only field allowed to differ between same-seed runs.
func canonicalResults(t *testing.T, v jobView) string {
	t.Helper()
	raw, err := json.Marshal(v.Results)
	if err != nil {
		t.Fatal(err)
	}
	var rs []map[string]any
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		delete(r, "elapsed_ns")
	}
	out, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
