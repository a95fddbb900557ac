package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ddsim"
	"ddsim/internal/jobstore"
	"ddsim/internal/telemetry"
)

// newPersistentServer starts a server backed by a job store on dir,
// restores whatever the store holds, and returns a shutdown function
// that emulates a crash-adjacent stop: jobs are cancelled (like
// SIGTERM) but — per the persistence contract — in-flight jobs keep
// their queued/running status on disk, so a successor re-runs them.
func newPersistentServer(t *testing.T, dir string) (*httptest.Server, *server, func()) {
	t.Helper()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newServer(ctx, 1, 2, 10_000_000)
	s.store = store
	s.restore()
	ts := httptest.NewServer(s.handler())
	var once bool
	stop := func() {
		if once {
			return
		}
		once = true
		ts.Close()
		cancel()
		s.wait()
		store.Close()
	}
	t.Cleanup(stop)
	return ts, s, stop
}

// TestCrashRecovery is the acceptance test for the persistence layer:
// submit jobs, hard-stop the server mid-batch, restart on the same
// data dir — finished results are served from disk without a single
// new trajectory, and unfinished jobs re-run to completion with
// bit-identical same-seed results.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ts1, _, stop1 := newPersistentServer(t, dir)

	// Job 1: small, runs to completion before the crash.
	finishedID := submit(t, ts1, `{
		"circuit": {"name": "ghz", "n": 4},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 60, "seed": 11, "track_states": [0]}
	}`)
	want := waitTerminal(t, ts1, finishedID)
	if want.Status != statusDone {
		t.Fatalf("pre-crash job status %q (error %q)", want.Status, want.Error)
	}

	// Job 2: a budget far beyond test time — guaranteed mid-flight at
	// the crash (max-active=1 serialises; job 3 behind it is queued).
	runningID := submit(t, ts1, `{
		"circuit": {"name": "ghz", "n": 12},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 3000000, "seed": 1, "chunk_size": 16}
	}`)
	queuedID := submit(t, ts1, `{
		"circuit": {"name": "ghz", "n": 4},
		"options": {"runs": 40, "seed": 7, "track_states": [0]}
	}`)
	// Ensure job 2 actually started before the crash.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts1, runningID).Status != statusRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop1() // hard stop mid-batch

	servedBefore := telemetry.JobsRecovered.With("served").Value()
	requeuedBefore := telemetry.JobsRecovered.With("requeued").Value()
	ts2, _, _ := newPersistentServer(t, dir)

	// The finished job is served from disk, immediately and without
	// re-simulation: it was recovered as "served" and its original
	// execution timestamps are preserved (a re-run would re-stamp
	// them). The zero-trajectory property is asserted in
	// TestRestartServesResultsAcrossCleanRestart, where no re-queued
	// job runs concurrently to muddy the global counter.
	got := getJob(t, ts2, finishedID)
	if got.Status != statusDone {
		t.Fatalf("restored job status %q, want done", got.Status)
	}
	if telemetry.JobsRecovered.With("served").Value() != servedBefore+1 {
		t.Fatal("finished job not recovered as served-from-disk")
	}
	if got.Started == nil || !got.Started.Equal(*want.Started) {
		t.Fatalf("restored job re-ran: started %v, want original %v", got.Started, want.Started)
	}
	if len(got.Results) != 1 || got.Results[0] == nil {
		t.Fatalf("restored job lost results: %+v", got.Results)
	}
	if !reflect.DeepEqual(got.Results[0].TrackedProbs, want.Results[0].TrackedProbs) ||
		got.Results[0].Runs != want.Results[0].Runs {
		t.Fatalf("restored result differs: %+v vs %+v", got.Results[0], want.Results[0])
	}

	// The interrupted and the queued job were re-queued and run to
	// completion. The blocker is huge, so cancel it to let the suite
	// finish quickly; the queued job must complete on its own. (The
	// tiny requeued job may already have finished — assert the
	// recovery counter, not live state.)
	if got := telemetry.JobsRecovered.With("requeued").Value() - requeuedBefore; got != 2 {
		t.Fatalf("requeued %d jobs at restore, want 2", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/jobs/"+runningID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitTerminal(t, ts2, queuedID)
	if final.Status != statusDone {
		t.Fatalf("requeued job status %q (error %q)", final.Status, final.Error)
	}
	// Bit-identical to a fresh same-seed simulation of the same spec.
	ref, err := ddsim.Simulate(ddsim.GHZ(4), ddsim.BackendDD, ddsim.NoNoise(),
		ddsim.Options{Runs: 40, Seed: 7, TrackStates: []uint64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Results[0].TrackedProbs, ref.TrackedProbs) ||
		!reflect.DeepEqual(final.Results[0].Counts, ref.Counts) {
		t.Fatalf("requeued result not bit-identical: %+v vs %+v", final.Results[0], ref)
	}
	waitTerminal(t, ts2, runningID)
}

// TestRestartServesResultsAcrossCleanRestart covers the graceful path
// (Close before reopen) plus the regression from the issue: DELETE on
// a finished job — including one restored from disk, which has no
// live context — is a documented no-op 200.
func TestRestartServesResultsAcrossCleanRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _, stop1 := newPersistentServer(t, dir)
	id := submit(t, ts1, `{
		"circuit": {"name": "ghz", "n": 3},
		"options": {"runs": 25, "seed": 3}
	}`)
	waitTerminal(t, ts1, id)
	stop1()

	trajBefore := telemetry.Trajectories.Value()
	ts2, _, _ := newPersistentServer(t, dir)
	v := getJob(t, ts2, id)
	if v.Status != statusDone || len(v.Results) != 1 {
		t.Fatalf("restored view: %+v", v)
	}
	if telemetry.Trajectories.Value() != trajBefore {
		t.Fatal("serving a finished job from disk burned trajectories")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE restored finished job: status %d (%s), want 200", resp.StatusCode, raw)
	}
	var out struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Noop   bool   `json:"noop"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || !out.Noop || out.Status != statusDone {
		t.Fatalf("DELETE no-op body = %s (err %v)", raw, err)
	}
	// Nothing changed: the job still serves its results.
	v = getJob(t, ts2, id)
	if v.Status != statusDone || len(v.Results) != 1 {
		t.Fatalf("no-op DELETE mutated the job: %+v", v)
	}
}

// TestCancelFinishedJobNoop is the in-memory half of the DELETE
// regression: no restart involved.
func TestCancelFinishedJobNoop(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	id := submit(t, ts, `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 10, "seed": 2}}`)
	waitTerminal(t, ts, id)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE finished job: status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Status string `json:"status"`
		Noop   bool   `json:"noop"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.Noop {
		t.Fatalf("DELETE finished job: body not a documented no-op (err %v, %+v)", err, out)
	}
	if v := getJob(t, ts, id); v.Status != statusDone || len(v.Results) == 0 {
		t.Fatalf("no-op DELETE mutated the job: %+v", v)
	}
}

// TestResultCacheHit is the acceptance test for the result cache:
// resubmitting an identical job is served from the retained finished
// job without re-simulation — a cache hit and zero new trajectories.
func TestResultCacheHit(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	body := `{
		"circuit": {"name": "ghz", "n": 5},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 50, "seed": 9, "track_states": [0]}
	}`
	first := waitTerminal(t, ts, submit(t, ts, body))
	if first.Status != statusDone || first.Cached {
		t.Fatalf("first run: %+v", first)
	}

	traj := telemetry.Trajectories.Value()
	hits := telemetry.ResCacheHits.Value()
	second := waitTerminal(t, ts, submit(t, ts, body))
	if second.Status != statusDone {
		t.Fatalf("second run: %q (%s)", second.Status, second.Error)
	}
	if !second.Cached {
		t.Fatal("identical resubmission not marked cached")
	}
	if telemetry.Trajectories.Value() != traj {
		t.Fatalf("cache hit burned %d trajectories", telemetry.Trajectories.Value()-traj)
	}
	if telemetry.ResCacheHits.Value() != hits+1 {
		t.Fatalf("cache hits %d, want %d", telemetry.ResCacheHits.Value(), hits+1)
	}
	if !reflect.DeepEqual(first.Results[0].Counts, second.Results[0].Counts) ||
		!reflect.DeepEqual(first.Results[0].TrackedProbs, second.Results[0].TrackedProbs) {
		t.Fatal("cached result differs from the original")
	}

	// A different seed is a different job: no hit.
	third := waitTerminal(t, ts, submit(t, ts, strings.Replace(body, `"seed": 9`, `"seed": 10`, 1)))
	if third.Cached {
		t.Fatal("different seed served from cache")
	}
}

// TestDeviceGateNameIsNotACacheHit: a device gate name that spells
// another table's entries ("h:35\ngate_time=x" timed 40 ns against h at
// 35 ns and x at 40 ns) is a different noise point with different
// exact probabilities, so the second submission must be simulated, not
// served the first one's cached result.
func TestDeviceGateNameIsNotACacheHit(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	body := func(gateTimes string) string {
		return fmt.Sprintf(`{
			"circuit": {"name": "ghz", "n": 2},
			"noise": {"device": {"name": "g", "qubits": [{"t1_us": 80, "t2_us": 100}, {"t1_us": 60, "t2_us": 60}],
				"gate_times_ns": %s}},
			"options": {"mode": "exact"}
		}`, gateTimes)
	}
	first := waitTerminal(t, ts, submit(t, ts, body(`{"h:35\ngate_time=x": 40}`)))
	second := waitTerminal(t, ts, submit(t, ts, body(`{"h": 35, "x": 40}`)))
	for _, v := range []jobView{first, second} {
		if v.Status != statusDone || len(v.Results) != 1 {
			t.Fatalf("job %s: status %q (%s), %d results", v.ID, v.Status, v.Error, len(v.Results))
		}
	}
	if second.Cached {
		t.Fatal("a different device gate table was served from the cache")
	}
	if p1, p2 := first.Results[0].Probabilities[0], second.Results[0].Probabilities[0]; p1 == p2 {
		t.Fatalf("P(00) = %v for both gate tables, want them to differ", p1)
	}
}

// TestInFlightDedup: N identical submissions run the simulation once
// and fan the result out to all N. A blocker occupies the only
// simulation slot, so all four identical jobs resolve their key (one
// leads, three join) before any of them can start — the dedup is
// deterministic, not a timing accident.
func TestInFlightDedup(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	blocker := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 12},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 3000000, "seed": 1, "chunk_size": 16}
	}`)
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts, blocker).Status != statusRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body := `{
		"circuit": {"name": "ghz", "n": 6},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 200, "seed": 42, "track_states": [0]}
	}`
	joins := telemetry.ResCacheJoins.Value()
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, ts, body))
	}
	// Let every job goroutine resolve its key before the slot frees.
	waitJoins(t, joins+3)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cached, uncached := 0, 0
	var ref jobView
	for _, id := range ids {
		v := waitTerminal(t, ts, id)
		if v.Status != statusDone {
			t.Fatalf("job %s: %q (%s)", id, v.Status, v.Error)
		}
		if v.Cached {
			cached++
		} else {
			uncached++
			ref = v
		}
	}
	waitTerminal(t, ts, blocker)
	if uncached != 1 || cached != 3 {
		t.Fatalf("dedup split = %d simulated / %d joined, want 1/3", uncached, cached)
	}
	for _, id := range ids {
		v := getJob(t, ts, id)
		if !reflect.DeepEqual(v.Results[0].Counts, ref.Results[0].Counts) ||
			!reflect.DeepEqual(v.Results[0].TrackedProbs, ref.Results[0].TrackedProbs) {
			t.Fatalf("job %s result differs from the leader's", id)
		}
	}
}

// TestCancelledLeaderHandsOff: a leader cancelled while its three
// followers wait hands the key on. The followers re-resolve it, so
// exactly one of them simulates and the other two are served its
// results, byte for byte.
func TestCancelledLeaderHandsOff(t *testing.T) {
	ts, s := newTestServer(t, 1)
	blocker := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 12},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 3000000, "seed": 1, "chunk_size": 16}
	}`)
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts, blocker).Status != statusRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body := `{
		"circuit": {"name": "ghz", "n": 6},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 200, "seed": 43, "track_states": [0]}
	}`
	joins := telemetry.ResCacheJoins.Value()
	hits, misses := telemetry.ResCacheHits.Value(), telemetry.ResCacheMisses.Value()
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, ts, body))
	}
	waitJoins(t, joins+3)

	// The leader is the job that holds the key.
	s.mu.Lock()
	var leader string
	for _, j := range s.byKey {
		for _, id := range ids {
			if j.id == id {
				leader = id
			}
		}
	}
	s.mu.Unlock()
	if leader == "" {
		t.Fatal("no submission leads the key")
	}
	cancelJob(t, ts, leader)
	if v := waitTerminal(t, ts, leader); v.Status != statusCancelled || v.Cached {
		t.Fatalf("leader %s: status %q cached=%v, want cancelled", leader, v.Status, v.Cached)
	}
	// Two followers join the one that took over before the slot frees.
	waitJoins(t, joins+5)
	cancelJob(t, ts, blocker)

	var simulated string
	var cached []string
	for _, id := range ids {
		if id == leader {
			continue
		}
		v := waitTerminal(t, ts, id)
		if v.Status != statusDone {
			t.Fatalf("follower %s: %q (%s)", id, v.Status, v.Error)
		}
		if v.Cached {
			cached = append(cached, id)
		} else {
			simulated = id
		}
	}
	waitTerminal(t, ts, blocker)
	if simulated == "" || len(cached) != 2 {
		t.Fatalf("hand-off split = %q simulated / %v cached, want one and two", simulated, cached)
	}
	// Joins count waits: the three first waits on the cancelled leader
	// and the two on its successor. The two leaders are the misses.
	if dh, dm, dj := telemetry.ResCacheHits.Value()-hits, telemetry.ResCacheMisses.Value()-misses,
		telemetry.ResCacheJoins.Value()-joins; dh != 0 || dm != 2 || dj != 5 {
		t.Fatalf("hits/misses/joins = %d/%d/%d, want 0/2/5", dh, dm, dj)
	}
	want := rawResults(t, ts, simulated)
	for _, id := range cached {
		if got := rawResults(t, ts, id); got != want {
			t.Fatalf("follower %s results differ from the new leader's:\n%s\n%s", id, got, want)
		}
	}
}

// waitJoins waits until the dedup-join counter reaches want.
func waitJoins(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for telemetry.ResCacheJoins.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("dedup joins at %d, want %d", telemetry.ResCacheJoins.Value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelJob sends DELETE /jobs/{id}.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestPriorityDispatch: with one slot busy, a high-priority job beats
// an earlier-submitted low-priority one to the next slot. The two
// differ in seed, so neither joins the other.
func TestPriorityDispatch(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	blocker := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 12},
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"runs": 3000000, "seed": 1, "chunk_size": 16}
	}`)
	low := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 3},
		"options": {"runs": 10, "seed": 1}
	}`)
	high := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 3},
		"options": {"runs": 10, "seed": 2},
		"priority": 50
	}`)
	// Both waiters must be enqueued before the slot frees.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if getJob(t, ts, low).Status == statusQueued && getJob(t, ts, high).Status == statusQueued &&
			getJob(t, ts, blocker).Status == statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("setup never reached running+queued+queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	hv := waitTerminal(t, ts, high)
	lv := waitTerminal(t, ts, low)
	waitTerminal(t, ts, blocker)
	if hv.Priority != 50 {
		t.Fatalf("priority not echoed: %+v", hv)
	}
	// One slot: the high-priority job must have started (and with one
	// slot, finished) before the low-priority one started.
	if hv.Started == nil || lv.Started == nil {
		t.Fatalf("missing start times: %+v %+v", hv, lv)
	}
	if lv.Started.Before(*hv.Started) {
		t.Fatalf("low-priority job started first: low %v vs high %v", lv.Started, hv.Started)
	}
}

// TestRateLimit: the per-client token bucket sheds the burst-th+1
// submission with 429 and Retry-After.
func TestRateLimit(t *testing.T) {
	ts, s := newTestServer(t, 2)
	s.limiter = newRateLimiter(0.5, 2) // 2 quick submissions, then ~2 s/token
	body := func(seed int) string {
		return fmt.Sprintf(`{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 5, "seed": %d}}`, seed)
	}
	submit(t, ts, body(1))
	submit(t, ts, body(2))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if telemetry.JobsRejected.With("rate_limit").Value() == 0 {
		t.Fatal("rate_limit rejection not counted")
	}
}

// TestRescacheMetricsExposed: the new instrument families appear in
// the Prometheus exposition.
func TestRescacheMetricsExposed(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	body := `{"circuit": {"name": "ghz", "n": 3}, "options": {"runs": 5, "seed": 77}}`
	waitTerminal(t, ts, submit(t, ts, body))
	waitTerminal(t, ts, submit(t, ts, body)) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"ddsim_rescache_hits_total",
		"ddsim_rescache_misses_total",
		"ddsim_rescache_dedup_joins_total",
		"ddsim_jobstore_wal_appends_total",
		"ddsim_jobs_recovered_total",
		"ddsim_jobs_rejected_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// rawResults returns the results array of GET /jobs/{id} verbatim.
func rawResults(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return string(v.Results)
}

// TestRecoverRemovedOptions restarts on data dirs whose WAL carries a
// job accepted while a since-removed option still existed:
// options.checkpointing ("checkpointing":"off") and
// options.exact_backend ("exact_backend":"ddensity"). Recovery decodes
// specs without rejecting unknown fields, so each job re-runs, to the
// same results as a fresh submission without the field.
func TestRecoverRemovedOptions(t *testing.T) {
	const noise = `"noise":{"depolarizing":0.001,"damping":0.002,"damping_as_event":true}`
	cases := []struct {
		name, spec, field string
	}{
		{"checkpointing",
			`{"circuit":{"name":"ghz","n":4},` + noise + `,"options":{"runs":60,"seed":11,"track_states":[0]}}`,
			`"checkpointing":"off"`},
		{"exact_backend",
			`{"circuit":{"name":"ghz","n":4},` + noise + `,"options":{"mode":"exact","track_states":[0]}}`,
			`"exact_backend":"ddensity"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tsRef, _, _ := newPersistentServer(t, t.TempDir())
			ref := waitTerminal(t, tsRef, submit(t, tsRef, tc.spec))

			old := strings.Replace(tc.spec, `"options":{`, `"options":{`+tc.field+`,`, 1)
			rec, err := json.Marshal(jobstore.Record{
				ID: ref.ID, Spec: json.RawMessage(old), Submitted: ref.Submitted,
				Circuit: ref.Circuit, Qubits: ref.Qubits, Gates: ref.Gates, Backend: ref.Backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			line := fmt.Sprintf(`{"id":%q,"status":"queued","t":"2024-01-01T00:00:00Z","record":%s}`+"\n", ref.ID, rec)
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}

			requeuedBefore := telemetry.JobsRecovered.With("requeued").Value()
			ts, _, _ := newPersistentServer(t, dir)
			if got := telemetry.JobsRecovered.With("requeued").Value() - requeuedBefore; got != 1 {
				t.Fatalf("%d jobs re-queued, want 1", got)
			}
			v := waitTerminal(t, ts, ref.ID)
			if v.Status != statusDone {
				t.Fatalf("recovered job status %q (error %q), want done", v.Status, v.Error)
			}
			if got, want := canonicalResults(t, v), canonicalResults(t, ref); got != want {
				t.Fatalf("recovered job's results differ from a fresh run:\n%s\n%s", got, want)
			}
		})
	}
}
