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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ddsim/internal/telemetry"
)

// config parameterises one load run.
type config struct {
	BaseURL string // ddsimd base URL, e.g. http://127.0.0.1:8344

	Total       int           // submissions to issue
	Concurrency int           // concurrent submitter goroutines
	Watchers    int           // concurrent watcher goroutines (0 = Concurrency)
	Rate        float64       // open-loop arrival rate in submissions/s (0 = closed loop, as fast as possible)
	Duration    time.Duration // hard deadline for the whole run (0 = none)

	SSEFraction    float64 // fraction of jobs observed via /events instead of polling
	CancelFraction float64 // fraction of jobs cancelled after submission

	// SubmitFirst holds the watcher pool back until every submission
	// has been issued, so the in-flight population climbs to Total
	// before anything is driven to terminal — the mode that proves a
	// concurrency level rather than a throughput level.
	SubmitFirst bool

	Circuit  string // built-in circuit family (qbench name)
	Qubits   int
	Runs     int
	Backend  string
	Priority int // submissions cycle through [-Priority, +Priority]
}

// report is the outcome of a load run, printable as text or JSON.
type report struct {
	Total         int       `json:"total"`     // submissions attempted
	Accepted      int64     `json:"accepted"`  // 202 responses
	Rejected      int64     `json:"rejected"`  // 429 responses (admission control, not errors)
	Errors        int64     `json:"errors"`    // transport failures and non-202/429 statuses
	Lost          int64     `json:"lost"`      // accepted but never observed terminal
	Duplicate     int64     `json:"duplicate"` // duplicate job ids handed out
	Cancelled     int64     `json:"cancelled"`
	Done          int64     `json:"done"`
	Failed        int64     `json:"failed"`
	PeakInFlight  int64     `json:"peak_in_flight"` // max accepted-but-not-terminal at any instant
	Elapsed       float64   `json:"elapsed_seconds"`
	SubmitPerSec  float64   `json:"submit_per_sec"` // accepted / elapsed
	Keepalives    int64     `json:"sse_keepalives"` // keepalive comments observed on event streams
	SubmitLatency latencies `json:"submit_latency"`
	E2ELatency    latencies `json:"e2e_latency"`
}

// latencies is the quantile summary of one histogram, in seconds.
type latencies struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// errorRate is the fraction of attempts that failed outright
// (rejections are admission control doing its job, not errors).
func (r *report) errorRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Total)
}

func (r *report) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ddload: %d submissions in %.1fs (%.0f accepted/s)\n",
		r.Total, r.Elapsed, r.SubmitPerSec)
	fmt.Fprintf(&b, "  accepted %d  rejected %d  errors %d (%.3f%%)\n",
		r.Accepted, r.Rejected, r.Errors, 100*r.errorRate())
	fmt.Fprintf(&b, "  terminal: done %d  cancelled %d  failed %d  lost %d  duplicate %d\n",
		r.Done, r.Cancelled, r.Failed, r.Lost, r.Duplicate)
	fmt.Fprintf(&b, "  peak in-flight %d  sse keepalives %d\n", r.PeakInFlight, r.Keepalives)
	fmt.Fprintf(&b, "  submit  p50 %s  p95 %s  p99 %s  max %s\n",
		fmtDur(r.SubmitLatency.P50), fmtDur(r.SubmitLatency.P95),
		fmtDur(r.SubmitLatency.P99), fmtDur(r.SubmitLatency.Max))
	fmt.Fprintf(&b, "  e2e     p50 %s  p95 %s  p99 %s  max %s\n",
		fmtDur(r.E2ELatency.P50), fmtDur(r.E2ELatency.P95),
		fmtDur(r.E2ELatency.P99), fmtDur(r.E2ELatency.Max))
	return b.String()
}

func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// maxFloat tracks a maximum under atomic updates (seconds as float).
type maxFloat struct {
	mu sync.Mutex
	v  float64
}

func (m *maxFloat) observe(v float64) {
	m.mu.Lock()
	if v > m.v {
		m.v = v
	}
	m.mu.Unlock()
}

// loader drives one run: a submitter pool issues jobs open- or
// closed-loop, a watcher pool drives every accepted job to an observed
// terminal state (SSE subscription, polling, or cancellation), and the
// accounting proves conservation — every accepted id is observed
// terminal exactly once, or it counts as lost.
type loader struct {
	cfg    config
	client *http.Client

	submitHist *telemetry.Histogram
	e2eHist    *telemetry.Histogram
	submitMax  maxFloat
	e2eMax     maxFloat

	accepted   atomic.Int64
	rejected   atomic.Int64
	errors     atomic.Int64
	duplicate  atomic.Int64
	keepalives atomic.Int64
	done       atomic.Int64
	cancelled  atomic.Int64
	failed     atomic.Int64
	lost       atomic.Int64

	inFlight     atomic.Int64
	peakInFlight atomic.Int64

	mu  sync.Mutex
	ids map[string]struct{}
}

// accepted job handed from submitters to watchers.
type acceptedJob struct {
	id        string
	submitted time.Time
	n         int // submission index, drives SSE/cancel selection
}

func newLoader(cfg config, client *http.Client) *loader {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Watchers < 1 {
		cfg.Watchers = cfg.Concurrency
	}
	if cfg.Circuit == "" {
		cfg.Circuit = "ghz"
	}
	if cfg.Qubits < 1 {
		cfg.Qubits = 4
	}
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	if client == nil {
		client = http.DefaultClient
	}
	r := telemetry.NewRegistry()
	return &loader{
		cfg:        cfg,
		client:     client,
		submitHist: r.NewHistogram("ddload_submit_seconds", "submit RTT", telemetry.LogBuckets(1e-5, 100, 5)),
		e2eHist:    r.NewHistogram("ddload_e2e_seconds", "submit to terminal", telemetry.LogBuckets(1e-5, 100, 5)),
		ids:        make(map[string]struct{}),
	}
}

// run executes the load and returns the report. ctx bounds the whole
// run (on cancellation accepted-but-unobserved jobs count as lost).
func (l *loader) run(ctx context.Context) report {
	if l.cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.cfg.Duration)
		defer cancel()
	}
	start := time.Now()

	jobs := make(chan acceptedJob, l.cfg.Total)
	var watchers sync.WaitGroup
	startWatchers := func() {
		for w := 0; w < l.cfg.Watchers; w++ {
			watchers.Add(1)
			go func() {
				defer watchers.Done()
				for j := range jobs {
					l.watch(ctx, j)
				}
			}()
		}
	}
	if !l.cfg.SubmitFirst {
		startWatchers()
	}

	// Open-loop pacing: submission n is due at start + n/rate,
	// regardless of how long earlier submissions took — the arrival
	// process does not slow down because the service does.
	var next atomic.Int64
	var submitters sync.WaitGroup
	for w := 0; w < l.cfg.Concurrency; w++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= l.cfg.Total || ctx.Err() != nil {
					return
				}
				if l.cfg.Rate > 0 {
					due := start.Add(time.Duration(float64(n) / l.cfg.Rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				if j, ok := l.submit(ctx, n); ok {
					jobs <- j
				}
			}
		}()
	}
	submitters.Wait()
	close(jobs)
	if l.cfg.SubmitFirst {
		startWatchers()
	}
	watchers.Wait()
	elapsed := time.Since(start).Seconds()

	rep := report{
		Total:        l.cfg.Total,
		Accepted:     l.accepted.Load(),
		Rejected:     l.rejected.Load(),
		Errors:       l.errors.Load(),
		Duplicate:    l.duplicate.Load(),
		Done:         l.done.Load(),
		Cancelled:    l.cancelled.Load(),
		Failed:       l.failed.Load(),
		Lost:         l.lost.Load(),
		PeakInFlight: l.peakInFlight.Load(),
		Keepalives:   l.keepalives.Load(),
		Elapsed:      elapsed,
	}
	if elapsed > 0 {
		rep.SubmitPerSec = float64(rep.Accepted) / elapsed
	}
	rep.SubmitLatency = latencies{
		P50: l.submitHist.Quantile(0.5), P95: l.submitHist.Quantile(0.95),
		P99: l.submitHist.Quantile(0.99), Max: l.submitMax.v,
	}
	rep.E2ELatency = latencies{
		P50: l.e2eHist.Quantile(0.5), P95: l.e2eHist.Quantile(0.95),
		P99: l.e2eHist.Quantile(0.99), Max: l.e2eMax.v,
	}
	return rep
}

// submit issues submission n. Every job is unique (the seed embeds n)
// so the server's result cache cannot dedup the load away; priorities
// cycle so the dispatch heap is actually exercised.
func (l *loader) submit(ctx context.Context, n int) (acceptedJob, bool) {
	prio := 0
	if l.cfg.Priority > 0 {
		prio = n%(2*l.cfg.Priority+1) - l.cfg.Priority
	}
	body := fmt.Sprintf(
		`{"circuit":{"name":%q,"n":%d},"backend":%q,"options":{"runs":%d,"seed":%d},"priority":%d}`,
		l.cfg.Circuit, l.cfg.Qubits, l.backend(), l.cfg.Runs, n+1, prio)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.cfg.BaseURL+"/jobs", strings.NewReader(body))
	if err != nil {
		l.errors.Add(1)
		return acceptedJob{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			l.errors.Add(1)
		}
		return acceptedJob{}, false
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	rtt := time.Since(t0).Seconds()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		l.rejected.Add(1)
		return acceptedJob{}, false
	default:
		l.errors.Add(1)
		return acceptedJob{}, false
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		l.errors.Add(1)
		return acceptedJob{}, false
	}
	l.submitHist.Observe(rtt)
	l.submitMax.observe(rtt)
	l.accepted.Add(1)
	if cur := l.inFlight.Add(1); cur > l.peakInFlight.Load() {
		l.peakInFlight.Store(cur) // benign race: watchers only decrease inFlight
	}
	l.mu.Lock()
	if _, dup := l.ids[out.ID]; dup {
		l.duplicate.Add(1)
	}
	l.ids[out.ID] = struct{}{}
	l.mu.Unlock()
	return acceptedJob{id: out.ID, submitted: t0, n: n}, true
}

func (l *loader) backend() string {
	if l.cfg.Backend == "" {
		return "dd"
	}
	return l.cfg.Backend
}

// picked reports whether submission n falls in fraction f of the run:
// n is picked when ⌊(n+1)·f⌋ > ⌊n·f⌋, so the picks are spread evenly
// and exactly ⌊N·f⌋ of submissions 0..N-1 are picked.
func picked(n int, f float64) bool {
	return math.Floor(float64(n+1)*f) > math.Floor(float64(n)*f)
}

// watch drives one accepted job to an observed terminal state and
// records its end-to-end latency. Selection by submission index keeps
// the SSE/cancel mix deterministic for a given config.
func (l *loader) watch(ctx context.Context, j acceptedJob) {
	defer l.inFlight.Add(-1)
	if picked(j.n, l.cfg.CancelFraction) {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, l.cfg.BaseURL+"/jobs/"+j.id, nil)
		if err == nil {
			if resp, err := l.client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	var status string
	var ok bool
	if picked(j.n, l.cfg.SSEFraction) {
		status, ok = l.watchSSE(ctx, j.id)
		if !ok {
			// Stream broke (e.g. deadline): fall back to one poll pass.
			status, ok = l.pollOnce(ctx, j.id)
		}
	} else {
		status, ok = l.poll(ctx, j.id)
	}
	if !ok {
		l.lost.Add(1)
		return
	}
	e2e := time.Since(j.submitted).Seconds()
	l.e2eHist.Observe(e2e)
	l.e2eMax.observe(e2e)
	switch status {
	case "done":
		l.done.Add(1)
	case "cancelled":
		l.cancelled.Add(1)
	case "failed":
		l.failed.Add(1)
	default:
		l.lost.Add(1)
	}
}

// poll requests the job until it reaches a terminal state.
func (l *loader) poll(ctx context.Context, id string) (string, bool) {
	for backoff := time.Millisecond; ; backoff = min(2*backoff, 100*time.Millisecond) {
		status, ok := l.pollOnce(ctx, id)
		if ok {
			return status, true
		}
		select {
		case <-ctx.Done():
			return "", false
		case <-time.After(backoff):
		}
	}
}

func (l *loader) pollOnce(ctx context.Context, id string) (string, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.cfg.BaseURL+"/jobs/"+id, nil)
	if err != nil {
		return "", false
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var v struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", false
	}
	switch v.Status {
	case "done", "cancelled", "failed":
		return v.Status, true
	}
	return "", false
}

// watchSSE subscribes to the job's event stream and waits for the
// "result" event, counting keepalive comments along the way.
func (l *loader) watchSSE(ctx context.Context, id string) (string, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.cfg.BaseURL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", false
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			l.keepalives.Add(1)
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		case line == "":
			if event == "result" {
				var v struct {
					Status string `json:"status"`
				}
				if err := json.Unmarshal(data.Bytes(), &v); err != nil {
					return "", false
				}
				return v.Status, true
			}
			event = ""
			data.Reset()
		}
	}
	return "", false
}
