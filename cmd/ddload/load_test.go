package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubServer is a miniature ddsimd: it hands out job ids, flips jobs
// to done after a short simulated runtime, honours DELETE with a
// cancelled state, and serves an SSE stream ending in a result event.
// It lets the loader's accounting be tested deterministically and
// fast, without simulating anything.
type stubServer struct {
	mu     sync.Mutex
	next   int
	status map[string]string
	ready  map[string]time.Time // when the job flips to done
	delay  time.Duration
}

func newStubServer(delay time.Duration) *stubServer {
	return &stubServer{
		status: make(map[string]string),
		ready:  make(map[string]time.Time),
		delay:  delay,
	}
}

func (st *stubServer) statusOf(id string) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.status[id]
	if !ok {
		return "", false
	}
	if s == "running" && time.Now().After(st.ready[id]) {
		s = "done"
		st.status[id] = s
	}
	return s, true
}

func (st *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		st.next++
		id := fmt.Sprintf("j%d", st.next)
		st.status[id] = "running"
		st.ready[id] = time.Now().Add(st.delay)
		st.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"status":"queued"}`, id)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := st.statusOf(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"status": s})
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st.mu.Lock()
		if st.status[id] == "running" {
			st.status[id] = "cancelled"
		}
		st.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		// One keepalive comment, then wait out the job and finish.
		fmt.Fprint(w, ": keepalive\n\n")
		f.Flush()
		for {
			s, ok := st.statusOf(id)
			if !ok {
				return
			}
			if s != "running" {
				fmt.Fprintf(w, "event: result\ndata: {\"status\":%q}\n\n", s)
				f.Flush()
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	return mux
}

func runStubLoad(t *testing.T, cfg config, delay time.Duration) report {
	t.Helper()
	ts := httptest.NewServer(newStubServer(delay).handler())
	t.Cleanup(ts.Close)
	cfg.BaseURL = ts.URL
	l := newLoader(cfg, ts.Client())
	return l.run(context.Background())
}

func TestLoaderConservation(t *testing.T) {
	rep := runStubLoad(t, config{
		Total:          300,
		Concurrency:    16,
		SSEFraction:    0.2,
		CancelFraction: 0.1,
	}, 5*time.Millisecond)
	if rep.Accepted != int64(rep.Total) {
		t.Fatalf("accepted %d of %d", rep.Accepted, rep.Total)
	}
	if rep.Lost != 0 || rep.Duplicate != 0 {
		t.Fatalf("conservation violated: %d lost, %d duplicate", rep.Lost, rep.Duplicate)
	}
	if got := rep.Done + rep.Cancelled + rep.Failed; got != rep.Accepted {
		t.Fatalf("terminal accounting %d != accepted %d", got, rep.Accepted)
	}
	if rep.Cancelled == 0 {
		t.Fatalf("cancel fraction 0.1 produced no cancellations")
	}
	if rep.Keepalives == 0 {
		t.Fatalf("SSE watchers saw no keepalive comments")
	}
	if rep.E2ELatency.P50 <= 0 || rep.SubmitLatency.P99 <= 0 {
		t.Fatalf("latency percentiles not populated: %+v", rep)
	}
	if rep.PeakInFlight < 1 {
		t.Fatalf("peak in-flight %d, want >= 1", rep.PeakInFlight)
	}
}

// TestPickedFraction pins the SSE/cancel selection: over N submissions
// a fraction f picks exactly f·N of them — not a rounding to 1/k, and
// not zero for f above one half.
func TestPickedFraction(t *testing.T) {
	const n = 1000
	for _, f := range []float64{0, 0.02, 0.2, 0.5, 0.75, 1} {
		got := 0
		for i := 0; i < n; i++ {
			if picked(i, f) {
				got++
			}
		}
		if want := int(math.Round(f * n)); got != want {
			t.Errorf("f=%v picked %d of %d, want %d", f, got, n, want)
		}
	}
}

func TestLoaderOpenLoopPacing(t *testing.T) {
	// 50 submissions at 1000/s must take at least ~49ms even though the
	// stub answers instantly: the arrival process is clocked, not
	// response-driven.
	start := time.Now()
	rep := runStubLoad(t, config{Total: 50, Concurrency: 8, Rate: 1000}, 0)
	if rep.Accepted != 50 {
		t.Fatalf("accepted %d of 50", rep.Accepted)
	}
	if e := time.Since(start); e < 40*time.Millisecond {
		t.Fatalf("open-loop run finished in %v; pacing not applied", e)
	}
}

func TestLoaderErrorAccounting(t *testing.T) {
	// A server that rejects every other request: rejections must land
	// in Rejected (not Errors), and 500s in Errors.
	var n int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		switch {
		case k%3 == 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ts.Close)
	l := newLoader(config{BaseURL: ts.URL, Total: 30, Concurrency: 4}, ts.Client())
	rep := l.run(context.Background())
	if rep.Accepted != 0 {
		t.Fatalf("accepted %d from an always-failing server", rep.Accepted)
	}
	if rep.Rejected == 0 || rep.Errors == 0 {
		t.Fatalf("rejected %d errors %d, want both > 0", rep.Rejected, rep.Errors)
	}
	if rep.errorRate() <= 0 {
		t.Fatalf("error rate %f, want > 0", rep.errorRate())
	}
	if !strings.Contains(rep.text(), "errors") {
		t.Fatalf("text report missing error line: %s", rep.text())
	}
}
