package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"ddsim"
	"ddsim/internal/density"
)

// jsonDecode decodes and closes a response body.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// exactGHZBody is the canonical exact-mode submission used across the
// service tests: GHZ-8 under the paper's noise rates.
func exactGHZBody(backend string) string {
	return fmt.Sprintf(`{
		"circuit": {"name": "ghz", "n": 8},
		"backend": %q,
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"mode": "exact"}
	}`, backend)
}

// ghzExactReference computes the ground-truth GHZ-8 distribution the
// service results are checked against, on internal/density: the
// service's exact mode runs the exact engine, which ExactProbabilities
// runs too, so the reference must share no kernel with it.
func ghzExactReference(t *testing.T) []float64 {
	t.Helper()
	ref, err := density.RunCircuit(ddsim.GHZ(8), ddsim.PaperNoise())
	if err != nil {
		t.Fatal(err)
	}
	return ref.Probabilities()
}

// TestExactSubmissionRoundTrip is the service half of the exact-mode
// acceptance criterion: a GHZ-8 exact submission round-trips through
// a live ddsimd (202 → terminal result with "exact":true, Runs 0), on
// the dense form the engine picks for a measurement-free 8-qubit
// register, and its probabilities match the dense reference to 1e-12.
func TestExactSubmissionRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	want := ghzExactReference(t)
	id := submit(t, ts, exactGHZBody(ddsim.BackendDD))
	v := waitTerminal(t, ts, id)
	if v.Status != statusDone {
		t.Fatalf("status %q (error %q)", v.Status, v.Error)
	}
	if len(v.Results) != 1 {
		t.Fatalf("%d results", len(v.Results))
	}
	r := v.Results[0]
	if !r.Exact || r.Runs != 0 || r.ExactBackend != "density" {
		t.Fatalf("exact=%v runs=%d backend=%q, want true/0/density", r.Exact, r.Runs, r.ExactBackend)
	}
	if len(r.Probabilities) != len(want) {
		t.Fatalf("%d probabilities, want %d", len(r.Probabilities), len(want))
	}
	for i, p := range r.Probabilities {
		if d := math.Abs(p - want[i]); d > 1e-12 {
			t.Fatalf("P(%d) differs from the dense reference by %v", i, d)
		}
	}
}

// TestExactResubmissionServedFromCache checks the rescache leg: an
// identical exact submission — even naming a different (irrelevant)
// stochastic backend — is served from the result cache without a
// second density-matrix pass.
func TestExactResubmissionServedFromCache(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	id1 := submit(t, ts, exactGHZBody(ddsim.BackendDD))
	v1 := waitTerminal(t, ts, id1)
	if v1.Status != statusDone || v1.Cached {
		t.Fatalf("first run: status %q cached=%v", v1.Status, v1.Cached)
	}
	// The stochastic backend name takes no part in an exact job; the
	// canonical key ignores it, so this still hits.
	id2 := submit(t, ts, exactGHZBody(ddsim.BackendStatevector))
	v2 := waitTerminal(t, ts, id2)
	if v2.Status != statusDone || !v2.Cached {
		t.Fatalf("resubmission: status %q cached=%v, want done from cache", v2.Status, v2.Cached)
	}
	if len(v2.Results) != 1 || !v2.Results[0].Exact {
		t.Fatal("cached result lost its exact payload")
	}
	for i := range v1.Results[0].Probabilities {
		if v1.Results[0].Probabilities[i] != v2.Results[0].Probabilities[i] {
			t.Fatalf("cached probabilities differ at %d", i)
		}
	}
}

// TestExactJobSurvivesRestart checks the jobstore leg: after a
// hard stop (the crash-equivalent shutdown of the recovery harness) a
// finished exact job is served from disk, exact flag and
// probabilities intact, with zero re-simulation.
func TestExactJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _, stop1 := newPersistentServer(t, dir)
	id := submit(t, ts1, exactGHZBody(ddsim.BackendDD))
	v1 := waitTerminal(t, ts1, id)
	if v1.Status != statusDone {
		t.Fatalf("status %q", v1.Status)
	}
	stop1()

	ts2, _, _ := newPersistentServer(t, dir)
	v2 := getJob(t, ts2, id)
	if v2.Status != statusDone {
		t.Fatalf("restored status %q", v2.Status)
	}
	if len(v2.Results) != 1 || !v2.Results[0].Exact || v2.Results[0].Runs != 0 {
		t.Fatal("restored result lost its exact payload")
	}
	want := ghzExactReference(t)
	for i, p := range v2.Results[0].Probabilities {
		if d := math.Abs(p - want[i]); d > 1e-12 {
			t.Fatalf("restored P(%d) differs by %v", i, d)
		}
	}
}

// TestExactSubmissionValidation: malformed exact submissions fail at
// the door with 400, never becoming jobs.
func TestExactSubmissionValidation(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	cases := []struct {
		name, body, wantErr string
	}{
		{
			name:    "unknown mode",
			body:    `{"circuit": {"name": "ghz", "n": 3}, "options": {"mode": "quantum"}}`,
			wantErr: "unknown mode",
		},
		{
			name:    "register too large",
			body:    `{"circuit": {"name": "ghz", "n": 21}, "options": {"mode": "exact"}}`,
			wantErr: "qubit limit",
		},
		{
			name:    "fidelity on measuring circuit",
			body:    `{"circuit": {"name": "bv", "n": 5}, "options": {"mode": "exact", "track_fidelity": true}}`,
			wantErr: "track_fidelity",
		},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var out struct {
			Error string `json:"error"`
		}
		if err := jsonDecode(resp, &out); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, out.Error)
		}
		if !strings.Contains(out.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, out.Error, tc.wantErr)
		}
	}
}

// TestExactSweepSharedPool: an exact noise sweep runs one pass per
// point and reports monotonically decreasing purity.
func TestExactSweepSharedPool(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	id := submit(t, ts, `{
		"circuit": {"name": "ghz", "n": 5},
		"sweep": [0, 1, 10],
		"noise": {"depolarizing": 0.001, "damping": 0.002, "phase_flip": 0.001, "damping_as_event": true},
		"options": {"mode": "exact"}
	}`)
	v := waitTerminal(t, ts, id)
	if v.Status != statusDone {
		t.Fatalf("status %q (error %q)", v.Status, v.Error)
	}
	if len(v.Results) != 3 {
		t.Fatalf("%d results, want 3", len(v.Results))
	}
	for i, r := range v.Results {
		if !r.Exact {
			t.Fatalf("point %d not exact", i)
		}
		if i > 0 && r.Purity >= v.Results[i-1].Purity {
			t.Errorf("purity not decreasing: point %d has %v after %v", i, r.Purity, v.Results[i-1].Purity)
		}
	}
}
