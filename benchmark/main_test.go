package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestNames holds every workload and metric name to the contract's
// alphabet and limits.
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.Jobs < minSamples || w.Jobs%w.Block != 0 {
			t.Errorf("workload %s: Jobs %d, want a multiple of Block with at least %d samples", w.Name, w.Jobs, minSamples)
		}
		if got := w.timedBlocks(runSeconds) * w.Block; got != w.Jobs {
			t.Errorf("workload %s: %d timed jobs at run_seconds, want the pinned %d", w.Name, got, w.Jobs)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the workload and metric tables")

// benchmarkJSON renders BENCHMARK.json from the workload and metric
// tables; the checked-in file must equal it.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// TestBenchmarkJSON keeps the checked-in BENCHMARK.json equal to what
// the workload and metric tables define; `go test -run BenchmarkJSON
// -update` regenerates it.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with `go test -run BenchmarkJSON -update`")
	}
}

// TestTraceFlagSpellings: -trace works bare and with the driver's
// separate 0|1 value.
func TestTraceFlagSpellings(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--trace", "1"}, []string{"--workload", "x", "--trace=1"}},
		{[]string{"-trace", "0", "-seed", "3"}, []string{"-trace=0", "-seed", "3"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace", "-seed", "1"}},
	} {
		if got := joinTraceValue(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("joinTraceValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestDocs checks that WORKLOADS.md carries every workload's pinned
// sizes exactly as the Go table has them, and that the two documents
// name every workload and every end-to-end metric.
func TestDocs(t *testing.T) {
	doc, err := os.ReadFile("WORKLOADS.md")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !bytes.Contains(doc, []byte(w.docRow())) {
			t.Errorf("WORKLOADS.md lacks the row\n%s", w.docRow())
		}
		if !bytes.Contains(doc, []byte("## `"+w.Name+"`")) {
			t.Errorf("WORKLOADS.md has no section for %s", w.Name)
		}
	}
	for _, d := range endToEnd {
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not name %s", d.Name)
		}
	}
	for _, d := range perLayer {
		if !bytes.Contains(doc, []byte(d.Name)) {
			t.Errorf("WORKLOADS.md does not say what %s should move", d.Name)
		}
	}
}

func TestQuantiles(t *testing.T) {
	var xs []float64
	for i := 101; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	if got := fastDecile(xs); got != 11 {
		t.Errorf("fastDecile(1..101) = %v, want 11", got)
	}
	if got := fastest(xs); got != 1 {
		t.Errorf("fastest(1..101) = %v, want 1", got)
	}
	if got := median(xs); got != 51 {
		t.Errorf("median(1..101) = %v, want 51", got)
	}
	if got := fastDecile([]float64{4, 2}); got != 2.2 {
		t.Errorf("fastDecile(2,4) = %v, want 2.2 (interpolated)", got)
	}
	// Ten samples must lie beyond the high percentile: of 1..101 that
	// is 91, the 91st of 101.
	v, pct := highPercentile(xs)
	if v != 91 || pct < 90 || pct > 90.2 {
		t.Errorf("highPercentile(1..101) = %v at p%v, want 91 at p90.1", v, pct)
	}
	// With 28 samples the selector sits at the 18th.
	v, _ = highPercentile(xs[:28])
	if v != 91 { // xs[:28] is 101..74; ten of them exceed 91
		t.Errorf("highPercentile of 28 samples = %v, want 91", v)
	}
	// Too few samples for a tail: the median.
	if v, pct := highPercentile([]float64{3, 1, 2}); v != 2 || pct != 50 {
		t.Errorf("highPercentile of 3 samples = %v at p%v, want the median", v, pct)
	}
}

// TestTracedCapabilities: the decorator must advertise exactly the
// optional interfaces of the backend it wraps.
func TestTracedCapabilities(t *testing.T) {
	c := circuit.GHZ(3)
	for _, name := range ddsim.Backends() {
		f, err := ddsim.Factory(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := f(c)
		if err != nil {
			t.Fatal(err)
		}
		jt := newTracer().beginJob(1, true)
		wrapped, err := jt.factory(f)(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capabilities(wrapped), capabilities(plain); got != want {
			t.Errorf("%s: traced backend advertises %05b, the backend %05b", name, got, want)
		}
		if wrapped.Name() != name {
			t.Errorf("traced backend is named %q, want %q", wrapped.Name(), name)
		}
	}
	// A capability set no wrapper matches is refused, not approximated.
	if _, err := wrapTraced(&tracedCore{inner: onlyReleaser{}}); err == nil {
		t.Error("wrapTraced accepted a capability set it has no wrapper for")
	}
}

type onlyReleaser struct{ sim.Backend }

func (onlyReleaser) Name() string { return "only-releaser" }
func (onlyReleaser) Release()     {}

// TestTracedBitIdentical: a same-seed traced run returns the result
// of an untraced one bit for bit, on both noise paths and both
// checkpointing backends, and accounts for every backend call.
func TestTracedBitIdentical(t *testing.T) {
	for _, w := range workloads {
		if w.Service {
			continue
		}
		in, err := prepare(w, twinQubits, 300, 42)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := in.job(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		jt := tr.beginJob(1, true)
		traced, _, err := in.job(1, jt)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(plain, traced) {
			t.Errorf("%s: traced result differs from the untraced one", w.Name)
		}
		if plain.Checkpointed != traced.Checkpointed {
			t.Errorf("%s: tracing changed checkpointing (%v vs %v)", w.Name, plain.Checkpointed, traced.Checkpointed)
		}
		n, ns := jt.kindTotals()
		if n[kCompile] != 1 || n[kGate] == 0 || n[kSample] != 300 || n[kRestore] != 300 {
			t.Errorf("%s: span counts compile=%d gate=%d sample=%d restore=%d", w.Name, n[kCompile], n[kGate], n[kSample], n[kRestore])
		}
		if w.Noise == "paper+xtalk+idle" && n[kKraus2] == 0 {
			t.Errorf("%s: the planned noise path made no ApplyKraus2 call", w.Name)
		}
		var sum int64
		for k := range ns {
			sum += ns[k]
		}
		total, lastEnd := jt.backendNs()
		if sum != total || total <= 0 || total > jt.End-jt.Start || lastEnd > jt.End {
			t.Errorf("%s: backend time %d (by kind %d) outside job span %d", w.Name, total, sum, jt.End-jt.Start)
		}
		file := tr.file(w.Name, 42)
		if len(file.Jobs) != 1 || len(file.Jobs[0].Spans) == 0 || file.Jobs[0].Spans[0].Parent != "job-0" {
			t.Errorf("%s: trace file lacks the job's spans", w.Name)
		}
	}
}

// TestLibraryRunPrintsEveryLayer runs a miniature library workload
// through both modes and checks the result line against the metric
// tables: every end-to-end metric with -trace 0, every per-layer
// metric with -trace 1, nothing else, nothing failed.
func TestLibraryRunPrintsEveryLayer(t *testing.T) {
	mini := workload{Name: "mini", Family: "qft", Qubits: 6, Backend: ddsim.BackendDD,
		Noise: "paper+xtalk+idle", Runs: 200, Block: 2, Jobs: 2}
	for _, trace := range []bool{false, true} {
		rep, err := runLibrary(mini, 3, runSeconds, trace, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Errorf("trace=%v: %d of %d operations failed: %v", trace, rep.failed, rep.attempted, rep.failures)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
			for _, d := range perLayer {
				if _, ok := rep.values[d.Name]; !ok && !strings.HasPrefix(d.Name, "svc.") {
					t.Errorf("-trace 1 did not measure %s", d.Name)
				}
			}
			if f := rep.values["stochastic.self_frac"]; !(f > 0 && f < 1) {
				t.Errorf("stochastic.self_frac = %v", f)
			}
		}
		var out bytes.Buffer
		if err := rep.emit(&out, mini.Name, defs, !trace); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(defs) {
			t.Errorf("trace=%v: result line %+v", trace, last)
		}
		for _, d := range defs {
			if m, ok := last.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: result line lacks %s in %s", trace, d.Name, d.Unit)
			}
		}
	}
}

// TestWorkersAgreeWithinTolerance runs a small DD job with 1 and with
// 2 workers: the results must agree at the tolerances the benchmark
// checks every timed job against.
func TestWorkersAgreeWithinTolerance(t *testing.T) {
	w, _ := findWorkload("qft24_dd")
	in, err := prepare(w, 10, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := in.job(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := in.job(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sameAcrossWorkers(one, two); !ok {
		t.Error("1- and 2-worker results differ beyond the worker tolerances")
	}
	// A different seed is a different result, and must not pass.
	in.opts.Seed++
	other, _, err := in.job(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sameAcrossWorkers(one, other); ok {
		t.Error("results of different seeds pass the worker-tolerance check")
	}
}
