package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// Tracing lives in the benchmark's own files: the sim.Factory handed
// to stochastic.RunContext is wrapped so that every call the engine or
// the noise layer makes into a backend becomes a span. The engine and
// noise layers' own time is then the job's wall time minus the spans.

// spanKind names one backend entry point.
type spanKind uint8

const (
	kCompile spanKind = iota
	kReset
	kGate
	kPauli
	kProbOne
	kCollapse
	kDamping
	kKraus2
	kSample
	kProbability
	kNorm2
	kSnapshot
	kRestore
	kFidelity
	kStateCost
	kTableStats
	kRelease
	numKinds
)

var kindNames = [numKinds]string{"compile", "reset", "gate", "pauli", "probone", "collapse",
	"damping", "kraus2", "sample", "probability", "norm2", "snapshot", "restore", "fidelity",
	"statecost", "tablestats", "release"}

// span is one backend call, in nanoseconds since the tracer's epoch.
type span struct {
	Kind       spanKind
	Start, End int64
}

// maxSpansPerBackend bounds the spans kept verbatim per backend
// instance. A 30000-trajectory job makes millions of backend calls;
// every one is timed and summed per kind, and the first
// maxSpansPerBackend of each instance are also kept whole for the
// trace file, which is enough to read several full trajectories.
const maxSpansPerBackend = 20000

// tracer owns the spans of one traced pass.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	jobs  []*jobTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// jobTrace is the parent span of one job and the backends it compiled
// (one per worker).
type jobTrace struct {
	ID         int
	Workers    int
	Start, End int64
	keepSpans  bool
	tr         *tracer
	mu         sync.Mutex
	backends   []*tracedCore
}

// beginJob opens a job span. keepSpans keeps individual spans for the
// trace file; the per-kind sums are kept either way.
func (t *tracer) beginJob(workers int, keepSpans bool) *jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := &jobTrace{ID: len(t.jobs), Workers: workers, keepSpans: keepSpans, tr: t}
	t.jobs = append(t.jobs, j)
	j.Start = t.now()
	return j
}

func (j *jobTrace) end() { j.End = j.tr.now() }

// factory wraps f so that the backends it compiles report into j.
func (j *jobTrace) factory(f sim.Factory) sim.Factory {
	return func(c *circuit.Circuit) (sim.Backend, error) {
		start := j.tr.now()
		inner, err := f(c)
		if err != nil {
			return nil, err
		}
		core := &tracedCore{inner: inner, job: j}
		core.rec(kCompile, start)
		b, err := wrapTraced(core)
		if err != nil {
			return nil, err
		}
		j.mu.Lock()
		j.backends = append(j.backends, core)
		j.mu.Unlock()
		return b, nil
	}
}

// backendNs is the time the job's backends spent inside calls, summed
// over workers, and the end of the last call.
func (j *jobTrace) backendNs() (total, lastEnd int64) {
	for _, b := range j.backends {
		total += b.sumNs
		if b.lastEnd > lastEnd {
			lastEnd = b.lastEnd
		}
	}
	return total, lastEnd
}

// kindTotals sums call counts and time per kind over the job's
// backends.
func (j *jobTrace) kindTotals() (n, ns [numKinds]int64) {
	for _, b := range j.backends {
		for k := range b.n {
			n[k] += b.n[k]
			ns[k] += b.ns[k]
		}
	}
	return n, ns
}

// tracedCore implements sim.Backend by forwarding to inner and timing
// every call. Like the backend it wraps it is used by one goroutine.
type tracedCore struct {
	inner   sim.Backend
	job     *jobTrace
	n       [numKinds]int64
	ns      [numKinds]int64
	sumNs   int64
	lastEnd int64
	spans   []span
}

func (t *tracedCore) rec(k spanKind, start int64) {
	end := t.job.tr.now()
	t.n[k]++
	t.ns[k] += end - start
	t.sumNs += end - start
	t.lastEnd = end
	if t.job.keepSpans && len(t.spans) < maxSpansPerBackend {
		t.spans = append(t.spans, span{k, start, end})
	}
}

func (t *tracedCore) Name() string   { return t.inner.Name() }
func (t *tracedCore) NumQubits() int { return t.inner.NumQubits() }

func (t *tracedCore) Reset() {
	s := t.job.tr.now()
	t.inner.Reset()
	t.rec(kReset, s)
}

func (t *tracedCore) ApplyOp(i int) {
	s := t.job.tr.now()
	t.inner.ApplyOp(i)
	t.rec(kGate, s)
}

func (t *tracedCore) ApplyPauli(p sim.Pauli, qubit int) {
	s := t.job.tr.now()
	t.inner.ApplyPauli(p, qubit)
	t.rec(kPauli, s)
}

func (t *tracedCore) ProbOne(qubit int) float64 {
	s := t.job.tr.now()
	v := t.inner.ProbOne(qubit)
	t.rec(kProbOne, s)
	return v
}

func (t *tracedCore) Collapse(qubit, outcome int, prob float64) {
	s := t.job.tr.now()
	t.inner.Collapse(qubit, outcome, prob)
	t.rec(kCollapse, s)
}

func (t *tracedCore) ApplyDamping(qubit int, p float64, fire bool, branchProb float64) {
	s := t.job.tr.now()
	t.inner.ApplyDamping(qubit, p, fire, branchProb)
	t.rec(kDamping, s)
}

func (t *tracedCore) ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64) {
	s := t.job.tr.now()
	t.inner.ApplyKraus2(q0, q1, k, branchProb)
	t.rec(kKraus2, s)
}

func (t *tracedCore) SampleBasis(rng *rand.Rand) uint64 {
	s := t.job.tr.now()
	v := t.inner.SampleBasis(rng)
	t.rec(kSample, s)
	return v
}

func (t *tracedCore) Probability(idx uint64) float64 {
	s := t.job.tr.now()
	v := t.inner.Probability(idx)
	t.rec(kProbability, s)
	return v
}

func (t *tracedCore) Norm2() float64 {
	s := t.job.tr.now()
	v := t.inner.Norm2()
	t.rec(kNorm2, s)
	return v
}

// The engine discovers optional capabilities by type assertion, so the
// decorator must advertise exactly those of the backend it wraps: a
// missing one would switch checkpointing off, an extra one would panic
// when called. One wrapper type exists per capability set the bundled
// backends have.

// capability bits of a backend.
const (
	capForker = 1 << iota
	capSnapshotter
	capStateSizer
	capTableStatser
	capReleaser
)

func capabilities(b sim.Backend) int {
	caps := 0
	if _, ok := b.(sim.Forker); ok {
		caps |= capForker
	}
	if _, ok := b.(sim.Snapshotter); ok {
		caps |= capSnapshotter
	}
	if _, ok := b.(sim.StateSizer); ok {
		caps |= capStateSizer
	}
	if _, ok := b.(sim.TableStatser); ok {
		caps |= capTableStatser
	}
	if _, ok := b.(sim.Releaser); ok {
		caps |= capReleaser
	}
	return caps
}

// tracedForker wraps a backend that is a Forker, a Snapshotter and a
// StateSizer (statevec).
type tracedForker struct{ *tracedCore }

func (t tracedForker) Snapshot() sim.Snapshot {
	s := t.job.tr.now()
	v := t.inner.(sim.Forker).Snapshot()
	t.rec(kSnapshot, s)
	return v
}

func (t tracedForker) Restore(st sim.State) {
	s := t.job.tr.now()
	t.inner.(sim.Forker).Restore(st)
	t.rec(kRestore, s)
}

func (t tracedForker) FidelityTo(snap sim.Snapshot) float64 {
	s := t.job.tr.now()
	v := t.inner.(sim.Snapshotter).FidelityTo(snap)
	t.rec(kFidelity, s)
	return v
}

func (t tracedForker) StateCost(st sim.State) (nodes, bytes int64) {
	s := t.job.tr.now()
	nodes, bytes = t.inner.(sim.StateSizer).StateCost(st)
	t.rec(kStateCost, s)
	return nodes, bytes
}

// tracedTables adds TableStatser and Releaser (dd).
type tracedTables struct{ tracedForker }

func (t tracedTables) TableStats() sim.TableStats {
	s := t.job.tr.now()
	v := t.inner.(sim.TableStatser).TableStats()
	t.rec(kTableStats, s)
	return v
}

func (t tracedTables) Release() {
	s := t.job.tr.now()
	t.inner.(sim.Releaser).Release()
	t.rec(kRelease, s)
}

// wrapTraced picks the wrapper whose capability set equals the wrapped
// backend's, and refuses a set it has no wrapper for.
func wrapTraced(core *tracedCore) (sim.Backend, error) {
	switch caps := capabilities(core.inner); caps {
	case 0:
		return core, nil
	case capForker | capSnapshotter | capStateSizer:
		return tracedForker{core}, nil
	case capForker | capSnapshotter | capStateSizer | capTableStatser | capReleaser:
		return tracedTables{tracedForker{core}}, nil
	default:
		return nil, fmt.Errorf("trace: backend %q has capability set %05b, which no traced wrapper matches",
			core.inner.Name(), caps)
	}
}

// Trace file. Every span carries its name, start, end, the job it
// belongs to and that job's span as parent.

type traceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Job     int    `json:"job"`
	Parent  string `json:"parent,omitempty"`
	Worker  int    `json:"worker,omitempty"`
}

type traceKind struct {
	Calls   int64 `json:"calls"`
	TotalNs int64 `json:"total_ns"`
}

type traceJob struct {
	Span         traceSpan            `json:"span"`
	Workers      int                  `json:"workers"`
	BackendNs    int64                `json:"backend_ns"`
	Kinds        map[string]traceKind `json:"kinds,omitempty"`
	Spans        []traceSpan          `json:"spans,omitempty"`
	SpansDropped int64                `json:"spans_dropped,omitempty"`
}

type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Note     string     `json:"note"`
	Jobs     []traceJob `json:"jobs"`
}

func (t *tracer) file(workload string, seed int64) traceFile {
	f := traceFile{Workload: workload, Seed: seed,
		Note: "times are ns since the pass began; a job's engine+noise self time is its span minus backend_ns/workers"}
	for _, j := range t.jobs {
		parent := fmt.Sprintf("job-%d", j.ID)
		tj := traceJob{
			Span:    traceSpan{Name: parent, StartNs: j.Start, EndNs: j.End, Job: j.ID},
			Workers: j.Workers,
			Kinds:   map[string]traceKind{},
		}
		n, ns := j.kindTotals()
		var calls int64
		for k := range n {
			if n[k] > 0 {
				tj.Kinds[kindNames[k]] = traceKind{n[k], ns[k]}
				calls += n[k]
			}
		}
		tj.BackendNs, _ = j.backendNs()
		for w, b := range j.backends {
			for _, s := range b.spans {
				tj.Spans = append(tj.Spans, traceSpan{kindNames[s.Kind], s.Start, s.End, j.ID, parent, w})
			}
		}
		if j.keepSpans {
			tj.SpansDropped = calls - int64(len(tj.Spans))
		}
		f.Jobs = append(f.Jobs, tj)
	}
	return f
}

// writeTrace writes v to <outDir>/trace-<workload>.json.
func writeTrace(outDir, workload string, v any) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
