// Package stochastic implements the Monte-Carlo simulation engine of
// the paper's Section III and the concurrency scheme of Section IV-C:
// M independent noisy simulation runs are distributed across worker
// goroutines, each worker owning a private backend instance (for the
// DD backend: a private decision-diagram package), so runs never
// contend on shared mutable state. Empirical averages over the runs
// estimate quadratic properties of the output ensemble.
//
// The engine layer (engine.go) adds production concerns on top of the
// per-trajectory core in this file: context cancellation, chunked work
// dispatch, periodic progress reporting, adaptive stopping against the
// Theorem-1 bound, and batch execution of many (circuit, noise-point)
// jobs over one shared worker pool.
package stochastic

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
)

// Simulation modes accepted by Options.Mode.
const (
	// ModeStochastic (the default) runs the Monte-Carlo trajectory
	// engine: noise is sampled, estimates carry a Theorem-1 confidence
	// radius.
	ModeStochastic = "stochastic"
	// ModeExact runs the deterministic density-matrix engine
	// (internal/exact): noise is applied as exact channels, the full
	// 2^n outcome distribution is returned with Runs = 0 and
	// Result.Exact set. Measurements, resets and classically
	// conditioned gates are handled by probability-weighted branching
	// over outcome histories.
	ModeExact = "exact"
)

// Exact-mode density-matrix representations accepted by
// Options.ExactBackend.
const (
	// ExactDDensity stores the density matrix as a decision diagram
	// (internal/ddensity) — the paper's structural-compression story,
	// compact whenever ρ has structure. The exact-mode default.
	ExactDDensity = "ddensity"
	// ExactDensity stores the density matrix as a dense 2^n × 2^n
	// array (internal/density) — the brute-force reference, limited to
	// small registers.
	ExactDensity = "density"
)

// Options configures a stochastic simulation. The struct marshals to
// JSON (ddsimd job submissions): durations are serialised as
// nanoseconds and the OnProgress callback is excluded.
type Options struct {
	// Runs is the trajectory budget M (paper: 30000). With adaptive
	// stopping enabled it is an upper bound; otherwise exactly Runs
	// trajectories execute.
	Runs int `json:"runs,omitempty"`
	// Workers is the number of concurrent workers; 0 means GOMAXPROCS.
	// Ignored by RunBatch, which sizes one shared pool for all jobs.
	Workers int `json:"workers,omitempty"`
	// Seed makes the whole simulation deterministic: run j draws from
	// its own stream, a generator whose state is mixed from all 64 bits
	// of Seed and of j (stream.go), regardless of which worker executes
	// it, so jobs at different seeds share no trajectory and results are
	// bit-identical per worker count — and across worker counts on the
	// statevec and sparse backends and for cache-resident DDs. (A DD
	// package's weight rounding depends on what it computed before, so
	// at QFT-24 size a 2-worker DD estimate differs from the 1-worker
	// one at ~1e-12 relative.)
	Seed int64 `json:"seed,omitempty"`
	// Shots is the number of basis-state samples drawn from each final
	// state (default 1).
	Shots int `json:"shots,omitempty"`
	// TrackStates lists basis states |ω_l⟩ whose outcome probabilities
	// are estimated as empirical averages (the paper's ô_l).
	TrackStates []uint64 `json:"track_states,omitempty"`
	// TrackFidelity additionally estimates the fidelity of each noisy
	// final state with the noise-free final state — the paper's other
	// flagship quadratic property. Requires a backend implementing
	// sim.Snapshotter (all bundled backends except the sparse one do).
	TrackFidelity bool `json:"track_fidelity,omitempty"`
	// Timeout, when positive, stops issuing new runs once exceeded.
	// Completed runs still aggregate; Result.TimedOut is set.
	Timeout time.Duration `json:"timeout_ns,omitempty"`

	// TargetAccuracy, when positive, enables adaptive stopping: the
	// engine stops issuing trajectories as soon as Theorem 1 guarantees
	// accuracy ε = TargetAccuracy at confidence TargetConfidence for
	// the tracked properties, instead of always burning all Runs. Since
	// the Hoeffding bound is distribution-free, the required run count
	// M(ε, δ, L) = obs.SampleCount is known upfront; if it exceeds
	// Runs, all Runs execute and Result.BudgetExhausted is set.
	TargetAccuracy float64 `json:"target_accuracy,omitempty"`
	// TargetConfidence is the confidence level 1−δ of the adaptive
	// stopping rule and of Result.ConfidenceRadius (default 0.95).
	TargetConfidence float64 `json:"target_confidence,omitempty"`

	// Mode selects the simulation engine: ModeStochastic (default,
	// also selected by "") samples Monte-Carlo trajectories, ModeExact
	// evolves the full density matrix deterministically and returns
	// exact probabilities (Result.Exact, Runs = 0). In exact mode the
	// trajectory knobs (Runs, Seed, Shots, ChunkSize, TargetAccuracy)
	// are ignored; Timeout, TrackStates and TrackFidelity apply.
	Mode string `json:"mode,omitempty"`
	// ExactBackend selects the exact-mode density-matrix
	// representation: ExactDDensity (default) or ExactDensity. Ignored
	// in stochastic mode.
	ExactBackend string `json:"exact_backend,omitempty"`

	// Checkpointing selects first-event forking: the noise-free circuit
	// is simulated once per worker up to the first measurement, reset
	// or state-dependent channel, and a trajectory forks from the
	// nearest snapshot of that reference path before its first event
	// (from the final one when it has none) instead of replaying it.
	// Behind the path's end every trajectory runs op by op, forked or
	// not. Modes: CheckpointAuto (default; used when the backend
	// implements sim.Forker and the path holds gates to save — not for
	// a circuit whose first op is a measurement or reset, which leaves
	// it none), CheckpointOn (required — unsupported backends fail) and
	// CheckpointOff. Same-seed results are bit-identical in every
	// mode.
	Checkpointing string `json:"checkpointing,omitempty"`

	// OnProgress, when set, receives periodic snapshots (every
	// ProgressEvery completed runs, and once at job completion) from
	// worker goroutines. Calls are serialised; keep the callback fast.
	// Not part of the JSON wire format.
	OnProgress func(Progress) `json:"-"`
	// ProgressEvery is the number of completed runs between OnProgress
	// calls (default 512).
	ProgressEvery int `json:"progress_every,omitempty"`
	// ChunkSize is the number of trajectories a worker claims per
	// dequeue (default 64). Chunks are fixed blocks of the run-index
	// space, so results stay bit-identical for any worker count.
	ChunkSize int `json:"chunk_size,omitempty"`
}

// Canonical returns a copy of o reduced to the fields that determine
// the numerical content of a Result, with engine defaults filled in —
// the options half of a job's content-addressed identity (see
// ddsim.JobKey). Two option sets with equal Canonical forms produce
// bit-identical Results for the same circuit, backend and noise
// model, so canonicalisation deliberately discards every knob that
// changes only *how* the work is done:
//
//   - Workers and Checkpointing are dropped (results are bit-identical
//     across worker counts and checkpoint modes by construction);
//   - OnProgress and ProgressEvery are dropped (observation only);
//   - Runs, Shots and ChunkSize are normalised to the engine defaults
//     (ChunkSize is kept: chunk boundaries set the floating-point
//     reduction order, so it is result-relevant);
//   - TargetConfidence is normalised to its 0.95 default (it feeds
//     Result.ConfidenceRadius even without adaptive stopping);
//   - TrackStates is copied, with an empty slice canonicalised to nil;
//   - Mode is normalised to its engine name ("" → ModeStochastic). In
//     exact mode the entire trajectory vocabulary (Runs, Seed, Shots,
//     ChunkSize, Timeout, adaptive stopping) is dropped — the
//     deterministic result depends only on the circuit, the noise
//     points, the tracked properties and the ExactBackend (normalised
//     to its ExactDDensity default).
func (o Options) Canonical() Options {
	if o.Mode == ModeExact {
		c := Options{
			Mode:          ModeExact,
			ExactBackend:  o.ExactBackend,
			TrackFidelity: o.TrackFidelity,
		}
		if c.ExactBackend == "" {
			c.ExactBackend = ExactDDensity
		}
		if len(o.TrackStates) > 0 {
			c.TrackStates = append([]uint64(nil), o.TrackStates...)
		}
		return c
	}
	c := Options{
		Mode:             ModeStochastic,
		Runs:             o.Runs,
		Seed:             o.Seed,
		Shots:            o.Shots,
		TrackFidelity:    o.TrackFidelity,
		Timeout:          o.Timeout,
		TargetAccuracy:   o.TargetAccuracy,
		TargetConfidence: o.TargetConfidence,
		ChunkSize:        o.ChunkSize,
	}
	if len(o.TrackStates) > 0 {
		c.TrackStates = append([]uint64(nil), o.TrackStates...)
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.Shots <= 0 {
		c.Shots = 1
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = defaultChunkSize
	}
	if c.TargetConfidence == 0 {
		c.TargetConfidence = 0.95
	}
	return c
}

// ValidateMode rejects unknown Options.Mode and Options.ExactBackend
// values. Every engine entry point calls it; "" means the respective
// default.
func (o *Options) ValidateMode() error {
	switch o.Mode {
	case "", ModeStochastic, ModeExact:
	default:
		return fmt.Errorf("stochastic: unknown mode %q (want %s or %s)",
			o.Mode, ModeStochastic, ModeExact)
	}
	switch o.ExactBackend {
	case "", ExactDDensity, ExactDensity:
	default:
		return fmt.Errorf("stochastic: unknown exact backend %q (want %s or %s)",
			o.ExactBackend, ExactDDensity, ExactDensity)
	}
	return nil
}

func (o *Options) normalize() {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shots <= 0 {
		o.Shots = 1
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = defaultChunkSize
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = defaultProgressEvery
	}
	if o.Checkpointing == "" {
		o.Checkpointing = CheckpointAuto
	}
}

// validateCheckpointing rejects unknown Options.Checkpointing values
// (after normalize mapped "" to CheckpointAuto).
func (o *Options) validateCheckpointing() error {
	switch o.Checkpointing {
	case CheckpointAuto, CheckpointOn, CheckpointOff:
		return nil
	default:
		return fmt.Errorf("stochastic: unknown checkpointing mode %q (want %s, %s or %s)",
			o.Checkpointing, CheckpointAuto, CheckpointOn, CheckpointOff)
	}
}

// properties returns the number L of simultaneously tracked quadratic
// properties entering the Theorem-1 union bound (at least 1).
func (o *Options) properties() int {
	l := len(o.TrackStates)
	if o.TrackFidelity {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// delta returns the failure probability δ = 1 − TargetConfidence.
func (o *Options) delta() (float64, error) {
	if o.TargetConfidence == 0 {
		return 0.05, nil
	}
	if o.TargetConfidence <= 0 || o.TargetConfidence >= 1 {
		return 0, fmt.Errorf("stochastic: target confidence %v outside (0,1)", o.TargetConfidence)
	}
	return 1 - o.TargetConfidence, nil
}

// Result aggregates a stochastic simulation. It marshals to JSON for
// the ddsimd API: histogram keys become decimal strings and Elapsed is
// serialised as nanoseconds.
type Result struct {
	// Runs is the number of completed trajectories.
	Runs int `json:"runs"`
	// TargetRuns is the number of trajectories the engine planned to
	// execute: Options.Runs, or the (smaller) Theorem-1 requirement
	// when adaptive stopping kicked in.
	TargetRuns int `json:"target_runs"`
	// Counts histograms the sampled final-state basis outcomes
	// (Runs × Shots samples in total).
	Counts map[uint64]int `json:"counts,omitempty"`
	// ClassicalCounts histograms the classical register after each
	// run, for circuits containing explicit measurements.
	ClassicalCounts map[uint64]int `json:"classical_counts,omitempty"`
	// TrackedProbs[i] is the Monte-Carlo estimate ô_l for
	// Options.TrackStates[i].
	TrackedProbs []float64 `json:"tracked_probs,omitempty"`
	// MeanFidelity is the estimated fidelity with the noise-free final
	// state (only meaningful when Options.TrackFidelity was set).
	MeanFidelity float64 `json:"mean_fidelity,omitempty"`
	// Properties is the number L of tracked quadratic properties used
	// in the Theorem-1 bounds.
	Properties int `json:"properties"`
	// ConfidenceRadius is the Theorem-1 accuracy ε guaranteed at
	// confidence TargetConfidence for the actual completed run count.
	ConfidenceRadius float64 `json:"confidence_radius"`
	// Elapsed is the wall-clock simulation time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// TimedOut reports whether Options.Timeout expired before the
	// planned trajectories completed.
	TimedOut bool `json:"timed_out,omitempty"`
	// BudgetExhausted reports that adaptive stopping was requested but
	// the Theorem-1 requirement for TargetAccuracy exceeded the Runs
	// budget, so the full budget was consumed without meeting ε.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// Interrupted reports that the context was cancelled before the
	// planned trajectories completed; the result aggregates the runs
	// that did complete.
	Interrupted bool `json:"interrupted,omitempty"`
	// Checkpointed reports that trajectories were forked from the
	// noise-free reference path instead of replaying the full circuit
	// (see Options.Checkpointing). The estimates are
	// bit-identical either way; only the work differs.
	Checkpointed bool `json:"checkpointed,omitempty"`
	// Workers echoes the worker count used.
	Workers int `json:"workers"`

	// Exact reports that the result was produced by the deterministic
	// density-matrix engine (Options.Mode = ModeExact): Probabilities,
	// TrackedProbs, ClassicalProbs and MeanFidelity are exact, Runs is
	// 0 and ConfidenceRadius does not apply (it is 0). The remaining
	// fields below are only populated on exact results.
	Exact bool `json:"exact,omitempty"`
	// ExactBackend echoes the density-matrix representation used
	// (ExactDDensity or ExactDensity).
	ExactBackend string `json:"exact_backend,omitempty"`
	// Probabilities holds all 2^n basis-state outcome probabilities of
	// the final ensemble-averaged state — the exact analogue of the
	// Counts histogram.
	Probabilities []float64 `json:"probabilities,omitempty"`
	// ClassicalProbs maps classical register values to their exact
	// outcome-history probabilities, for circuits containing
	// measurements — the exact analogue of ClassicalCounts.
	ClassicalProbs map[uint64]float64 `json:"classical_probs,omitempty"`
	// Branches is the peak number of outcome-history branches the
	// exact engine tracked for this job (1 when the circuit has no
	// mid-circuit randomness).
	Branches int `json:"branches,omitempty"`
	// Purity is tr(ρ²) of the final state: 1 for pure states, down to
	// 1/2^n for noise-induced mixtures.
	Purity float64 `json:"purity,omitempty"`
	// DDNodes is the final density-diagram node count (ExactDDensity
	// backend only) — the paper's compactness measure for the squared
	// representation.
	DDNodes int `json:"dd_nodes,omitempty"`
}

// SampleFraction returns the fraction of samples that landed on idx.
func (r *Result) SampleFraction(idx uint64) float64 {
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(r.Counts[idx]) / float64(total)
}

type accumulator struct {
	counts    map[uint64]int
	classical map[uint64]int
	tracked   []float64
	fidelity  float64
	runs      int
}

// accPool recycles chunk accumulators across runChunk calls: a long
// job churns through target/ChunkSize of them, and the histogram maps
// keep their capacity across reuse. Accumulators whose maps escape
// into a Result (the finish totals) are simply never released.
var accPool = sync.Pool{New: func() interface{} { return new(accumulator) }}

func newAccumulator(tracked int) *accumulator {
	a := accPool.Get().(*accumulator)
	if a.counts == nil {
		a.counts = make(map[uint64]int)
		a.classical = make(map[uint64]int)
	}
	if cap(a.tracked) < tracked {
		a.tracked = make([]float64, tracked)
	} else {
		a.tracked = a.tracked[:tracked]
		clear(a.tracked)
	}
	return a
}

// release clears the accumulator (maps keep their capacity) and
// returns it to the pool. The caller must drop every reference.
func (a *accumulator) release() {
	clear(a.counts)
	clear(a.classical)
	a.tracked = a.tracked[:0]
	a.fidelity = 0
	a.runs = 0
	accPool.Put(a)
}

func (a *accumulator) merge(b *accumulator) {
	for k, v := range b.counts {
		a.counts[k] += v
	}
	for k, v := range b.classical {
		a.classical[k] += v
	}
	for i := range b.tracked {
		a.tracked[i] += b.tracked[i]
	}
	a.fidelity += b.fidelity
	a.runs += b.runs
}

func circuitMeasures(c *circuit.Circuit) bool {
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindMeasure {
			return true
		}
	}
	return false
}

// runOne executes one noise-free pass over the circuit from the
// all-zero state and returns the number of gate applications. clbits
// is a 1-element scratch slice holding the packed classical register.
func runOne(b sim.Backend, c *circuit.Circuit, rng *rand.Rand, clbits []uint64) int {
	b.Reset()
	clbits[0] = 0
	return runRange(b, c, nil, rng, clbits, 0, len(c.Ops), nil)
}

// runRange is the roll-by-roll trajectory loop, the one behind the
// reference path's end: it executes ops [from, to) on the backend's
// current state and returns the number of gate applications. Every
// gate's channels come from the compiled plan (nil: none) — idle decay
// before the gate, single- then two-qubit noise after it. A
// condition-skipped gate skips its channels too, idle noise included:
// untaken operations inflict no noise.
func runRange(b sim.Backend, c *circuit.Circuit, plan *noise.Plan, rng *rand.Rand, clbits []uint64, from, to int, counts *noise.ChannelCounts) int {
	gates := 0
	for i := from; i < to; i++ {
		op := &c.Ops[i]
		if op.Cond != nil && !op.Cond.Holds(clbits[0]) {
			continue
		}
		switch op.Kind {
		case circuit.KindGate:
			on := plan.At(i)
			if on != nil {
				on.ApplyPre(b, rng, counts)
			}
			b.ApplyOp(i)
			gates++
			if on != nil {
				on.ApplyPost(b, rng, counts)
			}
		case circuit.KindMeasure, circuit.KindReset:
			execSiteOp(b, op, rng, clbits)
		case circuit.KindBarrier:
			// no effect
		}
	}
	return gates
}

// execSiteOp executes one random-site op — a measurement or a reset,
// already condition-checked by the caller. It is the single definition
// of the site semantics: the classical bit update and the reset
// correction.
func execSiteOp(b sim.Backend, op *circuit.Op, rng *rand.Rand, clbits []uint64) {
	switch op.Kind {
	case circuit.KindMeasure:
		if measure(b, op.Target, rng) == 1 {
			clbits[0] |= 1 << uint(op.Cbit)
		} else {
			clbits[0] &^= 1 << uint(op.Cbit)
		}
	case circuit.KindReset:
		if measure(b, op.Target, rng) == 1 {
			b.ApplyPauli(sim.PauliX, op.Target)
		}
	}
}

// measure samples one qubit and collapses the state.
func measure(b sim.Backend, qubit int, rng *rand.Rand) int {
	p1 := b.ProbOne(qubit)
	outcome := 0
	prob := 1 - p1
	if rng.Float64() < p1 {
		outcome = 1
		prob = p1
	}
	if prob <= 0 {
		// Numerically impossible branch: take the certain one instead.
		outcome = 1 - outcome
		prob = 1 - prob
	}
	b.Collapse(qubit, outcome, prob)
	return outcome
}

// Deterministic performs one noise-free pass over the circuit
// (ignoring measurements' randomness source only insofar as the seed
// fixes it) and returns the backend holding the final state. Useful
// for examples, tests and the property estimators' ground truth on
// noiseless circuits.
func Deterministic(c *circuit.Circuit, factory sim.Factory, seed int64) (sim.Backend, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b, err := factory(c)
	if err != nil {
		return nil, err
	}
	rng, src := newStream()
	src.seek(seed, 0)
	runOne(b, c, rng, make([]uint64, 1))
	return b, nil
}

// Describe formats a one-line summary of a result for CLI output.
func Describe(r *Result) string {
	if r.Exact {
		return fmt.Sprintf("exact(%s) elapsed=%s branches=%d purity=%.6f dd_nodes=%d timed_out=%v",
			r.ExactBackend, r.Elapsed.Round(time.Millisecond), r.Branches, r.Purity, r.DDNodes, r.TimedOut)
	}
	return fmt.Sprintf("runs=%d/%d workers=%d elapsed=%s radius=±%.4f timed_out=%v interrupted=%v distinct_outcomes=%d",
		r.Runs, r.TargetRuns, r.Workers, r.Elapsed.Round(time.Millisecond),
		r.ConfidenceRadius, r.TimedOut, r.Interrupted, len(r.Counts))
}
