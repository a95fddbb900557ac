// Package exact implements the deterministic density-matrix engine —
// the paper's baseline alternative to stochastic trajectory sampling,
// promoted to a first-class peer of internal/stochastic. Instead of
// estimating outcome probabilities from M sampled trajectories, the
// engine evolves the full mixed state ρ through the same compiled
// circuit/noise pipeline: gates as conjugations ρ → UρU†, every error
// of the noise model as its exact channel ρ → Σ K ρ K†, and the
// result carries the entire 2^n outcome distribution with zero
// sampling error (stochastic.Result with Exact set and Runs = 0).
//
// The density matrix takes one of two forms, picked from the circuit
// (representation), never by the caller:
//
//   - Dense — a dense 2^n × 2^n array (internal/density), for
//     registers of at most density.MaxQubits qubits whose circuit
//     measures nothing: one ρ of at most 16 MiB, faster than the
//     diagram on 7 of 8 benchmark families at n = 6–10
//     (docs/PERFORMANCE.md);
//   - DDensity — the density matrix as a decision diagram
//     (internal/ddensity), the method of Grurl/Fuß/Wille (ICCAD 2020),
//     for everything else up to MaxDDQubits. A measurement clones
//     every live branch before branches coalesce, and a diagram clone
//     is a reference-count bump where a dense one copies 16·4^n bytes.
//
// RunAs forces one form; it exists for the ablation that measures the
// two against each other and for the tests that hold them to 1e-9 of
// each other.
//
// # Outcome-history branching
//
// Mid-circuit measurements, resets and classically conditioned gates
// do not have a single deterministic mixed-state evolution: a
// measurement outcome feeds a classical bit that later gates may
// condition on. The engine handles them by probability-weighted
// branching: each measurement splits every live branch into its
// viable outcomes (state projected and renormalised via
// MeasureProject, weight multiplied by the outcome probability, the
// classical bit recorded), and branches whose classical histories
// coincide are immediately merged back into one weighted mixture —
// exact, because future evolution depends on the past only through
// the classical register and the (mixed) quantum state. The branch
// population is therefore bounded by the number of distinct classical
// register values; MaxBranches bounds it absolutely, and exceeding
// the bound is an error. Resets apply the deterministic reset channel
// and never branch.
//
// # Batch execution
//
// RunBatch mirrors stochastic.RunBatch: a set of (circuit,
// noise-point) jobs — typically one noise sweep — executes over one
// shared worker pool, each job owning a private simulator. Jobs honor
// context cancellation (checked between operations) and
// Options.Timeout (a timed-out job reports TimedOut with no
// probabilities, mirroring the paper's ">1h" table cells).
package exact

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddensity"
	"ddsim/internal/density"
	"ddsim/internal/noise"
	"ddsim/internal/statevec"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// Exact-mode limits.
const (
	// MaxBranches bounds the outcome-history branch population of one
	// job. Coalescing keeps it at the number of distinct classical
	// register values, so only circuits measuring many qubits with
	// genuinely random outcomes approach it; past the bound the job
	// fails rather than silently approximating.
	MaxBranches = 256

	// MaxDDQubits bounds the DDensity form, and with it exact mode:
	// probability extraction walks all 2^n diagonal paths, and the
	// squared representation can degenerate to 4^n paths on
	// unstructured states.
	MaxDDQubits = 20

	// MaxProbQubits bounds the register size up to which Result.
	// Probabilities is materialised (2^n float64 values per noise
	// point). Larger registers still serve Options.TrackStates.
	MaxProbQubits = 16

	// branchEps prunes measurement outcomes of probability ≤ eps: the
	// dropped mass bounds the absolute error introduced, far below
	// the 1e-12 agreement the engine is verified to.
	branchEps = 1e-14
)

// The density-matrix forms; Result.ExactBackend echoes the one a job
// ran on.
const (
	DDensity = "ddensity"
	Dense    = "density"
)

// representation picks the form for c: Dense when the register fits
// the dense engine and no measurement can multiply branches (each
// branch is a full dense copy), DDensity otherwise.
func representation(c *circuit.Circuit) string {
	if c.NumQubits > density.MaxQubits {
		return DDensity
	}
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindMeasure {
			return DDensity
		}
	}
	return Dense
}

// state is the contract between the branching engine and a
// density-matrix representation. Both simulators implement the
// operations; the small adapters below only reconcile the concrete
// receiver types.
type state interface {
	ApplyGate(u circuit.Mat2, target int, controls []circuit.Control)
	// ApplyChans1/ApplyChan2 apply the compiled plan's channels exactly:
	// a list of single-qubit channels in order, one two-qubit channel.
	ApplyChans1(chs []noise.Chan1)
	ApplyChan2(ch *noise.Chan2)
	ProbOne(qubit int) float64
	MeasureProject(qubit, outcome int) float64
	Reset(qubit int)
	Probability(idx uint64) float64
	Probabilities() []float64
	Purity() float64
	FidelityWithPure(psi []complex128) float64
	Clone() state
	// Mix folds another branch in: ρ → w·ρ + wo·ρ_o.
	Mix(o state, w, wo float64)
	// Release drops the state's resources (DD references); the state
	// must not be used afterwards.
	Release()
	// NodeCount reports the decision-diagram size of this state
	// (0 for dense).
	NodeCount() int
	// LiveNodes reports the live node population of the underlying
	// DD package, shared by every branch (0 for dense) — the honest
	// retention measure while branches share structure.
	LiveNodes() int
}

type denseState struct{ s *density.Simulator }

func (d denseState) ApplyGate(u circuit.Mat2, t int, c []circuit.Control) { d.s.ApplyGate(u, t, c) }
func (d denseState) ApplyChans1(chs []noise.Chan1)                        { d.s.ApplyChans1(chs) }
func (d denseState) ApplyChan2(ch *noise.Chan2)                           { d.s.ApplyChan2(ch) }
func (d denseState) ProbOne(q int) float64                                { return d.s.ProbOne(q) }
func (d denseState) MeasureProject(q, o int) float64                      { return d.s.MeasureProject(q, o) }
func (d denseState) Reset(q int)                                          { d.s.Reset(q) }
func (d denseState) Probability(idx uint64) float64                       { return d.s.Probability(idx) }
func (d denseState) Probabilities() []float64                             { return d.s.Probabilities() }
func (d denseState) Purity() float64                                      { return d.s.Purity() }
func (d denseState) FidelityWithPure(psi []complex128) float64            { return d.s.FidelityWithPure(psi) }
func (d denseState) Clone() state                                         { return denseState{d.s.Clone()} }
func (d denseState) Mix(o state, w, wo float64)                           { d.s.Mix(o.(denseState).s, w, wo) }
func (d denseState) Release()                                             {}
func (d denseState) NodeCount() int                                       { return 0 }
func (d denseState) LiveNodes() int                                       { return 0 }

type ddState struct{ s *ddensity.Simulator }

func (d ddState) ApplyGate(u circuit.Mat2, t int, c []circuit.Control) { d.s.ApplyGate(u, t, c) }
func (d ddState) ApplyChans1(chs []noise.Chan1)                        { d.s.ApplyChans1(chs) }
func (d ddState) ApplyChan2(ch *noise.Chan2)                           { d.s.ApplyChan2(ch) }
func (d ddState) ProbOne(q int) float64                                { return d.s.ProbOne(q) }
func (d ddState) MeasureProject(q, o int) float64                      { return d.s.MeasureProject(q, o) }
func (d ddState) Reset(q int)                                          { d.s.Reset(q) }
func (d ddState) Probability(idx uint64) float64                       { return d.s.Probability(idx) }
func (d ddState) Probabilities() []float64                             { return d.s.Probabilities() }
func (d ddState) Purity() float64                                      { return d.s.Purity() }
func (d ddState) FidelityWithPure(psi []complex128) float64            { return d.s.FidelityWithPure(psi) }
func (d ddState) Clone() state                                         { return ddState{d.s.Clone()} }
func (d ddState) Mix(o state, w, wo float64)                           { d.s.Mix(o.(ddState).s, w, wo) }
func (d ddState) Release()                                             { d.s.Release() }
func (d ddState) NodeCount() int                                       { return d.s.NodeCount() }
func (d ddState) LiveNodes() int                                       { return d.s.Package().MNodeCount() }

// newState constructs the given representation for n qubits.
func newState(rep string, n int) (state, error) {
	if rep == Dense {
		s, err := density.New(n)
		if err != nil {
			return nil, err
		}
		return denseState{s}, nil
	}
	return ddState{ddensity.New(n)}, nil
}

// Validate checks that a job can run in exact mode under the given
// options: a register within MaxDDQubits, and a fidelity request only
// on circuits whose noise-free final state is a well-defined pure
// state (no measurements or resets). The ddsimd service calls it at
// submission time; Run repeats it before simulating.
func Validate(c *circuit.Circuit, opts stochastic.Options) error {
	return validate(c, opts, representation(c))
}

func validate(c *circuit.Circuit, opts stochastic.Options, rep string) error {
	if err := opts.ValidateMode(); err != nil {
		return err
	}
	if opts.Mode != stochastic.ModeExact {
		return fmt.Errorf("exact: options select mode %q, not %q", opts.Mode, stochastic.ModeExact)
	}
	limit := MaxDDQubits
	switch rep {
	case Dense:
		limit = density.MaxQubits
	case DDensity:
	default:
		return fmt.Errorf("exact: unknown representation %q (want %s or %s)", rep, DDensity, Dense)
	}
	if c.NumQubits > limit {
		return fmt.Errorf("exact: %d qubits exceeds the %d-qubit limit of the %s representation",
			c.NumQubits, limit, rep)
	}
	if opts.TrackFidelity && hasRandomSite(c) {
		return errors.New("exact: track_fidelity needs a measurement- and reset-free circuit (the noise-free reference state is not pure otherwise)")
	}
	// The stochastic engine tolerates out-of-range tracked states
	// (they just estimate 0); the density simulators treat a basis
	// index past the register as a programming error, so reject it at
	// the door — ddsimd calls Validate at submission time.
	for _, idx := range opts.TrackStates {
		if idx >= 1<<uint(c.NumQubits) {
			return fmt.Errorf("exact: tracked state %d outside the %d-qubit register", idx, c.NumQubits)
		}
	}
	return nil
}

func hasRandomSite(c *circuit.Circuit) bool {
	for i := range c.Ops {
		switch c.Ops[i].Kind {
		case circuit.KindMeasure, circuit.KindReset:
			return true
		}
	}
	return false
}

// branch is one outcome history: a density matrix conditioned on the
// recorded classical bits, carrying the history's probability.
type branch struct {
	st     state
	clbits uint64
	weight float64
}

// Run executes one exact simulation job (RunContext with a background
// context).
func Run(c *circuit.Circuit, model noise.Model, opts stochastic.Options) (*stochastic.Result, error) {
	return RunContext(context.Background(), c, model, opts)
}

// RunContext executes one exact simulation job under a context.
// Cancelling ctx aborts the evolution and returns an error (a partial
// density-matrix pass, unlike a partial Monte-Carlo aggregate, has no
// meaningful value).
func RunContext(ctx context.Context, c *circuit.Circuit, model noise.Model, opts stochastic.Options) (*stochastic.Result, error) {
	return RunAs(ctx, "", c, model, opts)
}

// RunAs is RunContext on the representation rep (Dense or DDensity)
// instead of the one the circuit selects; "" keeps the selection. It
// is for measuring the two forms against each other, not for
// production jobs.
func RunAs(ctx context.Context, rep string, c *circuit.Circuit, model noise.Model, opts stochastic.Options) (*stochastic.Result, error) {
	return runJob(ctx, 0, stochastic.Job{Circuit: c, Model: model, Opts: opts}, 1, rep)
}

// RunBatch executes a set of exact (circuit, noise-point) jobs over
// one shared worker pool of the given size (0 means GOMAXPROCS). The
// returned slice is indexed like jobs; failed jobs have a nil entry
// and contribute to the joined error while the remaining jobs still
// complete — the exact counterpart of stochastic.RunBatch.
func RunBatch(ctx context.Context, jobs []stochastic.Job, workers int) ([]*stochastic.Result, error) {
	if len(jobs) == 0 {
		return nil, errors.New("exact: empty job batch")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*stochastic.Result, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := runJob(ctx, i, jobs[i], workers, "")
				if err != nil {
					if len(jobs) > 1 {
						name := "?"
						if jobs[i].Circuit != nil {
							name = jobs[i].Circuit.Name
						}
						err = fmt.Errorf("job %d (%s): %w", i, name, err)
					}
					errs[i] = err
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}

// runJob evolves one job's density matrix through the whole circuit,
// in the representation rep ("" picks it from the circuit).
func runJob(ctx context.Context, jobIndex int, job stochastic.Job, workers int, rep string) (*stochastic.Result, error) {
	c, model, opts := job.Circuit, job.Model, job.Opts
	if c == nil {
		return nil, errors.New("exact: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if rep == "" {
		rep = representation(c)
	}
	if err := validate(c, opts, rep); err != nil {
		return nil, err
	}

	// The noise-free pure reference for fidelity tracking, computed
	// once with the dense state-vector engine (Validate guaranteed the
	// circuit is measurement-free, so the reference is deterministic).
	var refPsi []complex128
	if opts.TrackFidelity {
		b, err := stochastic.Deterministic(c, statevec.Factory(), 0)
		if err != nil {
			return nil, fmt.Errorf("exact: fidelity reference: %w", err)
		}
		refPsi = b.(*statevec.Backend).Amplitudes()
	}

	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	progressEvery := opts.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 512
	}

	root, err := newState(rep, c.NumQubits)
	if err != nil {
		return nil, err
	}
	branches := []*branch{{st: root, weight: 1}}
	peakBranches := 1
	plan, err := model.Compile(c)
	if err != nil {
		return nil, err
	}
	var chanCounts noise.ChannelCounts
	var channels, gates int64
	measures := false

	progress := func(done int) {
		if opts.OnProgress == nil {
			return
		}
		opts.OnProgress(stochastic.Progress{
			Job:     jobIndex,
			Done:    done,
			Target:  len(c.Ops),
			Elapsed: time.Since(start),
		})
	}

	finishTelemetry := func() {
		telemetry.ExactChannelApplications.Add(channels)
		telemetry.GateApplications.Add(gates)
		telemetry.ExactBranches.SetMax(int64(peakBranches))
		for l, n := range chanCounts {
			if n > 0 {
				telemetry.NoiseChannelApplications.With(noise.Labels[l]).Add(n)
			}
		}
	}

	for i := range c.Ops {
		if err := ctx.Err(); err != nil {
			finishTelemetry()
			return nil, fmt.Errorf("exact: interrupted at op %d/%d: %w", i, len(c.Ops), err)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			finishTelemetry()
			// A timed-out exact pass has no meaningful numbers: unlike
			// the Monte-Carlo engine there is no partial aggregate to
			// report, so the result carries only the timeout flag.
			return &stochastic.Result{
				Exact:        true,
				ExactBackend: rep,
				TimedOut:     true,
				Branches:     peakBranches,
				Elapsed:      time.Since(start),
				Workers:      workers,
			}, nil
		}
		op := &c.Ops[i]
		switch op.Kind {
		case circuit.KindGate:
			u, err := circuit.GateMatrix(op.Name, op.Params)
			if err != nil {
				finishTelemetry()
				return nil, fmt.Errorf("exact: op %d: %w", i, err)
			}
			on := plan.At(i)
			taken := int64(0) // branches whose classical bits let the gate run
			for _, b := range branches {
				if op.Cond != nil && !op.Cond.Holds(b.clbits) {
					continue
				}
				taken++
				if on != nil {
					b.st.ApplyChans1(on.Pre)
				}
				b.st.ApplyGate(u, op.Target, op.Controls)
				if on != nil {
					b.st.ApplyChans1(on.Post)
					for k := range on.Post2 {
						b.st.ApplyChan2(&on.Post2[k])
					}
				}
			}
			gates += taken
			if on != nil {
				for _, chs := range [2][]noise.Chan1{on.Pre, on.Post} {
					for k := range chs {
						chanCounts[chs[k].Label] += taken
					}
				}
				for k := range on.Post2 {
					chanCounts[on.Post2[k].Label] += taken
				}
				channels += taken * int64(on.Len())
			}
		case circuit.KindMeasure:
			measures = true
			branches, err = measureBranches(branches, op)
			if err != nil {
				finishTelemetry()
				return nil, fmt.Errorf("exact: op %d: %w", i, err)
			}
			if len(branches) > peakBranches {
				peakBranches = len(branches)
			}
			if rep == DDensity {
				// Branches share one DD package (Clone is a refcount
				// bump), so summing per-branch reachable counts would
				// double-count shared structure; the package's live
				// node population is the honest retention measure.
				telemetry.ExactDDNodes.SetMax(int64(branches[0].st.LiveNodes()))
			}
		case circuit.KindReset:
			for _, b := range branches {
				if op.Cond != nil && !op.Cond.Holds(b.clbits) {
					continue
				}
				b.st.Reset(op.Target)
				channels++
			}
		case circuit.KindBarrier:
		}
		if (i+1)%progressEvery == 0 {
			progress(i + 1)
		}
	}

	// Classical outcome distribution, read off the branch weights
	// before the branches are merged away.
	var classical map[uint64]float64
	if measures {
		classical = make(map[uint64]float64, len(branches))
		for _, b := range branches {
			classical[b.clbits] += b.weight
		}
	}

	// Fold every branch into one ensemble-averaged state.
	final := branches[0].st
	total := branches[0].weight
	for _, b := range branches[1:] {
		final.Mix(b.st, total/(total+b.weight), b.weight/(total+b.weight))
		total += b.weight
		b.st.Release()
	}

	res := &stochastic.Result{
		Exact:          true,
		ExactBackend:   rep,
		ClassicalProbs: classical,
		Branches:       peakBranches,
		Purity:         final.Purity(),
		DDNodes:        final.NodeCount(),
		Elapsed:        time.Since(start),
		Workers:        workers,
	}
	if c.NumQubits <= MaxProbQubits {
		res.Probabilities = final.Probabilities()
	}
	if len(opts.TrackStates) > 0 {
		res.TrackedProbs = make([]float64, len(opts.TrackStates))
		for i, idx := range opts.TrackStates {
			res.TrackedProbs[i] = final.Probability(idx)
		}
	}
	if opts.TrackFidelity {
		res.MeanFidelity = final.FidelityWithPure(refPsi)
		res.Properties++
	}
	if l := len(opts.TrackStates); l > 0 {
		res.Properties += l
	}
	if res.Properties == 0 {
		res.Properties = 1
	}
	if rep == DDensity {
		telemetry.ExactDDNodes.SetMax(int64(res.DDNodes))
	}
	telemetry.ExactPurity.Set(res.Purity)
	finishTelemetry()
	telemetry.BackendSeconds.With(rep).Add(res.Elapsed.Seconds())
	telemetry.BackendJobs.With(rep).Inc()
	final.Release()
	progress(len(c.Ops))
	return res, nil
}

// measureBranches splits every live branch on a measurement op and
// merges branches whose classical histories coincide (an exact
// reduction: future evolution depends on the past only through the
// classical register and the mixed state).
func measureBranches(branches []*branch, op *circuit.Op) ([]*branch, error) {
	next := make([]*branch, 0, 2*len(branches))
	for _, b := range branches {
		if op.Cond != nil && !op.Cond.Holds(b.clbits) {
			next = append(next, b)
			continue
		}
		p1 := b.st.ProbOne(op.Target)
		take0 := 1-p1 > branchEps
		take1 := p1 > branchEps
		var one state
		if take0 && take1 {
			one = b.st.Clone()
		} else if take1 {
			one = b.st
		}
		if take0 {
			p := b.st.MeasureProject(op.Target, 0)
			if p > 0 {
				next = append(next, &branch{
					st:     b.st,
					clbits: b.clbits &^ (1 << uint(op.Cbit)),
					weight: b.weight * p,
				})
			} else {
				b.st.Release()
			}
		}
		if take1 {
			p := one.MeasureProject(op.Target, 1)
			if p > 0 {
				next = append(next, &branch{
					st:     one,
					clbits: b.clbits | 1<<uint(op.Cbit),
					weight: b.weight * p,
				})
			} else {
				one.Release()
			}
		}
	}
	merged := coalesce(next)
	if len(merged) > MaxBranches {
		return nil, fmt.Errorf("outcome-history branches (%d) exceed the %d bound", len(merged), MaxBranches)
	}
	return merged, nil
}

// coalesce merges branches with equal classical registers into one
// weighted mixture, preserving first-seen order (the engine is fully
// deterministic).
func coalesce(branches []*branch) []*branch {
	if len(branches) < 2 {
		return branches
	}
	keyed := make(map[uint64]*branch, len(branches))
	out := branches[:0]
	for _, b := range branches {
		ex, ok := keyed[b.clbits]
		if !ok {
			keyed[b.clbits] = b
			out = append(out, b)
			continue
		}
		sum := ex.weight + b.weight
		ex.st.Mix(b.st, ex.weight/sum, b.weight/sum)
		ex.weight = sum
		b.st.Release()
	}
	return out
}
