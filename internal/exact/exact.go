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
// The engine keeps no density-matrix simulator of its own. compile.go
// turns the circuit and its noise plan into a program on 2n qubits
// that evolves vec(ρ), and the program runs on the trajectory
// backends. Every read is a vector read: a diagonal probability is
// the amplitude at the index that repeats every bit of the basis
// state, the trace and a qubit's one-probability are inner products
// with vec(I) and vec(|1⟩⟨1| ⊗ I), the purity tr(ρ²) is the squared
// norm, and the fidelity ⟨ψ|ρ|ψ⟩ is the inner product with the
// noise-free run, vec(|ψ⟩⟨ψ|).
//
// The vector takes one of two forms, picked from the circuit
// (representation), never by the caller:
//
//   - Dense — statevec on 2n qubits, for registers of at most
//     maxDenseQubits qubits whose circuit measures nothing: one
//     vec(ρ) of at most 16 MiB;
//   - DDensity — ddback on 2n qubits, for everything else up to
//     MaxDDQubits. A measurement clones every live branch before
//     branches coalesce, and a diagram clone is a pin where a dense
//     one copies 16·4^n bytes.
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
// viable outcomes (state projected by the outcome's diagonal
// superoperator and rescaled by 1/p, weight multiplied by the outcome
// probability p, the classical bit recorded), and branches whose
// classical histories coincide are immediately merged back into one
// weighted mixture — exact, because future evolution depends on the
// past only through the classical register and the (mixed) quantum
// state. The branch population is therefore bounded by the number of
// distinct classical register values; MaxBranches bounds it
// absolutely, and exceeding the bound is an error. Resets apply the
// deterministic reset channel and never branch. One backend holds the
// branch being evolved; the others wait as snapshots.
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
	"math"
	"runtime"
	"sync"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
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
	// probability extraction walks all 2^n diagonal paths, and vec(ρ)
	// can degenerate to 4^n paths on unstructured states.
	MaxDDQubits = 20

	// MaxProbQubits bounds the register size up to which Result.
	// Probabilities is materialised (2^n float64 values per noise
	// point). Larger registers still serve Options.TrackStates.
	MaxProbQubits = 16

	// maxDenseQubits bounds the Dense form: vec(ρ) on 2·10 qubits is
	// 16 MiB.
	maxDenseQubits = 10

	// weightTolerance interns the DDensity form's weights: the
	// trajectory default (1e-10) leaves GHZ-8's diagonal 8e-11 off
	// the dense reference, where the engine is held to 1e-12.
	weightTolerance = 1e-14

	// branchEps prunes measurement outcomes of probability ≤ eps: the
	// dropped mass bounds the absolute error introduced, far below
	// the 1e-12 agreement the engine is verified to.
	branchEps = 1e-14
)

// The vec(ρ) forms; Result.ExactBackend echoes the one a job ran on.
// The names are those of the density-matrix engines the forms
// replaced, so results, job keys and the service's log read the same.
const (
	DDensity = "ddensity"
	Dense    = "density"
)

// representation picks the form for c: Dense when the register fits
// the dense form and no measurement can multiply branches (each
// branch is a full dense copy), DDensity otherwise.
func representation(c *circuit.Circuit) string {
	if c.NumQubits > maxDenseQubits {
		return DDensity
	}
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindMeasure {
			return DDensity
		}
	}
	return Dense
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
		limit = maxDenseQubits
	case DDensity:
	default:
		return fmt.Errorf("exact: unknown representation %q (want %s or %s)", rep, DDensity, Dense)
	}
	if c.NumQubits > limit {
		return fmt.Errorf("exact: %d qubits exceeds the %d-qubit limit of the %s representation",
			c.NumQubits, limit, rep)
	}
	if rep == Dense {
		// Every branch is a dense copy of 16·4^n bytes, and k distinct
		// measured classical bits allow up to 2^k branches; refuse
		// before allocating what statevec's budget does not hold.
		cbits := make(map[int]bool)
		for i := range c.Ops {
			if c.Ops[i].Kind == circuit.KindMeasure {
				cbits[c.Ops[i].Cbit] = true
			}
		}
		branches := MaxBranches
		if k := len(cbits); k < 30 && 1<<k < branches {
			branches = 1 << k
		}
		if branches<<(2*c.NumQubits) > 1<<statevec.MaxQubits {
			return fmt.Errorf("exact: up to %d branches of %d MiB exceed the dense form's %d MiB budget",
				branches, 16<<(2*c.NumQubits)>>20, 16<<statevec.MaxQubits>>20)
		}
	}
	if opts.TrackFidelity && hasRandomSite(c) {
		return errors.New("exact: track_fidelity needs a measurement- and reset-free circuit (the noise-free reference state is not pure otherwise)")
	}
	// The stochastic engine tolerates out-of-range tracked states
	// (they just estimate 0); the exact engine reads them off vec(ρ)
	// and treats a basis index past the register as a programming
	// error, so reject it at the door — ddsimd calls Validate at
	// submission time.
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

// branch is one outcome history: vec(ρ) conditioned on the recorded
// classical bits, carrying the history's probability. st is nil while
// the branch is the one the machine's backend holds.
type branch struct {
	st     sim.State
	clbits uint64
	weight float64
}

// machine runs one job's program on one backend of 2n qubits. The
// backend holds the live branch; every other branch waits as a
// snapshot.
type machine struct {
	v     vector
	n     int
	start time.Time
	live  *branch
	// trace is vec(I) and one[q] is vec(|1⟩⟨1|_q ⊗ I), each normalised
	// to a unit vector; fidelity is the noise-free vec(|ψ⟩⟨ψ|).
	trace    sim.State
	one      map[int]sim.State
	fidelity sim.State
}

// newVector returns |0…0⟩ on 2n qubits in form rep.
func newVector(rep string, n int) (vector, error) {
	c := circuit.New("vec", 2*n)
	if rep == Dense {
		return statevec.New(c)
	}
	return ddback.NewTol(c, weightTolerance)
}

// load makes b the live branch, parking the current one.
func (m *machine) load(b *branch) {
	if m.live == b {
		return
	}
	if m.live != nil {
		m.live.st = m.v.Snapshot()
	}
	m.v.Mix(b.st, 0, 1)
	b.st = nil
	m.live = b
}

// merge folds b into into: ρ → (w·ρ + w_b·ρ_b)/(w + w_b).
func (m *machine) merge(into, b *branch) {
	m.load(into)
	sum := into.weight + b.weight
	m.v.Mix(b.st, into.weight/sum, b.weight/sum)
	b.st = nil
	into.weight = sum
}

// run applies steps to the live state.
func (m *machine) run(steps []step) {
	for k := range steps {
		steps[k].apply(m.v)
	}
}

// read returns ⟨r|vec(ρ)⟩·√2^k for a unit reference r whose
// unnormalised vector has 2^k unit entries. Every read the engine
// makes is the trace of ρ against a positive operator, a non-negative
// real number, so the backends' FidelityTo = |⟨r|ψ⟩|² gives it.
func (m *machine) read(r sim.State, k int) float64 {
	return math.Sqrt(math.Ldexp(m.v.FidelityTo(r), k))
}

// diagonalRef returns vec(D)/‖vec(D)‖ for D = ⊗_j (|1⟩⟨1| when j = q,
// I otherwise) as a snapshot, built on the backend as a product of
// Bell pairs; q = −1 gives vec(I). It overwrites the live state.
func (m *machine) diagonalRef(q int) sim.State {
	m.v.Reset()
	for j := 0; j < m.n; j++ {
		if j == q {
			m.v.ApplyMatrix(circuit.MatX, 2*j, nil)
			m.v.ApplyMatrix(circuit.MatX, 2*j+1, nil)
			continue
		}
		m.v.ApplyMatrix(circuit.MatH, 2*j, nil)
		m.v.ApplyMatrix(circuit.MatX, 2*j+1, []circuit.Control{{Qubit: 2 * j}})
	}
	return m.v.Snapshot()
}

// diagIndex maps basis state i of the register to the index of ρ[i][i]
// in vec(ρ): every bit of i repeated, row bit above column bit.
func diagIndex(i uint64) uint64 {
	var d uint64
	for j := 0; i>>j != 0; j++ {
		d |= (i >> j & 1) << (2 * j)
	}
	return 3 * d
}

// probability returns ρ[i][i], the amplitude at its diagonal index. A
// diagonal entry of ρ is real and non-negative, so its modulus, which
// Probability's |a|² supplies, is the entry.
func (m *machine) probability(i uint64) float64 {
	return math.Sqrt(m.v.Probability(diagIndex(i)))
}

// project replaces the live state by P ρ P / p for the projector P
// onto outcome of qubit q: the diagonal superoperator |oo⟩⟨oo| on the
// qubit's row/column pair, rescaled by 1/p through ApplyKraus2's
// 1/√branchProb.
func (m *machine) project(q, outcome int, p float64) {
	var sup [4][4]complex128
	sup[3*outcome][3*outcome] = 1
	m.v.ApplyKraus2(2*q, 2*q+1, sup, p*p)
}

// release returns the DD form's pooled kernel memory.
func (m *machine) release() {
	if r, ok := m.v.(sim.Releaser); ok {
		r.Release()
	}
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

// Diagram evolves c under model on the DDensity form and returns the
// backend holding the final vec(ρ), for rendering its diagram. The
// caller releases the backend.
func Diagram(c *circuit.Circuit, model noise.Model) (*ddback.Backend, error) {
	job := stochastic.Job{Circuit: c, Model: model, Opts: stochastic.Options{Mode: stochastic.ModeExact}}
	m, _, err := evolve(context.Background(), 0, job, 1, DDensity)
	if err != nil {
		return nil, err
	}
	return m.v.(*ddback.Backend), nil
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

// runJob evolves one job's vec(ρ) through the whole circuit, in the
// representation rep ("" picks it from the circuit), and reads the
// result off it.
func runJob(ctx context.Context, jobIndex int, job stochastic.Job, workers int, rep string) (*stochastic.Result, error) {
	m, res, err := evolve(ctx, jobIndex, job, workers, rep)
	if err != nil || res.TimedOut {
		return res, err
	}
	defer m.release()
	c, opts := job.Circuit, job.Opts
	res.Purity = m.v.Norm2()
	if d, ok := m.v.(*ddback.Backend); ok {
		res.DDNodes = d.NodeCount()
		telemetry.ExactDDNodes.SetMax(int64(res.DDNodes))
	}
	if c.NumQubits <= MaxProbQubits {
		res.Probabilities = make([]float64, 1<<uint(c.NumQubits))
		for i := range res.Probabilities {
			res.Probabilities[i] = m.probability(uint64(i))
		}
	}
	if len(opts.TrackStates) > 0 {
		res.TrackedProbs = make([]float64, len(opts.TrackStates))
		for i, idx := range opts.TrackStates {
			res.TrackedProbs[i] = m.probability(idx)
		}
	}
	if opts.TrackFidelity {
		res.MeanFidelity = m.read(m.fidelity, 0)
		res.Properties++
	}
	res.Properties += len(opts.TrackStates)
	if res.Properties == 0 {
		res.Properties = 1
	}
	telemetry.ExactPurity.Set(res.Purity)
	res.Elapsed = time.Since(m.start)
	telemetry.BackendSeconds.With(res.ExactBackend).Add(res.Elapsed.Seconds())
	telemetry.BackendJobs.With(res.ExactBackend).Inc()
	if opts.OnProgress != nil {
		opts.OnProgress(stochastic.Progress{Job: jobIndex, Done: len(c.Ops), Target: len(c.Ops), Elapsed: res.Elapsed})
	}
	return res, nil
}

// evolve validates job, compiles it and runs it on form rep ("" picks
// it from the circuit). It returns the machine whose backend holds the
// branch-averaged vec(ρ), with the result's run metadata filled in; a
// timed-out run returns only the result.
func evolve(ctx context.Context, jobIndex int, job stochastic.Job, workers int, rep string) (*machine, *stochastic.Result, error) {
	c, model, opts := job.Circuit, job.Model, job.Opts
	if c == nil {
		return nil, nil, errors.New("exact: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, nil, err
	}
	if rep == "" {
		rep = representation(c)
	}
	if err := validate(c, opts, rep); err != nil {
		return nil, nil, err
	}
	plan, err := model.Compile(c)
	if err != nil {
		return nil, nil, err
	}
	prog, err := compile(c, plan)
	if err != nil {
		return nil, nil, err
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

	v, err := newVector(rep, c.NumQubits)
	if err != nil {
		return nil, nil, err
	}
	m := &machine{v: v, n: c.NumQubits, start: start}
	fail := func(err error) (*machine, *stochastic.Result, error) {
		m.release()
		return nil, nil, err
	}
	if opts.TrackFidelity {
		// The noise-free doubled run is vec(|ψ⟩⟨ψ|) of the pure
		// reference; Validate guaranteed a measurement-free circuit, so
		// every classical bit reads 0.
		ref, err := compile(c, nil) // a nil plan carries no channels
		if err != nil {
			return fail(err)
		}
		for i := range c.Ops {
			if op := &c.Ops[i]; op.Cond == nil || op.Cond.Holds(0) {
				m.run(ref[i])
			}
		}
		m.fidelity = v.Snapshot()
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != circuit.KindMeasure {
			continue
		}
		if m.trace == nil {
			m.trace = m.diagonalRef(-1)
			m.one = make(map[int]sim.State)
		}
		if _, ok := m.one[op.Target]; !ok {
			m.one[op.Target] = m.diagonalRef(op.Target)
		}
	}
	v.Reset()

	m.live = &branch{weight: 1}
	branches := []*branch{m.live}
	peakBranches := 1
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
			return fail(fmt.Errorf("exact: interrupted at op %d/%d: %w", i, len(c.Ops), err))
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			finishTelemetry()
			m.release()
			// A timed-out exact pass has no meaningful numbers: unlike
			// the Monte-Carlo engine there is no partial aggregate to
			// report, so the result carries only the timeout flag.
			return nil, &stochastic.Result{
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
		case circuit.KindGate, circuit.KindReset:
			taken := int64(0) // branches whose classical bits let the op run
			for _, b := range branches {
				if op.Cond != nil && !op.Cond.Holds(b.clbits) {
					continue
				}
				taken++
				m.load(b)
				m.run(prog[i])
			}
			if op.Kind == circuit.KindReset {
				channels += taken
				break
			}
			gates += taken
			if on := plan.At(i); on != nil {
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
			branches, err = m.measure(branches, op)
			if err != nil {
				finishTelemetry()
				return fail(fmt.Errorf("exact: op %d: %w", i, err))
			}
			if len(branches) > peakBranches {
				peakBranches = len(branches)
			}
			if d, ok := v.(*ddback.Backend); ok {
				// Branches share one DD package (a snapshot is a pin), so
				// summing per-branch node counts would double-count shared
				// structure; the package's live vector-node population is
				// the honest retention measure.
				telemetry.ExactDDNodes.SetMax(int64(d.Package().VNodeCount()))
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
	for _, b := range branches[1:] {
		m.merge(branches[0], b)
	}
	m.load(branches[0])
	finishTelemetry()
	return m, &stochastic.Result{
		Exact:          true,
		ExactBackend:   rep,
		ClassicalProbs: classical,
		Branches:       peakBranches,
		Workers:        workers,
	}, nil
}

// measure splits every live branch on a measurement op and merges
// branches whose classical histories coincide (an exact reduction:
// future evolution depends on the past only through the classical
// register and the mixed state).
func (m *machine) measure(branches []*branch, op *circuit.Op) ([]*branch, error) {
	bit := uint64(1) << uint(op.Cbit)
	next := make([]*branch, 0, 2*len(branches))
	for _, b := range branches {
		next = append(next, b)
		if op.Cond != nil && !op.Cond.Holds(b.clbits) {
			continue
		}
		m.load(b)
		p1 := m.read(m.one[op.Target], m.n-1)
		p0 := m.read(m.trace, m.n) - p1
		take1 := p1 > branchEps
		take0 := p0 > branchEps || !take1
		var one sim.State
		if take0 && take1 {
			one = m.v.Snapshot()
		}
		w := b.weight
		if take0 {
			m.project(op.Target, 0, p0)
			b.clbits &^= bit
			b.weight = w * p0
		}
		if take1 {
			if one != nil {
				b = &branch{st: one, clbits: b.clbits}
				next = append(next, b)
				m.load(b)
			}
			m.project(op.Target, 1, p1)
			b.clbits |= bit
			b.weight = w * p1
		}
	}
	merged := m.coalesce(next)
	if len(merged) > MaxBranches {
		return nil, fmt.Errorf("outcome-history branches (%d) exceed the %d bound", len(merged), MaxBranches)
	}
	return merged, nil
}

// coalesce merges branches with equal classical registers into one
// weighted mixture, preserving first-seen order (the engine is fully
// deterministic).
func (m *machine) coalesce(branches []*branch) []*branch {
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
		m.merge(ex, b)
	}
	return out
}
