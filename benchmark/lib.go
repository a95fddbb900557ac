package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/qasm"
	"ddsim/internal/sim"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

const (
	// setupReps is how many times a run sets the workload up; setup_s
	// is their median, as the driver's contract asks, so that one
	// neighbour burst cannot move it. Only the first set-up is cold for
	// the whole process (page faults, lazy package state); the others
	// are cold for everything a job builds. The first is printed on its
	// own as harness.setup_cold_s.
	setupReps = 5
	// warmupJobs run untimed per worker count after the cold jobs.
	warmupJobs = 2
	// traceJobs is the number of timed jobs per mode in each of the two
	// passes, untraced and traced, of a -trace run.
	traceJobs = minSamples
)

// inputs is what the program under test receives: a circuit parsed
// from generated OpenQASM text, a noise model, a backend and the job
// options. Everything the benchmark derives from -seed is in here.
type inputs struct {
	src     string
	circ    *circuit.Circuit
	model   noise.Model
	factory sim.Factory
	opts    stochastic.Options
}

// prepare generates the workload's inputs on n qubits: it renders the
// circuit family as OpenQASM text and parses it back, the way a user's
// file would arrive.
func prepare(w workload, n, runs int, seed int64) (*inputs, error) {
	src, err := qasm.Write(w.build(n))
	if err != nil {
		return nil, fmt.Errorf("generate qasm: %w", err)
	}
	circ, err := qasm.Parse(w.Name, src)
	if err != nil {
		return nil, fmt.Errorf("parse generated qasm: %w", err)
	}
	factory, err := ddsim.Factory(w.Backend)
	if err != nil {
		return nil, err
	}
	return &inputs{
		src:     src,
		circ:    circ,
		model:   w.model(),
		factory: factory,
		opts:    stochastic.Options{Runs: runs, Seed: seed, TrackStates: w.tracked(n)},
	}, nil
}

// job runs one simulation job with the given worker count, traced into
// jt when it is not nil, and returns its wall time.
func (in *inputs) job(workers int, jt *jobTrace) (*stochastic.Result, float64, error) {
	f := in.factory
	if jt != nil {
		f = jt.factory(f)
	}
	opts := in.opts
	opts.Workers = workers
	start := time.Now()
	res, err := stochastic.RunContext(context.Background(), in.circ, f, in.model, opts)
	wall := time.Since(start).Seconds()
	if jt != nil {
		jt.end()
	}
	return res, wall, err
}

// Tolerances between a 2-worker job and the 1-worker reference. Two
// 1-worker jobs agree bit for bit. With 2 workers the DD backend's
// numbers depend, in the last digits, on which worker ran which chunk:
// the kernel interns edge weights within a tolerance, so a package's
// rounding depends on what it computed before. Measured at HEAD over
// seeds 1-20 (WORKLOADS.md, "What the checks found"): tracked estimates
// differ by up to 5e-12 relative; on qft24_dd_xnoise one of the 3000
// sampled outcomes lands on another basis state, and about one 2-worker
// job in ten takes a different noise branch in one whole trajectory,
// which moves a second sample and shifts the estimate by 3.8e-4
// relative, that trajectory's share of it. Every 2-worker job that is
// not bit-equal is counted in harness.worker_mismatch_jobs, whether or
// not it is within these tolerances; the driver's contract wants
// workloads on which no operation fails, so only a job beyond them
// counts as failed.
const (
	// workerMovedPerMille bounds the trajectories that may come out
	// differently, per thousand (so none on a 100-run job).
	workerMovedPerMille = 2
	// workerRoundingTol bounds the relative difference of a tracked
	// estimate when no trajectory came out differently.
	workerRoundingTol = 1e-9
	// workerShareFactor: each trajectory that did come out differently
	// may shift an estimate by up to this many times its 1/runs share.
	workerShareFactor = 10
)

// resultDiff compares two same-seed results: whether they are equal bit
// for bit, how many sampled outcomes landed on another basis state, and
// the largest relative difference of a tracked estimate. ok is false
// when the two cannot be compared at all.
func resultDiff(a, b *stochastic.Result) (exact bool, moved int, rel float64, ok bool) {
	if a == nil || b == nil || a.Runs != b.Runs || len(a.TrackedProbs) != len(b.TrackedProbs) {
		return false, 0, 0, false
	}
	exact = true
	for i, x := range a.TrackedProbs {
		y := b.TrackedProbs[i]
		if math.Float64bits(x) == math.Float64bits(y) {
			continue
		}
		exact = false
		// math.Max keeps a NaN, which no tolerance admits.
		rel = math.Max(rel, math.Abs(x-y)/math.Max(math.Abs(x), math.Abs(y)))
	}
	// Both histograms hold Runs x Shots samples, so the surplus of a over
	// b, summed, is the number of samples that landed elsewhere.
	for k, v := range a.Counts {
		if d := v - b.Counts[k]; d > 0 {
			moved += d
		}
	}
	return exact && moved == 0, moved, rel, true
}

// bitEqual reports whether two same-seed results are equal bit for bit.
func bitEqual(a, b *stochastic.Result) bool {
	exact, _, _, _ := resultDiff(a, b)
	return exact
}

// sameAcrossWorkers compares a 2-worker result with the 1-worker
// reference: exact says bit for bit, ok within the tolerances above,
// the estimate's from the trajectories seen to differ.
func sameAcrossWorkers(ref, res *stochastic.Result) (exact, ok bool) {
	exact, moved, rel, ok := resultDiff(ref, res)
	if !ok {
		return false, false
	}
	tol := workerRoundingTol + workerShareFactor*float64(moved)/float64(ref.Runs)
	return exact, moved <= workerMovedPerMille*ref.Runs/1000 && rel <= tol
}

// Indices into counters.
const (
	cGates = iota
	cSkipped
	cForks
	cCheckpoints
	cUniqueLookups
	cUniqueHits
	cComputeLookups
	cComputeHits
	cComputeConflicts
	cNodes
	cDDGCRuns
	cProbeCount
	cProbeSum
	cMallocs
	cAllocBytes
	cGoGC
	numCounters
)

// counters is a snapshot of the process-wide telemetry the engine
// reports into, plus the Go allocator's totals. One job runs at a
// time, so a difference of two snapshots belongs to the jobs in
// between. All values are counts far below 2^53, so float64 is exact.
type counters [numCounters]float64

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cGates:            float64(telemetry.GateApplications.Value()),
		cSkipped:          float64(telemetry.CheckpointGatesSkipped.Value()),
		cForks:            float64(telemetry.CheckpointForks.Value()),
		cCheckpoints:      float64(telemetry.CheckpointsTaken.With("prefix").Value() + telemetry.CheckpointsTaken.With("segment").Value()),
		cUniqueLookups:    float64(telemetry.DDUniqueLookups.Value()),
		cUniqueHits:       float64(telemetry.DDUniqueHits.Value()),
		cComputeLookups:   float64(telemetry.DDComputeLookups.Value()),
		cComputeHits:      float64(telemetry.DDComputeHits.Value()),
		cComputeConflicts: float64(telemetry.DDComputeConflicts.Value()),
		cNodes:            float64(telemetry.DDNodesCreated.Value()),
		cDDGCRuns:         float64(telemetry.DDGCRuns.Value()),
		cProbeCount:       float64(telemetry.DDUniqueProbeLen.Count()),
		cProbeSum:         telemetry.DDUniqueProbeLen.Sum(),
		cMallocs:          float64(ms.Mallocs),
		cAllocBytes:       float64(ms.TotalAlloc),
		cGoGC:             float64(ms.NumGC),
	}
}

func (a counters) sub(b counters) (d counters) {
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

func (a counters) add(b counters) (s counters) {
	for i := range a {
		s[i] = a[i] + b[i]
	}
	return s
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the high-water mark of a process's resident set.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// modeSamples holds the timed jobs of one worker count in one pass.
type modeSamples struct {
	wall []float64
	cpu  float64
}

// harness fills the end-to-end timings and the ungated harness.*
// metrics from the untraced samples of both modes; fast is the
// workload's headline statistic.
func harness(rep *report, w1, w2 modeSamples, clients2 float64, fast func([]float64) float64) {
	for i, m := range []modeSamples{w1, w2} {
		if len(m.wall) <= 64 { // the service's thousands of samples would only be noise here
			fmt.Printf("samples w%d %.4f\n", i+1, m.wall)
		}
	}
	rep.set("job_s_w1", fast(w1.wall))
	rep.set("job_s_w2", fast(w2.wall))
	rep.set("harness.job_p10_s_w1", fastDecile(w1.wall))
	rep.set("harness.job_p10_s_w2", fastDecile(w2.wall))
	rep.set("harness.job_med_s_w1", median(w1.wall))
	rep.set("harness.job_med_s_w2", median(w2.wall))
	hi1, _ := highPercentile(w1.wall)
	hi2, _ := highPercentile(w2.wall)
	rep.set("harness.job_hi_s_w1", hi1)
	rep.set("harness.job_hi_s_w2", hi2)
	rep.set("harness.cpu_s_per_job_w1", w1.cpu/float64(max(len(w1.wall), 1)))
	rep.set("harness.cpu_s_per_job_w2", w2.cpu/float64(max(len(w2.wall), 1)))
	rep.set("harness.scaling_w2", clients2*fast(w1.wall)/fast(w2.wall))
	rep.set("harness.samples_w1", float64(len(w1.wall)))
	rep.set("harness.samples_w2", float64(len(w2.wall)))
}

// runLibrary runs one library workload: setupReps cold set-ups, the
// warm-up, then the pinned number of blocks of Block jobs, alternating
// between 1 and 2 workers (and, with trace, between an untraced and a
// traced pass) so that every mode sees the same machine weather.
func runLibrary(w workload, seed int64, seconds float64, trace bool, outDir string) (*report, error) {
	rep := newReport()
	var in *inputs
	var cold []*stochastic.Result
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		next, err := prepare(w, w.Qubits, w.Runs, seed)
		if err != nil {
			return nil, err
		}
		res, _, err := next.job(2, nil)
		setups = append(setups, time.Since(start).Seconds())
		rep.op(err)
		if err != nil {
			return nil, fmt.Errorf("cold job: %w", err)
		}
		cold = append(cold, res)
		in = next
		// Two collections empty the sync.Pools the kernel recycles slabs
		// and caches through, so every set-up starts equally cold.
		runtime.GC()
		runtime.GC()
	}
	fmt.Printf("setups %.4f\n", setups)
	rep.set("setup_s", median(setups))
	rep.set("harness.setup_cold_s", setups[0])

	// The first 1-worker job, a warm-up one, is the reference every
	// other result of the run is compared with.
	var ref *stochastic.Result
	for _, workers := range []int{1, 2} {
		for i := 0; i < warmupJobs; i++ {
			res, _, err := in.job(workers, nil)
			if err != nil {
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
			if ref == nil {
				ref = res
			}
		}
	}
	mismatched := 0 // 2-worker jobs not bit-equal to ref
	checkWorkers := func(res *stochastic.Result, what string, i int) {
		exact, ok := sameAcrossWorkers(ref, res)
		if !exact {
			mismatched++
		}
		rep.check(ok, "%s %d: result differs from the 1-worker reference beyond the worker tolerances", what, i)
	}
	for i, res := range cold {
		checkWorkers(res, "set-up", i)
	}

	var tr *tracer
	blocks := w.timedBlocks(seconds)
	passes := 1
	if trace {
		tr = newTracer()
		blocks = (traceJobs + w.Block - 1) / w.Block
		passes = 2
	}
	// samples[pass][mode]: pass 0 untraced, pass 1 traced.
	var samples [2][2]modeSamples
	var counted *counters // telemetry spent by the first traced 1-worker job
	var plain counters    // telemetry spent by the untraced blocks
	block := func(pass, mode int) {
		s := &samples[pass][mode]
		before := readCounters()
		cpu0 := cpuSeconds()
		for i := 0; i < w.Block; i++ {
			var jt *jobTrace
			if pass == 1 {
				jt = tr.beginJob(mode+1, len(s.wall) == 0)
			}
			res, wall, err := in.job(mode+1, jt)
			rep.op(err)
			if err != nil {
				continue
			}
			s.wall = append(s.wall, wall)
			if mode == 0 {
				rep.check(bitEqual(ref, res), "1-worker job %d: result is not bit-equal to the reference", len(s.wall))
			} else {
				checkWorkers(res, "2-worker job", len(s.wall))
			}
			if pass == 1 && mode == 0 && counted == nil {
				d := readCounters().sub(before)
				counted = &d
			}
		}
		s.cpu += cpuSeconds() - cpu0
		if pass == 0 {
			plain = plain.add(readCounters().sub(before))
		}
	}
	for b := 0; b < blocks; b++ {
		for pass := 0; pass < passes; pass++ {
			block(pass, 0)
			block(pass, 1)
		}
	}
	if len(samples[0][0].wall) == 0 || len(samples[0][1].wall) == 0 {
		return rep, fmt.Errorf("no timed job succeeded")
	}
	rep.set("harness.worker_mismatch_jobs", float64(mismatched))

	harness(rep, samples[0][0], samples[0][1], 1, fastest)
	rep.set("stochastic.traj_us", 1e6*fastest(samples[0][0].wall)/float64(w.Runs))
	jobs := float64(len(samples[0][0].wall) + len(samples[0][1].wall))
	rep.set("engine.allocs_per_job", plain[cMallocs]/jobs)
	rep.set("engine.alloc_mb_per_job", plain[cAllocBytes]/jobs/(1<<20))
	rep.set("engine.go_gc_cycles_per_job", plain[cGoGC]/jobs)

	if trace {
		traced := samples[1][0].wall
		if len(traced) == 0 || counted == nil {
			return rep, fmt.Errorf("no traced job succeeded")
		}
		rep.set("harness.trace_overhead_frac", fastest(traced)/fastest(samples[0][0].wall)-1)
		layerMetrics(rep, tr, *counted, float64(w.Runs))
		if err := microbench(rep, w, in); err != nil {
			return rep, err
		}
		path, err := writeTrace(outDir, w.Name, tr.file(w.Name, seed))
		if err != nil {
			return rep, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace %s\n", path)
	}

	twinCheck(rep, w, seed)

	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return rep, err
	}
	rep.set("peak_rss_mb", rss)
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer metrics that come from the traced
// pass. Counts come from one 1-worker job, where a single backend runs
// the chunks in order and every count repeats exactly; times are means
// over all traced 1-worker jobs.
func layerMetrics(rep *report, tr *tracer, c counters, runs float64) {
	var n, ns [numKinds]int64
	var selfFrac, reduceUs []float64
	first := true
	for _, j := range tr.jobs {
		if j.Workers != 1 || j.End == 0 {
			continue
		}
		jn, jns := j.kindTotals()
		for k := range jn {
			n[k] += jn[k]
			ns[k] += jns[k]
		}
		wall := float64(j.End - j.Start)
		backendNs, lastEnd := j.backendNs()
		selfFrac = append(selfFrac, (wall-float64(backendNs))/wall)
		reduceUs = append(reduceUs, float64(j.End-lastEnd)/1e3)
		if first {
			first = false
			rep.set("noise.channel_apps_per_traj", float64(jn[kPauli]+jn[kDamping]+jn[kKraus2])/runs)
		}
	}
	per := func(k spanKind, scale float64) float64 { return ratio(float64(ns[k]), float64(n[k])*scale) }
	rep.set("backend.compile_us", per(kCompile, 1e3))
	rep.set("backend.gate_ns", per(kGate, 1))
	rep.set("backend.pauli_ns", per(kPauli, 1))
	rep.set("backend.damping_ns", per(kDamping, 1))
	rep.set("backend.kraus2_ns", per(kKraus2, 1))
	rep.set("backend.probone_ns", per(kProbOne, 1))
	rep.set("backend.probability_ns", per(kProbability, 1))
	rep.set("backend.sample_ns", per(kSample, 1))
	rep.set("backend.restore_ns", per(kRestore, 1))
	rep.set("backend.snapshot_ns", per(kSnapshot, 1))
	rep.set("backend.release_us", per(kRelease, 1e3))
	rep.set("stochastic.self_frac", mean(selfFrac))
	rep.set("stochastic.reduce_us", mean(reduceUs))

	rep.set("stochastic.gates_applied_per_traj", c[cGates]/runs)
	rep.set("stochastic.gates_skipped_frac", ratio(c[cSkipped], c[cGates]+c[cSkipped]))
	rep.set("stochastic.forks_per_traj", c[cForks]/runs)
	rep.set("stochastic.checkpoints_per_job", c[cCheckpoints])
	rep.set("dd.unique_lookups_per_traj", c[cUniqueLookups]/runs)
	rep.set("dd.unique_hit_rate", ratio(c[cUniqueHits], c[cUniqueLookups]))
	rep.set("dd.compute_lookups_per_traj", c[cComputeLookups]/runs)
	rep.set("dd.compute_hit_rate", ratio(c[cComputeHits], c[cComputeLookups]))
	rep.set("dd.compute_conflicts_per_traj", c[cComputeConflicts]/runs)
	rep.set("dd.nodes_created_per_traj", c[cNodes]/runs)
	rep.set("dd.gc_runs_per_job", c[cDDGCRuns])
	rep.set("dd.probe_len_mean", ratio(c[cProbeSum], c[cProbeCount]))
	rep.set("dd.peak_nodes", float64(telemetry.DDPeakNodes.Value()))
	rep.set("dd.probe_len_max", float64(telemetry.DDUniqueMaxProbe.Value()))
	rep.set("dd.unique_load", telemetry.DDUniqueLoadFactor.Value())
}

// twinCheck runs the workload's circuit family and noise model on
// twinQubits qubits and compares the stochastic estimates with the
// exact density-matrix engine. The radius is Theorem 1's at
// confidence 0.999, so a correct simulator fails it less than once in
// a thousand seeds (far less in practice: the bound is distribution-
// free and these estimators have tiny variance).
func twinCheck(rep *report, w workload, seed int64) {
	in, err := prepare(w, twinQubits, twinRuns, seed)
	if err != nil {
		rep.op(fmt.Errorf("twin: %w", err))
		return
	}
	got, _, err := in.job(2, nil)
	if err != nil {
		rep.op(fmt.Errorf("twin stochastic run: %w", err))
		return
	}
	exactOpts := in.opts
	exactOpts.Mode = ddsim.ModeExact
	want, err := ddsim.Simulate(in.circ, w.Backend, in.model, exactOpts)
	if err != nil {
		rep.op(fmt.Errorf("twin exact run: %w", err))
		return
	}
	radius := ddsim.EstimateAccuracy(twinRuns, len(in.opts.TrackStates), 0.001)
	for i := range want.TrackedProbs {
		d := math.Abs(got.TrackedProbs[i] - want.TrackedProbs[i])
		rep.check(d <= radius, "twin: tracked state %d estimate %.6f vs exact %.6f, beyond radius %.4f",
			in.opts.TrackStates[i], got.TrackedProbs[i], want.TrackedProbs[i], radius)
	}
}
