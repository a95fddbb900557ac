// Command sqcsim runs a stochastic noisy simulation of a quantum
// circuit — either an OpenQASM 2.0 file or a built-in benchmark — and
// prints the estimated outcome distribution.
//
// Examples:
//
//	sqcsim -circuit ghz -n 24 -runs 1000
//	sqcsim -qasm my.qasm -runs 500 -backend statevec
//	sqcsim -circuit qft -n 16 -depol 0.001 -damp 0.002 -flip 0.001 -top 8
//
// Adaptive stopping (-accuracy, with -confidence) issues only as many
// trajectories as the paper's Theorem 1 requires, capped by -runs:
//
//	sqcsim -circuit ghz -n 12 -runs 30000 -accuracy 0.02
//
// Noise-sweep mode (-sweep) re-runs the circuit at several multiples
// of the base noise point through one shared worker pool
// (BatchSimulate) and prints one summary line per point:
//
//	sqcsim -circuit ghz -n 12 -runs 2000 -sweep 0,1,2,5,10
//
// On the dd and statevec backends the engine simulates the
// deterministic prefix of the circuit once per worker and forks every
// trajectory from it instead of replaying it — a large win for
// perfect-device sampling (-perfect) of circuits that measure at the
// end, where the entire gate sequence is shared:
//
//	sqcsim -circuit bv -n 19 -perfect -runs 5000 -progress
//
// -progress prints periodic progress lines (runs completed, current
// Theorem-1 confidence radius) to stderr while simulating, plus a
// final telemetry digest (trajectories, gates applied and skipped via
// checkpoints, decision-diagram table hit rates, garbage collections):
//
//	sqcsim -circuit qft -n 16 -runs 5000 -progress
//
// Exact mode (-mode exact) replaces Monte-Carlo sampling with a
// deterministic density-matrix pass through the same circuit/noise
// pipeline: the printed distribution is the exact one (no runs, no
// confidence radius). The engine runs ρ as a vector on 2n qubits of
// the state-vector backend for registers of up to 10 qubits whose
// circuit measures nothing and of the decision-diagram backend
// otherwise, up to 20 qubits; the result line names the form
// it picked (exact(density) or exact(ddensity)). Small registers only
// — this is precisely the exponential object stochastic simulation
// avoids:
//
//	sqcsim -circuit ghz -n 8 -mode exact
//	sqcsim -circuit ghz -n 14 -mode exact
//
// A running simulation can be interrupted with Ctrl-C: the completed
// trajectories are aggregated and reported as a partial result. For a
// long-lived simulation service with the same engine, see ddsimd.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"ddsim"
	"ddsim/internal/qbench"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

func main() {
	var (
		qasmPath   = flag.String("qasm", "", "OpenQASM 2.0 file to simulate")
		name       = flag.String("circuit", "", "built-in circuit: "+strings.Join(qbench.BuiltinNames(), ", "))
		n          = flag.Int("n", 8, "qubit count for built-in circuits")
		backend    = flag.String("backend", ddsim.BackendDD, "simulation backend: dd, statevec, sparse")
		runs       = flag.Int("runs", 1000, "trajectory budget M (exact run count unless -accuracy is set)")
		workers    = flag.Int("workers", 0, "concurrent workers (0 = all cores)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		shots      = flag.Int("shots", 1, "basis samples per run")
		depol      = flag.Float64("depol", 0.001, "depolarising (gate error) probability")
		damp       = flag.Float64("damp", 0.002, "amplitude damping (T1) probability")
		flip       = flag.Float64("flip", 0.001, "phase flip (T2) probability")
		noNoise    = flag.Bool("perfect", false, "simulate a perfect (noise-free) quantum computer")
		exactT1    = flag.Bool("exact-t1", false, "use the exact amplitude-damping channel (Example 6) instead of the default event semantics (Section III); see the internal/noise package docs")
		top        = flag.Int("top", 8, "number of most frequent outcomes to print")
		timeout    = flag.Duration("timeout", 0, "per-simulation wall-clock budget (0 = none)")
		fidelity   = flag.Bool("fidelity", false, "also estimate fidelity with the noise-free output state")
		accuracy   = flag.Float64("accuracy", 0, "adaptive stopping: stop once Theorem 1 guarantees this accuracy ε (0 = always run the full budget)")
		confidence = flag.Float64("confidence", 0.95, "confidence level 1−δ for -accuracy and the reported radius")
		progress   = flag.Bool("progress", false, "print periodic progress lines and a final telemetry digest to stderr")
		sweep      = flag.String("sweep", "", "noise sweep: comma-separated multiples of the base noise point, e.g. 0,1,2,5,10 (batch mode, one shared worker pool)")
		mode       = flag.String("mode", ddsim.ModeStochastic, "simulation mode: stochastic (Monte-Carlo trajectories) or exact (deterministic density-matrix pass, small registers)")
		devicePath = flag.String("device", "", "calibrated device description (JSON file): per-qubit T1/T2 and per-gate error rates replace the uniform -depol/-damp/-flip rates")
		crosstalk  = flag.Float64("crosstalk", 0, "correlated two-qubit Pauli error probability applied after every two-qubit gate")
		zzBias     = flag.Float64("crosstalk-zz", 0, "fraction of the crosstalk mass concentrated on the ZZ term (0 = uniform over the 15 non-identity Pauli pairs)")
		idleDamp   = flag.Float64("idle-damp", 0, "per-moment amplitude-damping probability on idling qubits")
		idleFlip   = flag.Float64("idle-flip", 0, "per-moment phase-flip probability on idling qubits")
		twirl      = flag.Bool("twirl", false, "replace each channel with its Pauli-twirled approximation")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	circ, err := loadCircuit(*qasmPath, *name, *n)
	if err != nil {
		fatal(err)
	}
	model := ddsim.NoiseModel{
		Depolarizing:   *depol,
		Damping:        *damp,
		PhaseFlip:      *flip,
		DampingAsEvent: !*exactT1,
	}
	if *noNoise {
		model = ddsim.NoNoise()
	}
	if *devicePath != "" {
		dev, err := ddsim.LoadDevice(*devicePath)
		if err != nil {
			fatal(err)
		}
		model.Device = dev
	}
	if *crosstalk > 0 {
		model.Crosstalk = &ddsim.Crosstalk{Strength: *crosstalk, ZZBias: *zzBias}
	}
	if *idleDamp > 0 || *idleFlip > 0 {
		model.Idle = &ddsim.IdleNoise{Damping: *idleDamp, Dephasing: *idleFlip}
	}
	if *twirl {
		model = model.Twirl()
	}
	if err := model.ValidateFor(circ.NumQubits); err != nil {
		fatal(err)
	}
	opts := ddsim.Options{
		Runs: *runs, Workers: *workers, Seed: *seed, Shots: *shots, Timeout: *timeout,
		TrackFidelity: *fidelity, TargetAccuracy: *accuracy, TargetConfidence: *confidence,
		Mode: *mode,
	}
	exactMode := *mode == ddsim.ModeExact
	if *progress {
		unit := "runs" // exact mode reports circuit ops, not trajectories
		if exactMode {
			unit = "ops"
		}
		opts.OnProgress = func(p ddsim.Progress) {
			fmt.Fprintf(os.Stderr, "· job %d: %d/%d %s, radius ±%.4f, %s\n",
				p.Job, p.Done, p.Target, unit, p.ConfidenceRadius, p.Elapsed.Round(10e6))
		}
	}

	fmt.Printf("circuit : %s (%d qubits, %d gates)\n", circ.Name, circ.NumQubits, circ.GateCount())
	if exactMode {
		fmt.Println("backend : exact density matrix")
	} else {
		fmt.Printf("backend : %s\n", *backend)
	}

	if *sweep != "" {
		scales, err := parseScales(*sweep)
		if err != nil {
			fatal(err)
		}
		runSweep(ctx, circ, *backend, model, opts, scales, *workers)
		if *progress {
			fmt.Fprintf(os.Stderr, "telemetry: %s\n", telemetry.Summary())
		}
		return
	}

	fmt.Printf("noise   : %s\n", model)
	if exactMode {
		res, err := ddsim.SimulateContext(ctx, circ, *backend, model, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("result  : %s\n", stochastic.Describe(res))
		if res.TimedOut {
			fmt.Println("warning : timed out before the pass completed; no probabilities")
			return
		}
		if *fidelity {
			fmt.Printf("fidelity: %.6f (exact ⟨ψ_ideal|ρ|ψ_ideal⟩)\n", res.MeanFidelity)
		}
		fmt.Println()
		printExactHistogram(res, circ.NumQubits, *top)
		return
	}
	if *accuracy > 0 {
		need, err := ddsim.RequiredRuns(1, *accuracy, 1-*confidence)
		if err != nil {
			fatal(err)
		}
		planned, note := need, ""
		if need > *runs {
			planned, note = *runs, " — budget too small for ε"
		}
		fmt.Printf("runs    : %d of budget %d (adaptive: ε=%g at %g%% confidence)%s\n",
			planned, *runs, *accuracy, *confidence*100, note)
	} else {
		fmt.Printf("runs    : %d (accuracy ±%.4f for 1000 properties at 95%% confidence)\n",
			*runs, ddsim.EstimateAccuracy(*runs, 1000, 0.05))
	}

	res, err := ddsim.SimulateContext(ctx, circ, *backend, model, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result  : %s\n", stochastic.Describe(res))
	if res.BudgetExhausted {
		fmt.Printf("warning : run budget exhausted before reaching ε=%.4g (achieved ±%.4f)\n",
			*accuracy, res.ConfidenceRadius)
	}
	if res.Interrupted {
		fmt.Printf("warning : interrupted; partial result over %d runs\n", res.Runs)
	}
	if *fidelity {
		fmt.Printf("fidelity: %.4f (mean |⟨ψ_ideal|ψ̃⟩|² over all runs)\n", res.MeanFidelity)
	}
	fmt.Println()
	printHistogram(res, circ.NumQubits, *top)
	if *progress {
		fmt.Fprintf(os.Stderr, "telemetry: %s\n", telemetry.Summary())
	}
}

// runSweep simulates the circuit at every multiple of the base noise
// point through one BatchSimulate worker pool and prints one line per
// point. All points share the seed, so they are coupled (common random
// numbers) and differences between rows isolate the noise effect.
func runSweep(ctx context.Context, circ *ddsim.Circuit, backend string, base ddsim.NoiseModel, opts ddsim.Options, scales []float64, workers int) {
	jobs := make([]ddsim.BatchJob, len(scales))
	for i, s := range scales {
		jobs[i] = ddsim.BatchJob{Circuit: circ, Model: base.Scale(s), Opts: opts}
	}
	if opts.Mode == ddsim.ModeExact {
		fmt.Printf("sweep   : %d noise points, exact density-matrix passes (shared worker pool)\n\n", len(scales))
	} else {
		fmt.Printf("sweep   : %d noise points × %d runs (shared worker pool)\n\n", len(scales), opts.Runs)
	}
	results, err := ddsim.BatchSimulate(ctx, backend, jobs, workers)
	if results == nil && err != nil {
		fatal(err)
	}
	fmt.Printf("%8s  %-28s  %9s  %8s  %9s  %s\n",
		"scale", "noise", "runs", "radius", "elapsed", "top outcome")
	failed := false
	for i, res := range results {
		if res == nil {
			// On Ctrl-C, points the pool never reached have no result;
			// that is interruption, not failure.
			if ctx.Err() != nil {
				fmt.Printf("%8g  %-28s  (not started: interrupted)\n", scales[i], jobs[i].Model)
				continue
			}
			failed = true
			fmt.Printf("%8g  %-28s  (failed)\n", scales[i], jobs[i].Model)
			continue
		}
		topIdx, topFrac := topOutcome(res)
		note := ""
		if res.Interrupted {
			note = "  (interrupted)"
		} else if res.TimedOut {
			note = "  (timed out)"
		}
		fmt.Printf("%8g  %-28s  %4d/%-4d  ±%.4f  %8s  |%0*b⟩ %5.1f%%%s\n",
			scales[i], jobs[i].Model, res.Runs, res.TargetRuns, res.ConfidenceRadius,
			res.Elapsed.Round(10e6), circ.NumQubits, topIdx, 100*topFrac, note)
	}
	if failed {
		fatal(err)
	}
}

// exactDistribution extracts the outcome distribution of an exact
// result (preferring the classical register when the circuit
// measures) as a sparse map.
func exactDistribution(res *ddsim.Result) map[uint64]float64 {
	if len(res.ClassicalProbs) > 0 {
		return res.ClassicalProbs
	}
	dist := make(map[uint64]float64, len(res.Probabilities))
	for i, p := range res.Probabilities {
		if p > 0 {
			dist[uint64(i)] = p
		}
	}
	return dist
}

// topOutcome returns the most frequent sampled outcome (preferring the
// classical register when the circuit measures) and its fraction.
func topOutcome(res *ddsim.Result) (uint64, float64) {
	if res.Exact {
		var best uint64
		bestP := -1.0
		for k, p := range exactDistribution(res) {
			if p > bestP || (p == bestP && k < best) {
				best, bestP = k, p
			}
		}
		if bestP < 0 {
			return 0, 0
		}
		return best, bestP
	}
	counts := res.Counts
	if len(res.ClassicalCounts) > 0 {
		counts = res.ClassicalCounts
	}
	var best uint64
	bestN, total := -1, 0
	for k, v := range counts {
		total += v
		if v > bestN || (v == bestN && k < best) {
			best, bestN = k, v
		}
	}
	if total == 0 {
		return 0, 0
	}
	return best, float64(bestN) / float64(total)
}

func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep scale %q", part)
		}
		if v < 0 {
			return nil, fmt.Errorf("sweep scale %v is negative", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return out, nil
}

func loadCircuit(qasmPath, name string, n int) (*ddsim.Circuit, error) {
	if qasmPath != "" {
		return ddsim.ParseQASMFile(qasmPath)
	}
	if name == "" {
		return nil, fmt.Errorf("either -qasm or -circuit is required")
	}
	b, err := qbench.ByName(name, n)
	if err != nil {
		return nil, err
	}
	return b.Circuit, nil
}

func printHistogram(res *ddsim.Result, n, top int) {
	counts := res.Counts
	title := "sampled final states"
	if len(res.ClassicalCounts) > 0 {
		counts = res.ClassicalCounts
		title = "classical register outcomes"
	}
	type kv struct {
		k uint64
		v int
	}
	var entries []kv
	total := 0
	for k, v := range counts {
		entries = append(entries, kv{k, v})
		total += v
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].v != entries[j].v {
			return entries[i].v > entries[j].v
		}
		return entries[i].k < entries[j].k
	})
	fmt.Printf("%s (%d distinct, showing up to %d):\n", title, len(entries), top)
	for i, e := range entries {
		if i >= top {
			break
		}
		frac := float64(e.v) / float64(total)
		bar := strings.Repeat("#", int(frac*40))
		fmt.Printf("  |%0*b⟩  %6.3f  %s\n", n, e.k, frac, bar)
	}
}

// printExactHistogram renders an exact outcome distribution the same
// way printHistogram renders sampled counts.
func printExactHistogram(res *ddsim.Result, n, top int) {
	title := "exact final-state probabilities"
	if len(res.ClassicalProbs) > 0 {
		title = "exact classical register probabilities"
	}
	if len(res.Probabilities) == 0 && len(res.ClassicalProbs) == 0 {
		fmt.Printf("full distribution not materialised for %d qubits (2^n values); use -mode exact with ≤16 qubits, or track specific states via the library's Options.TrackStates\n", n)
		return
	}
	type kv struct {
		k uint64
		v float64
	}
	var entries []kv
	for k, v := range exactDistribution(res) {
		if v > 1e-12 {
			entries = append(entries, kv{k, v})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].v != entries[j].v {
			return entries[i].v > entries[j].v
		}
		return entries[i].k < entries[j].k
	})
	fmt.Printf("%s (%d with weight >1e-12, showing up to %d):\n", title, len(entries), top)
	for i, e := range entries {
		if i >= top {
			break
		}
		bar := strings.Repeat("#", int(e.v*40))
		fmt.Printf("  |%0*b⟩  %8.6f  %s\n", n, e.k, e.v, bar)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqcsim:", err)
	os.Exit(1)
}
