// Package ddsim is a stochastic quantum circuit simulator based on
// decision diagrams — a from-scratch Go reproduction of
//
//	T. Grurl, R. Kueng, J. Fuß, R. Wille:
//	"Stochastic Quantum Circuit Simulation Using Decision Diagrams",
//	Design, Automation and Test in Europe (DATE), 2021.
//	arXiv:2012.05620
//
// The simulator executes noisy quantum circuits by sampling M
// independent stochastic trajectories (Monte Carlo): physically
// motivated errors — depolarising gate errors, amplitude-damping (T1)
// and phase-flip (T2) decoherence — fire probabilistically after each
// gate. Each trajectory represents the state as a decision diagram
// (compact whenever the state has structure), and trajectories are
// distributed across CPU cores, realising the paper's two key ideas.
//
// Three interchangeable engines are provided:
//
//   - BackendDD — the paper's proposal (decision diagrams);
//   - BackendStatevector — a dense state-vector baseline in the style
//     of IBM Qiskit's statevector simulator;
//   - BackendSparse — an operator-materialising "linear algebra"
//     baseline in the style of the Atos QLM LinAlg simulator.
//
// A fourth, exact engine evolves the full density matrix through the
// same noise channels — the paper's deterministic baseline, available
// both as the ExactProbabilities helper and as a first-class mode:
// Options.Mode = ModeExact routes Simulate/SimulateContext/
// BatchSimulate to a deterministic pass that returns the entire
// outcome distribution with zero sampling error (Result.Exact,
// Runs = 0). The engine runs ρ as a vector, vec(ρ), on 2n qubits of
// the trajectory backends: the state-vector backend holds it when the
// register has at most 10 qubits and the circuit measures nothing,
// the decision-diagram backend otherwise (up to 20 qubits);
// Result.ExactBackend says which ("density" or "ddensity").
// Measurements, resets and classically conditioned gates are handled
// exactly by probability-weighted branching over outcome histories.
//
// Quick start:
//
//	c := ddsim.GHZ(24)
//	res, err := ddsim.Simulate(c, ddsim.BackendDD, ddsim.PaperNoise(), ddsim.Options{Runs: 1000})
//	if err != nil { ... }
//	fmt.Println(res.SampleFraction(0)) // ≈ 0.5 minus noise losses
//
// # Jobs, cancellation and adaptive stopping
//
// SimulateContext runs the same Monte-Carlo job under a
// context.Context: cancelling the context stops issuing trajectories
// and returns a partial Result with Interrupted set. Setting
// Options.TargetAccuracy (with Options.TargetConfidence, default
// 0.95) enables adaptive stopping — the engine issues only as many
// trajectories as Theorem 1 requires for that accuracy, up to the
// Options.Runs budget; if the budget is too small for the target,
// Result.BudgetExhausted is set. Options.OnProgress delivers periodic
// Progress snapshots (runs completed, running estimates, current
// Theorem-1 confidence radius). For a fixed Options.Seed, work is
// dispatched in fixed chunks of the run-index space, run j always
// draws from its own random stream — a SplitMix64 generator whose
// state is mixed from all 64 bits of Seed and of j (stream v2,
// internal/stochastic/stream.go) — and partial sums are reduced in
// run order. So one worker reproduces itself bit for bit
// (TestOneWorkerDDReproducesItselfQFT16), and on the statevec and
// sparse backends and on cache-resident DDs results are bit-identical
// across worker counts (TestDeterminismAcrossWorkerCounts). A DD
// whose diagrams outgrow the compute caches (QFT-16 and up) rounds
// its weights by what each worker's package computed before, so its
// estimates can move in their last bits with the worker count: on
// QFT-20 under paper noise with crosstalk and idle noise, one and two
// workers sample identical histograms and their tracked estimates
// agree within 1e-9 relative (TestWorkerCountsAgreeQFT20).
//
// # Trajectory checkpointing
//
// Stochastic trajectories of the same job are identical until their
// first probabilistic event fires. The engine exploits this on every
// backend that can fork (dd and statevec): the noise-free circuit is
// simulated once per worker with a few snapshots along it — cheap for
// decision diagrams: the shared unique and compute tables are reused
// and only root-edge reference counts are bumped — and a trajectory
// draws the position of its next fired roll instead of rolling each
// one, forks from the nearest snapshot before its first event, and
// restores the final one when it has none. The path ends at the first
// measurement or reset; behind it every trajectory runs op by op,
// noisy or not. There is no switch: sparse jobs, and circuits whose
// first op is a measurement or reset (a path with nothing to share),
// replay the path instead, and Result.Checkpointed says which
// happened. Forked and replayed runs make the same draws. They are
// tested bit-equal on statevec; on dd, where a forked trajectory
// applies its gates as block products from its snapshot and a replayed
// one from the start, histograms are tested equal and estimates equal
// to 1e-12 relative (TestForkedMatchesReplay).
// /metrics and the CLI telemetry digests report prefix gates skipped,
// checkpoints taken, forks served and memory retained.
//
// # Batch simulation
//
// BatchSimulate runs a set of (circuit, noise-point) jobs — for
// example a noise-amplitude sweep of one circuit — through one shared
// worker pool instead of looping over Simulate calls, keeping every
// core busy across job boundaries:
//
//	jobs := []ddsim.BatchJob{
//		{Circuit: c, Model: ddsim.NoNoise(), Opts: ddsim.Options{Runs: 1000}},
//		{Circuit: c, Model: ddsim.PaperNoise(), Opts: ddsim.Options{Runs: 1000}},
//	}
//	results, err := ddsim.BatchSimulate(ctx, ddsim.BackendDD, jobs, 0)
//
// Each job's result matches a standalone Simulate call with the same
// seed wherever Simulate's results do not depend on the worker count
// (TestBatchSimulateNoiseSweep checks it bit for bit).
//
// # Tools, service and telemetry
//
// Beyond the library, the module ships cmd/sqcsim (one-shot CLI with
// sweeps and adaptive stopping), cmd/benchtab (regenerates the
// paper's evaluation tables), cmd/ddview (decision diagrams as
// Graphviz DOT) and cmd/ddsimd — a long-running HTTP/JSON service
// exposing job submission, server-sent progress events, cancellation
// with partial results, and Prometheus metrics (trajectory
// throughput, per-backend wall time, decision-diagram table hit
// rates) at /metrics. See README.md and docs/ARCHITECTURE.md.
package ddsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/exact"
	"ddsim/internal/noise"
	"ddsim/internal/obs"
	"ddsim/internal/qasm"
	"ddsim/internal/sim"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
	"ddsim/internal/stochastic"
)

// Re-exported core types. The underlying packages live in internal/;
// these aliases are the public API surface.
type (
	// Circuit is the backend-independent circuit IR.
	Circuit = circuit.Circuit
	// Op is one circuit operation.
	Op = circuit.Op
	// Control is a (possibly negative) gate control.
	Control = circuit.Control
	// NoiseModel carries the three per-gate error probabilities.
	NoiseModel = noise.Model
	// Options configures a stochastic simulation.
	Options = stochastic.Options
	// Result aggregates a stochastic simulation.
	Result = stochastic.Result
	// Progress is a periodic snapshot of a running simulation,
	// delivered to Options.OnProgress.
	Progress = stochastic.Progress
	// BatchJob is one (circuit, noise-point) unit of work for
	// BatchSimulate.
	BatchJob = stochastic.Job
	// Backend is a compiled simulation engine instance.
	Backend = sim.Backend
	// Device is a calibrated device description: per-qubit T1/T2
	// times and per-gate error rates, loaded from JSON
	// (LoadDevice/ParseDevice) and attached via NoiseModel.Device.
	Device = noise.Device
	// DeviceQubit is one qubit's calibration inside a Device.
	DeviceQubit = noise.DeviceQubit
	// Crosstalk is a correlated two-qubit Pauli channel applied after
	// every two-qubit gate (NoiseModel.Crosstalk).
	Crosstalk = noise.Crosstalk
	// IdleNoise is time-dependent decoherence on idling qubits, keyed
	// to circuit moments (NoiseModel.Idle).
	IdleNoise = noise.IdleNoise
)

// LoadDevice reads and validates a calibrated device description from
// a JSON file (see docs/API.md for the schema).
func LoadDevice(path string) (*Device, error) { return noise.LoadDevice(path) }

// ParseDevice parses and validates a device description from JSON.
func ParseDevice(data []byte) (*Device, error) { return noise.ParseDevice(data) }

// Backend identifiers accepted by Simulate and NewBackend.
const (
	BackendDD          = "dd"
	BackendStatevector = "statevec"
	BackendSparse      = "sparse"
)

// Simulation modes accepted by Options.Mode. ModeStochastic (the
// default, also selected by an empty Mode) samples Monte-Carlo
// trajectories on the chosen backend; ModeExact evolves the full
// density matrix deterministically through the same circuit/noise
// pipeline and returns exact probabilities (Result.Exact set,
// Runs = 0) — the paper's baseline alternative, available as a
// first-class engine. Exact-mode measurements, resets and classically
// conditioned gates are handled by probability-weighted branching
// over outcome histories (see internal/exact).
const (
	ModeStochastic = stochastic.ModeStochastic
	ModeExact      = stochastic.ModeExact
)

// Backends lists the available engine identifiers.
func Backends() []string {
	return []string{BackendDD, BackendStatevector, BackendSparse}
}

// Factory returns the backend factory for an engine identifier.
func Factory(backend string) (sim.Factory, error) {
	switch backend {
	case BackendDD:
		return ddback.Factory(), nil
	case BackendStatevector:
		return statevec.Factory(), nil
	case BackendSparse:
		return sparsemat.Factory(), nil
	default:
		return nil, fmt.Errorf("ddsim: unknown backend %q (want %v)", backend, Backends())
	}
}

// NewCircuit creates an empty circuit on n qubits. Qubit 0 is the
// most significant qubit, as in the paper's figures.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// GHZ builds the paper's Entanglement benchmark circuit.
func GHZ(n int) *Circuit { return circuit.GHZ(n) }

// QFT builds the Quantum Fourier Transform benchmark circuit.
func QFT(n int) *Circuit { return circuit.QFT(n) }

// ParseQASM compiles OpenQASM 2.0 source text into a circuit.
func ParseQASM(name, src string) (*Circuit, error) { return qasm.Parse(name, src) }

// ParseQASMFile compiles an OpenQASM 2.0 file into a circuit.
func ParseQASMFile(path string) (*Circuit, error) { return qasm.ParseFile(path) }

// WriteQASM renders a circuit as OpenQASM 2.0 source.
func WriteQASM(c *Circuit) (string, error) { return qasm.Write(c) }

// PaperNoise returns the error rates used in the paper's evaluation:
// 0.1 % depolarising, 0.2 % amplitude damping, 0.1 % phase flip.
func PaperNoise() NoiseModel { return noise.PaperDefaults() }

// NoNoise returns the error-free model.
func NoNoise() NoiseModel { return NoiseModel{} }

// Simulate runs the stochastic Monte-Carlo simulation of a circuit on
// the selected backend. With a zero noise model and Runs = 1 it acts
// as a plain (noise-free) simulator.
func Simulate(c *Circuit, backend string, model NoiseModel, opts Options) (*Result, error) {
	return SimulateContext(context.Background(), c, backend, model, opts)
}

// SimulateContext is Simulate under a context: cancelling ctx stops
// issuing trajectories and returns the partial Result aggregated so
// far with Interrupted set (or an error if no trajectory completed).
// With Options.Mode = ModeExact the job runs on the deterministic
// density-matrix engine instead (the backend argument still selects
// the stochastic engine and is validated, but takes no part in an
// exact simulation); cancelling an exact job returns an error, since
// a partial density-matrix pass has no meaningful value.
func SimulateContext(ctx context.Context, c *Circuit, backend string, model NoiseModel, opts Options) (*Result, error) {
	f, err := Factory(backend)
	if err != nil {
		return nil, err
	}
	if opts.Mode == ModeExact {
		return exact.RunContext(ctx, c, model, opts)
	}
	return stochastic.RunContext(ctx, c, f, model, opts)
}

// BatchSimulate runs a set of (circuit, noise-point) jobs through one
// shared worker pool of the given size (0 means GOMAXPROCS) on the
// selected backend — the engine for noise sweeps and other multi-point
// workloads. The returned slice is indexed like jobs; failed jobs have
// a nil entry and contribute to the joined error while the remaining
// jobs still complete. Per-job options (seed, runs, adaptive stopping,
// progress callbacks) apply independently, and each job's result
// matches a standalone Simulate call with the same seed wherever
// Simulate's results do not depend on the worker count
// (TestBatchSimulateNoiseSweep).
// A batch runs on one engine: every job has Opts.Mode = ModeExact,
// and the batch runs on the density-matrix engine's pool, or none
// has, and it runs on the trajectory engine's. A batch whose jobs
// disagree is refused before any job runs; submit each mode as a
// batch of its own.
func BatchSimulate(ctx context.Context, backend string, jobs []BatchJob, workers int) ([]*Result, error) {
	f, err := Factory(backend)
	if err != nil {
		return nil, err
	}
	exactMode := len(jobs) > 0 && jobs[0].Opts.Mode == ModeExact
	for i := range jobs {
		if (jobs[i].Opts.Mode == ModeExact) != exactMode {
			return nil, fmt.Errorf("ddsim: batch mixes exact and stochastic jobs (job %d and job 0 disagree on ModeExact); submit each mode as a batch of its own", i)
		}
	}
	if exactMode {
		return exact.RunBatch(ctx, jobs, workers)
	}
	return stochastic.RunBatch(ctx, f, jobs, workers)
}

// JobKey returns the canonical content-addressed identity of a
// stochastic simulation job: a hex-encoded SHA-256 over the circuit's
// canonical OpenQASM text (WriteQASM; Write∘Parse is a fixpoint, so
// equivalent submissions hash equally regardless of formatting), the
// backend identifier, every noise point of the job (a sweep passes
// all its scaled models, a single run a one-element slice), and the
// result-relevant options in canonical form (Options.Canonical —
// Workers and the progress knobs are excluded: they change how the
// work is scheduled, not the distribution it samples).
//
// Run j always draws from the stream of (Seed, j) and reductions
// happen in run order, so two jobs with equal keys sample the same
// trajectories, and their Results are equal wherever the engine's
// results do not depend on the worker count (see Simulate). That
// makes the key safe to use for result caching and in-flight
// deduplication (the ddsimd service does both from its job table; see
// cmd/ddsimd's resolve): a cached answer is one the job could have
// computed. A key is stable
// within one build only: it is never persisted or sent over the wire,
// so the serialisation may change freely between builds. Circuits
// containing an op the QASM writer cannot express return an error;
// such jobs simply have no canonical identity and must not be cached.
func JobKey(c *Circuit, backend string, models []NoiseModel, opts Options) (string, error) {
	src, err := WriteQASM(c)
	if err != nil {
		return "", fmt.Errorf("ddsim: job key: %w", err)
	}
	o := opts.Canonical()
	// An exact-mode result does not depend on which stochastic backend
	// the caller happened to name: canonicalise it away so identical
	// exact submissions hit the cache across backend spellings.
	if o.Mode == ModeExact {
		backend = "-"
	}
	// Every field is always written, in this order, and every string
	// carries its length, so no caller-supplied value (a backend name,
	// a device gate name) can pass for a field boundary.
	h := sha256.New()
	fmt.Fprintf(h, "ddsim-jobkey\nbackend=%d:%s\nqasm=%d:%s\nmode=%d:%s\n",
		len(backend), backend, len(src), src, len(o.Mode), o.Mode)
	fmt.Fprintf(h, "runs=%d\nseed=%d\nshots=%d\nfidelity=%t\ntimeout=%d\naccuracy=%.17g\nconfidence=%.17g\nchunk=%d\n",
		o.Runs, o.Seed, o.Shots, o.TrackFidelity, int64(o.Timeout),
		o.TargetAccuracy, o.TargetConfidence, o.ChunkSize)
	for _, t := range o.TrackStates {
		fmt.Fprintf(h, "track=%d\n", t)
	}
	for _, m := range models {
		s := m.Canonical()
		fmt.Fprintf(h, "noise=%d:%s\n", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// NewBackend compiles a circuit for one backend and returns the
// engine holding state |0…0⟩, for callers that want gate-by-gate
// control rather than whole-circuit Monte Carlo.
func NewBackend(c *Circuit, backend string) (Backend, error) {
	f, err := Factory(backend)
	if err != nil {
		return nil, err
	}
	return f(c)
}

// ExactProbabilities evolves the exact density matrix of the circuit
// under the same noise model (channels instead of sampling) on the
// exact engine and returns all 2^n basis-state probabilities. Limited
// to registers of at most 16 qubits — this is precisely the
// exponential blow-up the stochastic approach avoids, kept here as
// ground truth.
func ExactProbabilities(c *Circuit, model NoiseModel) ([]float64, error) {
	if c != nil && c.NumQubits > exact.MaxProbQubits {
		return nil, fmt.Errorf("ddsim: exact probabilities of %d qubits exceed the %d-qubit limit", c.NumQubits, exact.MaxProbQubits)
	}
	res, err := exact.Run(c, model, Options{Mode: ModeExact})
	if err != nil {
		return nil, err
	}
	return res.Probabilities, nil
}

// RequiredRuns returns the number of Monte-Carlo trajectories that
// Theorem 1 of the paper requires to estimate `properties` quadratic
// properties with accuracy eps and confidence 1−delta.
func RequiredRuns(properties int, eps, delta float64) (int, error) {
	return obs.SampleCount(properties, eps, delta)
}

// EstimateAccuracy inverts Theorem 1: the accuracy guaranteed by M
// runs for `properties` properties at confidence 1−delta.
func EstimateAccuracy(runs, properties int, delta float64) float64 {
	return obs.ConfidenceRadius(runs, properties, delta)
}
