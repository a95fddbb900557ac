package main

import (
	"fmt"
	"math"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/noise"
)

// workload pins one benchmark workload: the circuit family and size,
// the noise model, the backend, the job size and the block structure of
// the timed phase. The runner, WORKLOADS.md (through the doc test) and
// BENCHMARK.json (through the name test) all read this one table, so a
// size can only change in one place. Neither job sizes nor repetition
// counts are ever scaled by elapsed time.
type workload struct {
	Name    string
	Family  string // "ghz" or "qft"
	Qubits  int
	Backend string
	Noise   string // "paper" or "paper+xtalk+idle"
	Runs    int    // trajectories per job (the paper's M on ghz64_dd)
	Block   int    // jobs per block; the service's 2-client blocks hold Block jobs per client
	Jobs    int    // timed jobs per mode (per client on the service), a multiple of Block
	Service bool   // drive cmd/ddsimd as a subprocess instead of the library
	Why     string // one line, copied into BENCHMARK.json
}

// runSeconds is BENCHMARK.json's run_seconds, the default of -seconds:
// about what the Jobs column takes on the box it was calibrated on. The
// DD workloads' counts were cut from the issue's 32/28 so that all the
// driver's runs fit its time budget under neighbour load too; none is
// below the 20 samples a headline timing needs.
const runSeconds = 20

// minSamples is the fewest timed jobs per mode a headline timing may
// come from.
const minSamples = 20

var workloads = []workload{
	{Name: "ghz64_dd", Family: "ghz", Qubits: 64, Backend: ddsim.BackendDD, Noise: "paper",
		Runs: 30000, Block: 4, Jobs: 20,
		Why: "cache-resident DDs at the paper's M=30000: per-trajectory engine overhead and unique-table hits dominate"},
	{Name: "qft24_dd", Family: "qft", Qubits: 24, Backend: ddsim.BackendDD, Noise: "paper",
		Runs: 6000, Block: 4, Jobs: 20,
		Why: "node creation, weight interning, compute-cache conflicts and DD GC on the legacy uniform-noise path"},
	{Name: "qft24_dd_xnoise", Family: "qft", Qubits: 24, Backend: ddsim.BackendDD, Noise: "paper+xtalk+idle",
		Runs: 3000, Block: 4, Jobs: 20,
		Why: "same kernel through the planned noise path (noise.Plan, ApplyKraus2, circuit.Moments), so a gain for one path that costs the other shows"},
	{Name: "qft14_statevec", Family: "qft", Qubits: 14, Backend: ddsim.BackendStatevector, Noise: "paper",
		Runs: 100, Block: 4, Jobs: 28,
		Why: "bypasses dd, cnum and swiss entirely: a DD-kernel change must not move it, an engine or noise change must"},
	{Name: "svc_small_jobs", Family: "qft", Qubits: 10, Backend: ddsim.BackendDD, Noise: "paper",
		Runs: 256, Block: 100, Jobs: 800, Service: true,
		Why: "ddsimd subprocess, closed-loop small jobs that all miss the result cache: parse, JobKey, admission, ring, WAL fsync and SSE dominate"},
}

// twinQubits and twinRuns size the small copy of every workload that
// is checked against the exact density-matrix engine.
const (
	twinQubits = 6
	twinRuns   = 4000
)

// timedBlocks is the number of timed blocks per mode of an untraced
// run. The driver always passes run_seconds, which gives the pinned
// Jobs exactly; a longer -seconds adds blocks in proportion, a shorter
// one never goes below the pinned count. Elapsed time plays no part.
func (w workload) timedBlocks(seconds float64) int {
	base := w.Jobs / w.Block
	return max(base, int(float64(base)*seconds/runSeconds))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// build makes the workload's circuit on n qubits.
func (w workload) build(n int) *circuit.Circuit {
	if w.Family == "ghz" {
		return circuit.GHZ(n)
	}
	return circuit.QFT(n)
}

// model makes the workload's noise model.
func (w workload) model() noise.Model {
	m := noise.PaperDefaults()
	if w.Noise == "paper+xtalk+idle" {
		m.Crosstalk = &noise.Crosstalk{Strength: 0.002, ZZBias: 0.5}
		m.Idle = &noise.IdleNoise{Damping: 0.0005, Dephasing: 0.0005}
	}
	return m
}

// tracked lists the basis states whose probabilities every job
// estimates: |0…0⟩ everywhere, and |1…1⟩ too on GHZ, where the two
// carry all the weight.
func (w workload) tracked(n int) []uint64 {
	if w.Family == "ghz" {
		return []uint64{0, math.MaxUint64 >> uint(64-n)}
	}
	return []uint64{0}
}

// docRow is the workload's row in WORKLOADS.md; the doc test checks
// that the file holds exactly this text for every workload.
func (w workload) docRow() string {
	return fmt.Sprintf("| `%s` | %s(%d) | %s | %s | %d | %d | %d |",
		w.Name, w.Family, w.Qubits, w.Backend, w.Noise, w.Runs, w.Block, w.Jobs)
}
