// Command benchtab regenerates the paper's evaluation tables (Ia:
// Entanglement, Ib: QFT, Ic: QASMBench selection) with all three
// simulation backends. Absolute runtimes are scaled — configurable M
// and per-cell budget instead of 30000 runs and a 1-hour timeout — but
// the comparison structure (who completes, who times out first, the
// relative ordering) reproduces the paper's tables.
//
// Examples:
//
//	benchtab -table 1a
//	benchtab -table all -runs 50 -budget 10s
//
// Adaptive stopping (-accuracy, with -confidence) sizes each cell by
// the paper's Theorem 1 instead of always burning -runs trajectories:
//
//	benchtab -table 1b -runs 30000 -accuracy 0.05 -confidence 0.95
//
// Trajectory checkpointing (-checkpoint auto|on|off, default auto)
// toggles the engine's deterministic-prefix fork optimisation, so A/B
// runs isolate its effect; same-seed cells are bit-identical either
// way. Machine-readable output (-json PATH) writes every regenerated
// table plus run parameters and a telemetry digest (gates applied,
// gates skipped via checkpoints, forks served) as one JSON document —
// the format consumed by the CI benchmark job (BENCH_pr.json):
//
//	benchtab -table all -runs 10 -budget 5s -quiet -json BENCH_pr.json
//
// Exact mode (-mode exact) measures the deterministic density-matrix
// engine instead of the stochastic one: each cell is one exact pass,
// with one column per representation (-exact-backend ddensity,
// density, or empty for both) — the paper's stochastic-versus-
// deterministic trade-off regenerated on the same workloads:
//
//	benchtab -table 1a -mode exact -sizes-1a 6,8,10,12,14
//
// Ctrl-C interrupts cleanly: finished cells keep their numbers,
// interrupted cells are marked, -json still writes the partial tables
// (flagged "interrupted"), and the exit status is 130. Unless -quiet
// is set, a final telemetry digest (trajectories simulated,
// decision-diagram table hit rates) is printed to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"ddsim"
	"ddsim/internal/noise"
	"ddsim/internal/qbench"
	"ddsim/internal/sim"
	"ddsim/internal/telemetry"
)

func main() {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 1a, 1b, 1c, ext (extended families), all")
		runs       = flag.Int("runs", 30, "stochastic runs per cell (paper: 30000)")
		budget     = flag.Duration("budget", 0, "per-cell time budget (paper: 1h); 0 picks a default")
		workers    = flag.Int("workers", 0, "concurrent workers (0 = all cores)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		accuracy   = flag.Float64("accuracy", 0, "adaptive stopping per cell: run only the trajectories Theorem 1 requires for this ε (0 = always run -runs)")
		confidence = flag.Float64("confidence", 0.95, "confidence level 1−δ for -accuracy")
		checkpoint = flag.String("checkpoint", ddsim.CheckpointAuto, "trajectory checkpointing per cell: auto, on (fails backends without fork support), off; cells are bit-identical either way")
		mode       = flag.String("mode", ddsim.ModeStochastic, "engine per cell: stochastic (Monte-Carlo over the three backends) or exact (deterministic density-matrix passes)")
		exactBack  = flag.String("exact-backend", "", "exact-mode representation column(s): ddensity, density, or empty for both")
		jsonPath   = flag.String("json", "", "also write the regenerated tables and a telemetry digest as JSON to this path (the BENCH_pr.json format)")
		sizesA     = flag.String("sizes-1a", "8,12,16,20,22,24,28,32,48,64", "entanglement qubit counts")
		sizesB     = flag.String("sizes-1b", "8,10,12,14,16,18,20,24,28,32", "QFT qubit counts")
		devicePath = flag.String("device", "", "calibrated device description (JSON); must calibrate at least as many qubits as the largest benchmarked circuit")
		twirl      = flag.Bool("twirl", false, "replace each channel with its Pauli-twirled approximation")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *budget == 0 {
		*budget = qbench.DefaultBudget
	}
	switch *mode {
	case ddsim.ModeStochastic, ddsim.ModeExact:
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown mode %q (want %s or %s)\n",
			*mode, ddsim.ModeStochastic, ddsim.ModeExact)
		os.Exit(1)
	}
	var exactBackends []string
	if *exactBack != "" {
		for _, b := range strings.Split(*exactBack, ",") {
			b = strings.TrimSpace(b)
			valid := false
			for _, known := range ddsim.ExactBackends() {
				valid = valid || b == known
			}
			if !valid {
				fmt.Fprintf(os.Stderr, "benchtab: unknown exact backend %q (want %s)\n",
					b, strings.Join(ddsim.ExactBackends(), " or "))
				os.Exit(1)
			}
			exactBackends = append(exactBackends, b)
		}
	}
	model := noise.PaperDefaults()
	if *devicePath != "" {
		dev, err := noise.LoadDevice(*devicePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		model.Device = dev
	}
	if *twirl {
		model = model.Twirl()
	}
	runner := &qbench.Runner{
		Backends: []qbench.NamedFactory{
			{Name: "proposed(dd)", Factory: mustFactory(ddsim.BackendDD)},
			{Name: "statevec", Factory: mustFactory(ddsim.BackendStatevector)},
			{Name: "sparse-la", Factory: mustFactory(ddsim.BackendSparse)},
		},
		Model:            model,
		Runs:             *runs,
		Budget:           *budget,
		Workers:          *workers,
		Seed:             *seed,
		Context:          ctx,
		TargetAccuracy:   *accuracy,
		TargetConfidence: *confidence,
		Checkpointing:    *checkpoint,
		Mode:             *mode,
		ExactBackends:    exactBackends,
	}
	if !*quiet {
		runner.Verbose = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "· "+format+"\n", args...)
		}
	}

	if *mode == ddsim.ModeExact {
		fmt.Printf("exact deterministic simulation: one density-matrix pass/cell, budget=%s/cell, noise %s\n\n",
			*budget, model)
	} else {
		fmt.Printf("stochastic noisy simulation: M=%d runs/cell, budget=%s/cell, noise %s, checkpointing %s\n\n",
			*runs, *budget, model, *checkpoint)
	}

	var tables []*qbench.Table
	collect := func(t *qbench.Table) {
		tables = append(tables, t)
		fmt.Println(t.Format())
	}
	switch *table {
	case "1a":
		collect(runner.RunScalable("Table Ia — Entanglement (GHZ) circuits", parseSizes(*sizesA), qbench.GHZ))
	case "1b":
		collect(runner.RunScalable("Table Ib — QFT circuits", parseSizes(*sizesB), qbench.QFT))
	case "1c":
		collect(runner.RunFixed("Table Ic — QASMBench-style circuits", qbench.TableIc()))
	case "ext":
		collect(runner.RunFixed("Extended QASMBench-style families (beyond the paper's selection)", qbench.Extended()))
	case "all":
		collect(runner.RunScalable("Table Ia — Entanglement (GHZ) circuits", parseSizes(*sizesA), qbench.GHZ))
		collect(runner.RunScalable("Table Ib — QFT circuits", parseSizes(*sizesB), qbench.QFT))
		collect(runner.RunFixed("Table Ic — QASMBench-style circuits", qbench.TableIc()))
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown table %q (want 1a, 1b, 1c, ext, all)\n", *table)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, runner, tables, ctx.Err() != nil); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "telemetry: %s\n", telemetry.Summary())
	}
	if ctx.Err() != nil {
		// Interrupted cells were reported as errors in the tables; make
		// the partial regeneration visible to scripts too.
		fmt.Fprintln(os.Stderr, "benchtab: interrupted, tables are partial")
		os.Exit(130)
	}
}

func mustFactory(name string) sim.Factory {
	f, err := ddsim.Factory(name)
	if err != nil {
		panic(err)
	}
	return f
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: bad size %q\n", part)
			os.Exit(1)
		}
		out = append(out, n)
	}
	return out
}

// The machine-readable report format (-json): one self-describing
// document per benchtab invocation, stable enough to diff between PRs
// (the CI benchmark job uploads it as BENCH_pr.json).
type jsonReport struct {
	GoVersion     string      `json:"go_version"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Runs          int         `json:"runs"`
	BudgetNS      int64       `json:"budget_ns"`
	Seed          int64       `json:"seed"`
	Accuracy      float64     `json:"accuracy,omitempty"`
	Checkpointing string      `json:"checkpointing"`
	Mode          string      `json:"mode,omitempty"`
	ExactBackends []string    `json:"exact_backends,omitempty"`
	Interrupted   bool        `json:"interrupted,omitempty"`
	Tables        []jsonTable `json:"tables"`
	// Telemetry is the process-wide counter digest after all cells
	// ran: trajectories, gate applications, checkpoint effect, DD
	// table activity.
	Telemetry map[string]int64 `json:"telemetry"`
}

type jsonTable struct {
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
}

type jsonRow struct {
	Name  string     `json:"name"`
	N     int        `json:"n"`
	Cells []jsonCell `json:"cells"`
}

type jsonCell struct {
	// Status is one of ok, timeout, skipped, error.
	Status  string  `json:"status"`
	Seconds float64 `json:"seconds,omitempty"`
	Error   string  `json:"error,omitempty"`
	// AllocsPerOp/BytesPerOp are runtime.MemStats deltas per trajectory
	// for ok cells — the allocation signal that holds when wall time on
	// a busy host does not.
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

func cellStatus(s qbench.CellStatus) string {
	switch s {
	case qbench.CellOK:
		return "ok"
	case qbench.CellTimeout:
		return "timeout"
	case qbench.CellSkipped:
		return "skipped"
	default:
		return "error"
	}
}

func writeJSON(path string, r *qbench.Runner, tables []*qbench.Table, interrupted bool) error {
	rep := jsonReport{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Runs:          r.Runs,
		BudgetNS:      int64(r.Budget),
		Seed:          r.Seed,
		Accuracy:      r.TargetAccuracy,
		Checkpointing: r.Checkpointing,
		Mode:          r.Mode,
		ExactBackends: r.ExactBackends,
		Interrupted:   interrupted,
		Telemetry: map[string]int64{
			"trajectories":               telemetry.Trajectories.Value(),
			"gate_applications":          telemetry.GateApplications.Value(),
			"checkpoint_gates_skipped":   telemetry.CheckpointGatesSkipped.Value(),
			"checkpoint_forks":           telemetry.CheckpointForks.Value(),
			"checkpoints_prefix":         telemetry.CheckpointsTaken.With("prefix").Value(),
			"dd_nodes_created":           telemetry.DDNodesCreated.Value(),
			"dd_peak_nodes":              telemetry.DDPeakNodes.Value(),
			"dd_gc_runs":                 telemetry.DDGCRuns.Value(),
			"exact_channel_applications": telemetry.ExactChannelApplications.Value(),
			"exact_peak_branches":        telemetry.ExactBranches.Value(),
			"exact_peak_dd_nodes":        telemetry.ExactDDNodes.Value(),
		},
	}
	for _, t := range tables {
		jt := jsonTable{Title: t.Title, Columns: t.Columns}
		for _, row := range t.Rows {
			jr := jsonRow{Name: row.Label, N: row.N}
			for _, c := range row.Cells {
				jr.Cells = append(jr.Cells, jsonCell{
					Status:      cellStatus(c.Status),
					Seconds:     c.Elapsed.Seconds(),
					Error:       c.Err,
					AllocsPerOp: c.AllocsPerOp,
					BytesPerOp:  c.BytesPerOp,
				})
			}
			jt.Rows = append(jt.Rows, jr)
		}
		rep.Tables = append(rep.Tables, jt)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
