package qbench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ddsim/internal/exact"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/stochastic"
)

// DefaultBudget is the default per-cell time budget used by the
// regeneration tooling — the scaled-down analogue of the paper's
// 1-hour timeout.
const DefaultBudget = 5 * time.Second

// CellStatus classifies one table cell.
type CellStatus int

// The cell states, mirroring the paper's table annotations.
const (
	CellOK      CellStatus = iota // completed within budget
	CellTimeout                   // exceeded the budget (">3600" in the paper)
	CellSkipped                   // skipped: a smaller size already timed out
	CellError                     // backend cannot run the workload (cf. QLM and OpenQASM)
)

// Cell is one (workload, simulator) measurement.
type Cell struct {
	Status  CellStatus
	Elapsed time.Duration
	Err     string
	// AllocsPerOp/BytesPerOp are runtime.MemStats deltas across the
	// cell (Mallocs, TotalAlloc) divided by the trajectory count — the
	// allocation-footprint signal the bench ratchet gates on, which is
	// far more stable than wall time on noisy runners. Zero on cells
	// that did not complete.
	AllocsPerOp int64
	BytesPerOp  int64
}

// String renders the cell the way Table I does.
func (c Cell) String() string {
	switch c.Status {
	case CellOK:
		return fmt.Sprintf("%.2f", c.Elapsed.Seconds())
	case CellTimeout:
		return ">budget"
	case CellSkipped:
		return ">budget*"
	default:
		return "n/a"
	}
}

// Row is one workload's measurements across all simulators.
type Row struct {
	Label string
	N     int
	Cells []Cell
}

// Table is a full reproduction of one of the paper's tables.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// NamedFactory pairs a simulator label with its backend factory.
type NamedFactory struct {
	Name    string
	Factory sim.Factory
}

// Runner drives table regeneration. The per-cell Budget plays the
// role of the paper's 1-hour timeout (scaled to interactive budgets),
// and Runs scales the paper's M = 30000 down to something a laptop
// regenerates in minutes while preserving every between-simulator
// runtime ratio (all simulators pay the same factor M).
type Runner struct {
	Backends []NamedFactory
	Model    noise.Model
	Runs     int
	Budget   time.Duration
	Workers  int
	Seed     int64
	// Context, when set, cancels in-flight cells (e.g. on Ctrl-C);
	// interrupted cells are reported as errors.
	Context context.Context
	// TargetAccuracy/TargetConfidence, when set, enable the engine's
	// adaptive stopping per cell: each simulator runs only as many
	// trajectories as Theorem 1 requires, capped by Runs.
	TargetAccuracy   float64
	TargetConfidence float64
	// Checkpointing selects the engine's trajectory checkpoint/fork
	// mode per cell ("auto", "on", "off"; empty means auto). Same-seed
	// cells are bit-identical in every mode — only runtimes move.
	Checkpointing string
	// Mode selects the engine for every cell: "" or
	// stochastic.ModeStochastic runs the Monte-Carlo engine over
	// Backends; stochastic.ModeExact runs one deterministic
	// density-matrix pass per cell over ExactBackends instead, so the
	// regenerated table compares the paper's proposal against its
	// deterministic baseline on the same workloads.
	Mode string
	// ExactBackends lists the exact-mode representations measured as
	// columns (defaults to ddensity then density). Only consulted in
	// exact mode.
	ExactBackends []string
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...interface{})
}

// engineCol is one table column: either a stochastic backend factory
// or an exact-mode density-matrix representation.
type engineCol struct {
	name    string
	factory sim.Factory // stochastic mode
	exact   string      // exact mode
}

// engines returns the measured columns for the configured mode.
func (r *Runner) engines() []engineCol {
	if r.Mode == stochastic.ModeExact {
		backs := r.ExactBackends
		if len(backs) == 0 {
			backs = []string{stochastic.ExactDDensity, stochastic.ExactDensity}
		}
		cols := make([]engineCol, len(backs))
		for i, b := range backs {
			cols[i] = engineCol{name: "exact(" + b + ")", exact: b}
		}
		return cols
	}
	cols := make([]engineCol, len(r.Backends))
	for i, b := range r.Backends {
		cols[i] = engineCol{name: b.Name, factory: b.Factory}
	}
	return cols
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Verbose != nil {
		r.Verbose(format, args...)
	}
}

// columns returns the simulator labels.
func (r *Runner) columns() []string {
	engines := r.engines()
	cols := make([]string, len(engines))
	for i, e := range engines {
		cols[i] = e.name
	}
	return cols
}

// measure runs one cell on one engine column.
func (r *Runner) measure(b Benchmark, col engineCol) Cell {
	ctx := r.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *stochastic.Result
	var err error
	if col.exact != "" {
		res, err = exact.RunContext(ctx, b.Circuit, r.Model, stochastic.Options{
			Mode:         stochastic.ModeExact,
			ExactBackend: col.exact,
			Timeout:      r.Budget,
		})
	} else {
		// Mode passes through so an unknown value fails the cell loudly
		// (stochastic.ValidateMode) instead of silently sampling.
		res, err = stochastic.RunContext(ctx, b.Circuit, col.factory, r.Model, stochastic.Options{
			Mode:             r.Mode,
			Runs:             r.Runs,
			Workers:          r.Workers,
			Seed:             r.Seed,
			Timeout:          r.Budget,
			TargetAccuracy:   r.TargetAccuracy,
			TargetConfidence: r.TargetConfidence,
			Checkpointing:    r.Checkpointing,
		})
	}
	if err != nil {
		if ctx.Err() != nil {
			return Cell{Status: CellError, Err: "interrupted"}
		}
		return Cell{Status: CellError, Err: err.Error()}
	}
	if res.Interrupted {
		return Cell{Status: CellError, Err: "interrupted"}
	}
	if res.TimedOut {
		return Cell{Status: CellTimeout, Elapsed: res.Elapsed}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ops := int64(res.Runs)
	if ops <= 0 {
		ops = 1 // exact mode: one deterministic pass per cell
	}
	return Cell{
		Status:      CellOK,
		Elapsed:     res.Elapsed,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / ops,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / ops,
	}
}

// RunScalable reproduces a Table Ia/Ib-style sweep: one circuit
// family at increasing sizes. Once a simulator times out (or errors)
// at some size, larger sizes are skipped for it and reported as
// ">budget*", exactly as the paper's tables propagate ">3600".
func (r *Runner) RunScalable(title string, sizes []int, gen func(n int) Benchmark) *Table {
	engines := r.engines()
	t := &Table{Title: title, Columns: r.columns()}
	dead := make([]bool, len(engines))
	for _, n := range sizes {
		b := gen(n)
		row := Row{Label: b.Name, N: n, Cells: make([]Cell, len(engines))}
		for i, col := range engines {
			if dead[i] {
				row.Cells[i] = Cell{Status: CellSkipped}
				continue
			}
			r.logf("%s: n=%d %s", title, n, col.name)
			cell := r.measure(b, col)
			if cell.Status == CellTimeout || cell.Status == CellError {
				dead[i] = true
			}
			row.Cells[i] = cell
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RunFixed reproduces a Table Ic-style list of independent workloads.
func (r *Runner) RunFixed(title string, benches []Benchmark) *Table {
	engines := r.engines()
	t := &Table{Title: title, Columns: r.columns()}
	for _, b := range benches {
		row := Row{Label: b.Name, N: b.Circuit.NumQubits, Cells: make([]Cell, len(engines))}
		for i, col := range engines {
			r.logf("%s: %s %s", title, b.Name, col.name)
			row.Cells[i] = r.measure(b, col)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Format renders the table as aligned text, in the layout of Table I:
// one row per workload, one runtime column per simulator (seconds).
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Columns)+2)
	widths[0] = len("name")
	widths[1] = len("n")
	for i, c := range t.Columns {
		widths[i+2] = len(c + " [s]")
	}
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
		if w := len(fmt.Sprint(r.N)); w > widths[1] {
			widths[1] = w
		}
		for i, c := range r.Cells {
			if w := len(c.String()); w > widths[i+2] {
				widths[i+2] = w
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	header := []string{"name", "n"}
	for _, c := range t.Columns {
		header = append(header, c+" [s]")
	}
	line(header)
	for _, r := range t.Rows {
		cells := []string{r.Label, fmt.Sprint(r.N)}
		for _, c := range r.Cells {
			cells = append(cells, c.String())
		}
		line(cells)
	}
	b.WriteString("(>budget: exceeded the per-cell time budget; >budget*: skipped, smaller size already exceeded it; n/a: workload not runnable on this simulator)\n")
	return b.String()
}

// SpeedupVsFirst returns, for each row, the ratio of column j's
// runtime to column 0's runtime (how much slower backend j is than
// the first/reference backend). Cells that did not complete yield
// +Inf. Used by tests asserting the paper's win/loss pattern.
func (t *Table) SpeedupVsFirst(j int) []float64 {
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		ref := r.Cells[0]
		other := r.Cells[j]
		if ref.Status != CellOK {
			out[i] = 0
			continue
		}
		if other.Status != CellOK {
			out[i] = inf()
			continue
		}
		out[i] = other.Elapsed.Seconds() / ref.Elapsed.Seconds()
	}
	return out
}

func inf() float64 { return math.Inf(1) }
