// Command benchmark is the repository's benchmark: five named
// workloads at pinned job sizes, end-to-end metrics measured with
// tracing off, and per-layer metrics from a separate traced pass. See
// README.md for the command line and the output, WORKLOADS.md for why
// each workload exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// benchProcs pins GOMAXPROCS to the core count of the box the
// workloads were calibrated on, so "2 workers" means two cores' worth
// wherever the benchmark runs.
const benchProcs = 2

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: Options.Seed of every job and the base of the service's per-job seeds (1 = development, 7 = held back for claims)")
		seconds = flag.Float64("seconds", runSeconds, "the driver's run length; the pinned job counts are for the default, a longer run adds timed blocks in proportion")
		trace   = flag.Bool("trace", false, "per-layer metrics from a traced pass, spans written to out/trace-<workload>.json (also -trace 0|1)")
	)
	_ = flag.CommandLine.Parse(joinTraceValue(os.Args[1:])) // the command line's flag set exits on an error itself
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// joinTraceValue turns the driver's spelling `--trace 0|1` into
// `-trace=0|1`, so that -trace can be a boolean flag that also works
// bare, as `go run . -seed 1 -trace`.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func run(name string, seed int64, seconds float64, trace bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if !(seconds > 0) {
		return fmt.Errorf("-seconds %v: want a positive number", seconds)
	}
	if name == "" {
		return runAll(seed, seconds, trace)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// run.sh starts the program in the benchmark's directory, one level
	// below the repository.
	modDir, err := os.Getwd()
	if err != nil {
		return err
	}
	repo := filepath.Dir(modDir)
	outDir := filepath.Join(modDir, "out")
	runtime.GOMAXPROCS(benchProcs)

	var rep *report
	if w.Service {
		rep, err = runService(w, seed, seconds, trace, repo, outDir)
	} else {
		rep, err = runLibrary(w, seed, seconds, trace, outDir)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return rep.emit(os.Stdout, w.Name, defs, !trace)
}

// runAll runs every workload in a process of its own, so that one
// workload's heap never shows in another's peak_rss_mb.
func runAll(seed int64, seconds float64, trace bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), fmt.Sprintf("-trace=%t", trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}
