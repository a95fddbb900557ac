// Command ddview exports decision diagrams in Graphviz DOT format,
// reproducing the paper's Fig. 1:
//
//	ddview -fig 1a   # vector DD of the Bell state (|00⟩+|11⟩)/√2
//	ddview -fig 1b   # matrix DD of Z on q0 of a 2-qubit register
//	ddview -fig 1c   # the two amplitude-damping branch states (Example 6)
//
// or renders the final state of a circuit — any built-in benchmark
// family (see -circuit) or an OpenQASM 2.0 file:
//
//	ddview -circuit ghz -n 6
//	ddview -circuit qft -n 4
//	ddview -qasm file.qasm
//
// With -density the exact engine's decision diagram of the final mixed
// state is rendered instead of the state-vector DD: ρ as the vector
// vec(ρ) on 2n qubits, qubit q's row bit at level 2q and its column
// bit at 2q+1 — the squared representation the paper argues against
// tracking; add -noise to apply the paper's error channels and watch
// the mixed state's structure:
//
//	ddview -circuit ghz -n 4 -density -noise
//
// Pipe the output to `dot -Tsvg` to render.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/dd"
	"ddsim/internal/ddback"
	"ddsim/internal/exact"
	"ddsim/internal/qbench"
)

func main() {
	var (
		fig      = flag.String("fig", "", "paper figure to reproduce: 1a, 1b, 1c")
		circName = flag.String("circuit", "", "built-in circuit: "+strings.Join(qbench.BuiltinNames(), ", "))
		qasmPath = flag.String("qasm", "", "OpenQASM 2.0 file")
		n        = flag.Int("n", 4, "qubit count for built-in circuits")
		damp     = flag.Float64("p", 0.3, "damping probability for -fig 1c")
		density  = flag.Bool("density", false, "render the exact engine's vec(ρ) DD of the circuit's final mixed state (2n qubits) instead of the state-vector DD")
		noisy    = flag.Bool("noise", false, "with -density: evolve under the paper's noise channels instead of noise-free")
	)
	flag.Parse()

	switch {
	case *fig != "":
		printFigure(*fig, *damp)
	case *circName != "" || *qasmPath != "":
		printCircuitState(*circName, *qasmPath, *n, *density, *noisy)
	default:
		fmt.Fprintln(os.Stderr, "ddview: one of -fig, -circuit or -qasm is required")
		os.Exit(1)
	}
}

func bell(p *dd.Package) dd.VEdge {
	h := dd.Mat2{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}
	x := dd.Mat2{{0, 1}, {1, 0}}
	e := p.ZeroState()
	e = p.MulMV(p.SingleQubitGate(h, 0), e)
	return p.MulMV(p.ControlledGate(x, 1, []dd.Control{{Qubit: 0}}), e)
}

func printFigure(fig string, pDamp float64) {
	p := dd.NewPackage(2)
	switch fig {
	case "1a":
		fmt.Println("// Fig. 1a — vector DD of (|00⟩+|11⟩)/√2")
		fmt.Print(p.DOT(bell(p)))
	case "1b":
		fmt.Println("// Fig. 1b — matrix DD of Z⊗I")
		z := dd.Mat2{{1, 0}, {0, -1}}
		fmt.Print(p.DOTMatrix(p.SingleQubitGate(z, 0)))
	case "1c":
		fmt.Printf("// Fig. 1c — amplitude damping (p=%.2f) branches of the Bell state\n", pDamp)
		e := bell(p)
		a0 := dd.Mat2{{0, complex(math.Sqrt(pDamp), 0)}, {0, 0}}
		a1 := dd.Mat2{{1, 0}, {0, complex(math.Sqrt(1-pDamp), 0)}}
		b0, pr0 := p.ApplyKraus(e, a0, 0)
		b1, pr1 := p.ApplyKraus(e, a1, 0)
		fmt.Printf("// branch A0 (decay fired), probability %.4f:\n", pr0)
		fmt.Print(p.DOT(p.Normalize(b0)))
		fmt.Printf("// branch A1 (no decay), probability %.4f:\n", pr1)
		fmt.Print(p.DOT(p.Normalize(b1)))
	default:
		fmt.Fprintf(os.Stderr, "ddview: unknown figure %q (want 1a, 1b, 1c)\n", fig)
		os.Exit(1)
	}
}

func printCircuitState(name, qasmPath string, n int, density, noisy bool) {
	var circ *ddsim.Circuit
	var err error
	switch {
	case qasmPath != "":
		circ, err = ddsim.ParseQASMFile(qasmPath)
	case strings.ToLower(name) == "qft":
		// Keep the historical single-excitation input: it draws a
		// small, readable diagram.
		circ = circuit.QFTWithInput(n, 1)
	default:
		var b qbench.Benchmark
		if b, err = qbench.ByName(name, n); err == nil {
			circ = b.Circuit
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddview:", err)
		os.Exit(1)
	}
	if density {
		model := ddsim.NoNoise()
		if noisy {
			model = ddsim.PaperNoise()
		}
		b, err := exact.Diagram(circ, model)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddview:", err)
			os.Exit(1)
		}
		defer b.Release()
		fmt.Printf("// %s final density matrix (noise: %v): %d DD nodes for vec(ρ), a 2^%d vector, purity %.6f\n",
			circ.Name, noisy, b.NodeCount(), 2*circ.NumQubits, b.Norm2())
		fmt.Print(b.Package().DOT(b.State()))
		return
	}
	b, err := ddback.New(circ)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddview:", err)
		os.Exit(1)
	}
	for i := range circ.Ops {
		if circ.Ops[i].Kind == circuit.KindGate {
			b.ApplyOp(i)
		}
	}
	fmt.Printf("// %s final state: %d DD nodes for a 2^%d vector\n",
		circ.Name, b.NodeCount(), circ.NumQubits)
	fmt.Print(b.Package().DOT(b.State()))
}
