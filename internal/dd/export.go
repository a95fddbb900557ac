package dd

import (
	"fmt"
	"strings"
)

// ToVector expands the diagram into a dense amplitude slice. Guarded
// to small registers; intended for tests and examples.
func (p *Package) ToVector(e VEdge) []complex128 {
	if p.nQubits > 24 {
		panic("dd: ToVector limited to 24 qubits")
	}
	out := make([]complex128, 1<<uint(p.nQubits))
	p.fillVector(e, 1, p.nQubits, 0, out)
	return out
}

func (p *Package) fillVector(e VEdge, acc complex128, level int, idx uint64, out []complex128) {
	if e.IsZero() {
		return
	}
	acc *= e.W.Complex()
	if e.IsTerminal() {
		out[idx] = acc
		return
	}
	n := e.N
	// idx accumulates from the most significant qubit: the 0-branch
	// keeps the bit clear, the 1-branch sets bit (level-1).
	p.fillVector(n.E[0], acc, level-1, idx, out)
	p.fillVector(n.E[1], acc, level-1, idx|1<<uint(n.Level-1), out)
}

// ToMatrix expands an operator diagram into a dense row-major matrix.
// Guarded to small registers; intended for tests.
func (p *Package) ToMatrix(e MEdge) [][]complex128 {
	if p.nQubits > 12 {
		panic("dd: ToMatrix limited to 12 qubits")
	}
	dim := 1 << uint(p.nQubits)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
	}
	p.fillMatrix(e, 1, 0, 0, out)
	return out
}

func (p *Package) fillMatrix(e MEdge, acc complex128, row, col uint64, out [][]complex128) {
	if e.IsZero() {
		return
	}
	acc *= e.W.Complex()
	if e.IsTerminal() {
		out[row][col] = acc
		return
	}
	n := e.N
	half := uint64(1) << uint(n.Level-1)
	p.fillMatrix(n.E[0], acc, row, col, out)
	p.fillMatrix(n.E[1], acc, row, col+half, out)
	p.fillMatrix(n.E[2], acc, row+half, col, out)
	p.fillMatrix(n.E[3], acc, row+half, col+half, out)
}

// NodeCount returns the number of distinct nodes reachable from e
// (excluding the terminal) — the paper's measure of representation
// compactness.
func (p *Package) NodeCount(e VEdge) int {
	seen := make(map[*VNode]bool)
	var walk func(n *VNode)
	walk = func(n *VNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		walk(n.E[0].N)
		walk(n.E[1].N)
	}
	walk(e.N)
	return len(seen)
}

// NodeCountM returns the number of distinct nodes reachable from an
// operator diagram edge. It marks the nodes it visits with a fresh
// walk epoch instead of collecting them in a set, so it allocates
// nothing: block products count every product they build.
func (p *Package) NodeCountM(e MEdge) int {
	p.mEpoch++
	return p.countM(e.N)
}

func (p *Package) countM(n *MNode) int {
	if n == nil || n.seen == p.mEpoch {
		return 0
	}
	n.seen = p.mEpoch
	c := 1
	for i := range n.E {
		c += p.countM(n.E[i].N)
	}
	return c
}

// DOT renders the vector diagram in Graphviz format, reproducing the
// visual conventions of the paper's Fig. 1: edge weights of exactly 1
// are omitted and zero edges are drawn as 0-stubs.
func (p *Package) DOT(e VEdge) string {
	var b strings.Builder
	b.WriteString("digraph vdd {\n  rankdir=TB;\n  node [shape=circle];\n")
	ids := make(map[*VNode]int)
	var order []*VNode
	var collect func(n *VNode)
	collect = func(n *VNode) {
		if n == nil {
			return
		}
		if _, ok := ids[n]; ok {
			return
		}
		ids[n] = len(ids)
		order = append(order, n)
		collect(n.E[0].N)
		collect(n.E[1].N)
	}
	collect(e.N)

	b.WriteString("  terminal [shape=box,label=\"1\"];\n")
	stub := 0
	for _, n := range order {
		fmt.Fprintf(&b, "  n%d [label=\"q%d\"];\n", ids[n], p.levelToQubit(n.Level))
	}
	fmt.Fprintf(&b, "  root [shape=point];\n  root -> %s [label=\"%s\"];\n",
		nodeName(ids, e.N), weightLabel(e))
	for _, n := range order {
		for i := 0; i < 2; i++ {
			child := n.E[i]
			if child.IsZero() {
				fmt.Fprintf(&b, "  z%d [shape=box,label=\"0\"];\n", stub)
				fmt.Fprintf(&b, "  n%d -> z%d [style=dashed];\n", ids[n], stub)
				stub++
				continue
			}
			label := weightLabel(child)
			style := ""
			if i == 1 {
				style = ",style=bold"
			}
			fmt.Fprintf(&b, "  n%d -> %s [label=\"%s\"%s];\n",
				ids[n], nodeName(ids, child.N), label, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func nodeName(ids map[*VNode]int, n *VNode) string {
	if n == nil {
		return "terminal"
	}
	return fmt.Sprintf("n%d", ids[n])
}

func weightLabel(e VEdge) string {
	if e.W.Re() == 1 && e.W.Im() == 0 {
		return ""
	}
	return e.W.String()
}

// DOTMatrix renders an operator diagram in Graphviz format.
func (p *Package) DOTMatrix(e MEdge) string {
	var b strings.Builder
	b.WriteString("digraph mdd {\n  rankdir=TB;\n  node [shape=circle];\n")
	ids := make(map[*MNode]int)
	var order []*MNode
	var collect func(n *MNode)
	collect = func(n *MNode) {
		if n == nil {
			return
		}
		if _, ok := ids[n]; ok {
			return
		}
		ids[n] = len(ids)
		order = append(order, n)
		for i := range n.E {
			collect(n.E[i].N)
		}
	}
	collect(e.N)

	b.WriteString("  terminal [shape=box,label=\"1\"];\n")
	for _, n := range order {
		fmt.Fprintf(&b, "  m%d [label=\"q%d\"];\n", ids[n], p.levelToQubit(n.Level))
	}
	rootTarget := "terminal"
	if e.N != nil {
		rootTarget = fmt.Sprintf("m%d", ids[e.N])
	}
	rootLabel := ""
	if !(e.W.Re() == 1 && e.W.Im() == 0) {
		rootLabel = e.W.String()
	}
	fmt.Fprintf(&b, "  root [shape=point];\n  root -> %s [label=\"%s\"];\n", rootTarget, rootLabel)
	stub := 0
	for _, n := range order {
		for i := 0; i < 4; i++ {
			child := n.E[i]
			if child.IsZero() {
				fmt.Fprintf(&b, "  zm%d [shape=box,label=\"0\"];\n", stub)
				fmt.Fprintf(&b, "  m%d -> zm%d [style=dashed,label=\"%d\"];\n", ids[n], stub, i)
				stub++
				continue
			}
			target := "terminal"
			if child.N != nil {
				target = fmt.Sprintf("m%d", ids[child.N])
			}
			label := fmt.Sprintf("%d", i)
			if !(child.W.Re() == 1 && child.W.Im() == 0) {
				label += ": " + child.W.String()
			}
			fmt.Fprintf(&b, "  m%d -> %s [label=\"%s\"];\n", ids[n], target, label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Describe summarises the package state as a human-readable line for
// diagnostics; Stats returns the same information (and the table
// hit-rate counters) in structured form.
func (p *Package) Describe() string {
	return fmt.Sprintf("qubits=%d vnodes=%d mnodes=%d peak_vnodes=%d weights=%d gc_runs=%d",
		p.nQubits, p.vCount, p.mCount, p.peakVNodes, p.W.Count(), p.gcRuns)
}
