package statevec

// Ops are queued and each compiled diagonal run is applied as one table
// pass (flush). These tests hold that backend against the per-gate
// loop: a second backend whose queue is applied after every ApplyOp,
// so that each op runs its own kernel.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// diagTol bounds how far a fused amplitude or probability may stray
// from the per-gate one.
const diagTol = 1e-12

// perGate is the reference backend: ApplyOp applies its op at once.
type perGate struct{ *Backend }

func (g perGate) ApplyOp(i int) {
	g.Backend.ApplyOp(i)
	g.flush()
}

// diagPair builds the fused backend and its per-gate reference. Each
// diagonal op i with bit i%64 of mirror set has its factors swapped,
// diag(u11, u00), on both: no named gate has u11 = 1 ≠ u00, so this is
// how a run comes to fix a target to 0.
func diagPair(t testing.TB, c *circuit.Circuit, mirror uint64) (*Backend, perGate) {
	t.Helper()
	mk := func() *Backend {
		b, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.gates {
			if g := &b.gates[i]; g.kernel == kernDiag && mirror>>(i%64)&1 != 0 {
				g.u[0][0], g.u[1][1] = g.u[1][1], g.u[0][0]
			}
		}
		b.compileRuns()
		return b
	}
	return mk(), perGate{mk()}
}

// diagCircuit draws a circuit that is mostly diagonal gates — phases,
// Z rotations, Z, S, T and their inverses, identities — with zero to
// three controls of random polarity, broken now and then by a
// non-diagonal gate. Most gates keep to a window of two to four
// neighbouring qubits that moves now and then, so that runs have
// tables small enough to compile; one in eight ranges over the
// register.
func diagCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("diag", n)
	diag := []string{"z", "s", "sdg", "t", "tdg", "id", "rz", "p", "u1"}
	breakers := []string{"h", "x", "ry", "sx"}
	lo, w := 0, n
	for i := 0; i < gates; i++ {
		if i == 0 || rng.Intn(6) == 0 {
			w = min(n, 2+rng.Intn(3))
			lo = rng.Intn(n - w + 1)
		}
		qs := rng.Perm(w)
		for k := range qs {
			qs[k] += lo
		}
		if rng.Intn(8) == 0 {
			qs = rng.Perm(n)
		}
		op := circuit.Op{Kind: circuit.KindGate, Target: qs[0], Name: diag[rng.Intn(len(diag))]}
		if rng.Intn(8) == 0 {
			op.Name = breakers[rng.Intn(len(breakers))]
		}
		switch op.Name {
		case "rz", "p", "u1", "ry":
			op.Params = []float64{(rng.Float64() - 0.5) * 4 * math.Pi}
		}
		for _, q := range qs[1 : 1+rng.Intn(min(3, len(qs)-1)+1)] {
			op.Controls = append(op.Controls, circuit.Control{Qubit: q, Negative: rng.Intn(3) == 0})
		}
		c.Append(op)
	}
	return c
}

// wholeRuns counts the compiled runs that lie wholly inside b's
// pending run: the table passes its next flush makes.
func wholeRuns(b *Backend) int {
	k := 0
	for i := b.runStart; i < b.runEnd; i++ {
		if r := b.diagAt[i]; r != nil && r.end <= b.runEnd {
			k++
			i = r.end - 1
		}
	}
	return k
}

// sameAmplitudes compares two backends' states amplitude by amplitude,
// through the flushing accessor.
func sameAmplitudes(t testing.TB, what string, f *Backend, g perGate) {
	t.Helper()
	a, b := f.Amplitudes(), g.Amplitudes()
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > diagTol {
			t.Fatalf("%s: amplitude %d fused %v, per gate %v", what, i, a[i], b[i])
		}
	}
}

// checkDiagScript runs every op of c on a fused backend and its
// per-gate reference, in op order, as prog directs: a byte per op
// skips it (breaking the run), applies it alone, or applies it and
// then cuts the run with a Pauli or a read; mirror is diagPair's. The
// states must agree to diagTol at every read and at the end. It
// returns the table passes the fused backend made.
func checkDiagScript(t testing.TB, c *circuit.Circuit, mirror uint64, prog func() byte) (passes int) {
	f, g := diagPair(t, c, mirror)
	copy(f.v, randomState(c.NumQubits, rand.New(rand.NewSource(int64(len(c.Ops))))))
	copy(g.v, f.v)
	for i := range c.Ops {
		b := prog()
		if b%16 == 0 { // skipped: the next op starts a new run
			continue
		}
		if i != f.runEnd {
			passes += wholeRuns(f)
		}
		f.ApplyOp(i)
		g.ApplyOp(i)
		switch b % 16 {
		case 1: // a noise event behind the op cuts the run
			passes += wholeRuns(f)
			p, q := sim.Pauli(1+int(b>>4)%3), int(b>>4)%c.NumQubits
			f.ApplyPauli(p, q)
			g.ApplyPauli(p, q)
		case 2: // a read cuts the run
			passes += wholeRuns(f)
			sameAmplitudes(t, fmt.Sprintf("op %d", i), f, g)
		}
	}
	passes += wholeRuns(f)
	sameAmplitudes(t, "end", f, g)
	return passes
}

// TestDiagRunsMatchPerGate: random diagonal-dense circuits on 2–12
// qubits, with random run boundaries, reach the per-gate state to
// 1e-12 in every amplitude, and the boundaries leave whole runs to
// fuse.
func TestDiagRunsMatchPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	passes := 0
	for n := 2; n <= 12; n++ {
		for trial := 0; trial < 20; trial++ {
			c := diagCircuit(n, 40+rng.Intn(80), rng.Int63())
			prog := func() byte {
				if rng.Intn(8) == 0 {
					return byte(rng.Intn(256))
				}
				return 3
			}
			mirror := uint64(0)
			if trial%2 == 1 {
				mirror = rng.Uint64()
			}
			passes += checkDiagScript(t, c, mirror, prog)
		}
	}
	if passes < 100 {
		t.Errorf("only %d table passes over all circuits", passes)
	}

	// QFT's runs fix their target to 1 (u00 = 1); mirrored, to 0.
	for _, mirror := range []uint64{0, ^uint64(0)} {
		c := circuit.QFT(9)
		f, _ := diagPair(t, c, mirror)
		compiled := 0
		for _, r := range f.diagAt {
			if r == nil {
				continue
			}
			compiled++
			target := f.gates[r.start].sub.stride
			if r.fixMask != target || r.fixWant != target&^mirror {
				t.Errorf("mirror=%x: run [%d, %d) fixes %b to %b, want %b to %b",
					mirror, r.start, r.end, r.fixMask, r.fixWant, target, target&^mirror)
			}
		}
		if n := checkDiagScript(t, c, mirror, func() byte { return 3 }); compiled < 3 || n != compiled {
			t.Errorf("mirror=%x: %d table passes, %d runs compiled", mirror, n, compiled)
		}
	}
}

// TestDiagRunTables: the planned tables of QFT-26, the largest
// register New accepts, are its smallest, each indexed by its run's
// controls alone, and stay within 2^26 / tableShare entries, with no
// room left for the next larger one; a run is also left unplanned when
// its pass would walk more amplitudes than its ops touch. Nothing the
// size of the register is allocated.
func TestDiagRunTables(t *testing.T) {
	const n = MaxQubits
	c := circuit.QFT(n)
	planned := map[int]bool{}
	var sum uint64
	for _, r := range plan(t, c) {
		sum += r.entries()
		planned[r.start] = true
		if ctrls := r.end - r.start; r.entries() != 1<<ctrls {
			t.Errorf("run [%d, %d): %d entries, want 2^%d", r.start, r.end, r.entries(), ctrls)
		}
	}
	const budget = 1 << n / tableShare
	if sum > budget {
		t.Errorf("QFT-%d tables hold %d entries, over %d", n, sum, budget)
	}
	// Target q's run starts at op q(2n − q + 1)/2 + 1 and holds n−1−q
	// controlled phases; the smallest runs are the last.
	smallestLeft := uint64(0)
	for q := n - 1 - minDiagRun; q >= 0; q-- {
		start := q*(2*n-q+1)/2 + 1
		if entries := uint64(1) << (n - 1 - q); !planned[start] && smallestLeft == 0 {
			smallestLeft = entries
		} else if planned[start] && smallestLeft != 0 {
			t.Errorf("run at op %d planned after a smaller run was left out", start)
		}
	}
	if len(planned) < 10 || smallestLeft == 0 || sum+smallestLeft <= budget {
		t.Errorf("QFT-%d: %d runs planned, %d entries, smallest left out %d", n, len(planned), sum, smallestLeft)
	}

	// Z rotations on three of six qubits fix no bit: each run's table
	// has 8 entries, the budget of the whole state, so only the first
	// run is planned.
	c = circuit.New("rz", 6)
	for k := 0; k < 2; k++ {
		for q := 3; q < 6; q++ {
			c.RZ(q, 0.3+float64(q))
		}
		c.H(0)
	}
	if runs := plan(t, c); len(runs) != 1 || runs[0].start != 0 || runs[0].entries() != 8 {
		t.Fatalf("rz runs: %d planned, want one of 8 entries at op 0", len(runs))
	}

	// Three CZs on disjoint pairs touch a quarter of the register each;
	// no bit is fixed by all three, so a pass would walk all of it. Its
	// table, 64 entries, would fit.
	c = circuit.New("cz", 9)
	c.CZ(3, 4).CZ(5, 6).CZ(7, 8)
	if runs := plan(t, c); len(runs) != 0 {
		t.Fatalf("cz layer: %d runs planned, want none", len(runs))
	}
}

// plan compiles c and plans its diagonal runs.
func plan(t *testing.T, c *circuit.Circuit) []*diagRun {
	t.Helper()
	gates, err := compileCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return planDiagRuns(c, gates)
}

// TestDeferredRunAppliedBeforeEveryStateAccess queues a run of ApplyOp
// that holds whole diagonal runs and calls one method that reads or
// replaces the state; the result must be the per-gate one, and a
// replaced state must not see the dropped run afterwards.
func TestDeferredRunAppliedBeforeEveryStateAccess(t *testing.T) {
	c := circuit.QFT(6)
	c.CGate("rz", 0, 2, 0.4).CGate("rz", 1, 3, -1.1).S(4).CPhase(3, 1, 0.9)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "u3", Params: []float64{0.7, 0.3, -1.1}, Target: 2,
		Controls: []circuit.Control{{Qubit: 0, Negative: true}}})
	ops := len(c.Ops)
	state := randomState(c.NumQubits, rand.New(rand.NewSource(9)))
	zero := make([]complex128, 1<<uint(c.NumQubits))
	zero[0] = 1
	near := func(t *testing.T, what string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > diagTol {
			t.Fatalf("%s: fused %v, per gate %v", what, a, b)
		}
	}
	for _, tc := range []struct {
		name string
		// call runs the method on both backends and checks what it
		// returned; the states are compared afterwards.
		call func(t *testing.T, f *Backend, g perGate)
	}{
		{"ApplyMatrix", func(t *testing.T, f *Backend, g perGate) {
			ctl := []circuit.Control{{Qubit: 0, Negative: true}}
			f.ApplyMatrix(circuit.MatY, 4, ctl)
			g.ApplyMatrix(circuit.MatY, 4, ctl)
		}},
		{"Mix", func(t *testing.T, f *Backend, g perGate) {
			f.Mix(zero, 0.6, 0.8)
			g.Mix(zero, 0.6, 0.8)
		}},
		{"ApplyPauli", func(t *testing.T, f *Backend, g perGate) {
			f.ApplyPauli(sim.PauliY, 2)
			g.ApplyPauli(sim.PauliY, 2)
		}},
		{"ProbOne", func(t *testing.T, f *Backend, g perGate) {
			for q := 0; q < c.NumQubits; q++ {
				near(t, fmt.Sprintf("P(q%d = 1)", q), f.ProbOne(q), g.ProbOne(q))
			}
		}},
		{"Collapse", func(t *testing.T, f *Backend, g perGate) {
			p := g.ProbOne(1)
			f.Collapse(1, 1, p)
			g.Collapse(1, 1, p)
		}},
		{"ApplyDamping", func(t *testing.T, f *Backend, g perGate) {
			p := 1 - 0.3*g.ProbOne(0)
			f.ApplyDamping(0, 0.3, false, p)
			g.ApplyDamping(0, 0.3, false, p)
		}},
		{"ApplyKraus2", func(t *testing.T, f *Backend, g perGate) {
			var zx [4][4]complex128 // Z on q3 ⊗ X on q4
			zx[0][1], zx[1][0], zx[2][3], zx[3][2] = 1, 1, -1, -1
			f.ApplyKraus2(3, 4, zx, 1)
			g.ApplyKraus2(3, 4, zx, 1)
		}},
		{"SampleBasis", func(t *testing.T, f *Backend, g perGate) {
			rf, rg := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
			for k := 0; k < 64; k++ {
				if a, b := f.SampleBasis(rf), g.SampleBasis(rg); a != b {
					t.Fatalf("sample %d: %d vs %d", k, a, b)
				}
			}
		}},
		{"Probability", func(t *testing.T, f *Backend, g perGate) {
			for k := uint64(0); k < 1<<uint(c.NumQubits); k++ {
				near(t, fmt.Sprintf("P(%d)", k), f.Probability(k), g.Probability(k))
			}
		}},
		{"Norm2", func(t *testing.T, f *Backend, g perGate) {
			near(t, "norm²", f.Norm2(), g.Norm2())
		}},
		{"Amplitudes", func(t *testing.T, f *Backend, g perGate) {
			a, b := f.Amplitudes(), g.Amplitudes()
			for i := range a {
				if cmplx.Abs(a[i]-b[i]) > diagTol {
					t.Fatalf("amplitude %d: %v vs %v", i, a[i], b[i])
				}
			}
		}},
		{"Snapshot", func(t *testing.T, f *Backend, g perGate) {
			a, b := f.Snapshot().([]complex128), g.Snapshot().([]complex128)
			for i := range a {
				if cmplx.Abs(a[i]-b[i]) > diagTol {
					t.Fatalf("snapshot amplitude %d: %v vs %v", i, a[i], b[i])
				}
			}
		}},
		{"FidelityTo", func(t *testing.T, f *Backend, g perGate) {
			near(t, "fidelity to the start", f.FidelityTo(state), g.FidelityTo(state))
		}},
		{"Reset", func(t *testing.T, f *Backend, g perGate) {
			f.Reset()
			g.Reset()
			if p := f.Probability(0); p != 1 {
				t.Fatalf("after Reset P(0…0) = %v: the dropped run was applied", p)
			}
		}},
		{"Restore", func(t *testing.T, f *Backend, g perGate) {
			f.Restore(zero)
			g.Restore(zero)
			if p := f.Probability(0); p != 1 {
				t.Fatalf("after Restore P(0…0) = %v: the dropped run was applied", p)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, g := diagPair(t, c, 0)
			copy(f.v, state)
			copy(g.v, state)
			for i := 0; i < ops; i++ {
				f.ApplyOp(i)
				g.ApplyOp(i)
			}
			if f.runStart != 0 || f.runEnd != ops {
				t.Fatalf("pending run [%d, %d), want [0, %d)", f.runStart, f.runEnd, ops)
			}
			if wholeRuns(f) == 0 {
				t.Fatal("the pending run holds no compiled diagonal run")
			}
			tc.call(t, f, g)
			if f.runStart != f.runEnd {
				t.Fatalf("%s left the run pending", tc.name)
			}
			sameAmplitudes(t, tc.name, f, g)
		})
	}
}

// FuzzDiagRuns checks a fuzzed diagonal-dense circuit on 2–12 qubits,
// with fuzzed mirrored ops and run boundaries, against the per-gate
// loop (checkDiagScript).
func FuzzDiagRuns(f *testing.F) {
	f.Add(uint8(3), int64(1), uint64(0), []byte{3, 3, 3, 3, 3, 0, 3, 3, 3, 3, 3, 1, 3, 3, 3, 3, 3, 2})
	f.Add(uint8(10), int64(7), ^uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, nq uint8, seed int64, mirror uint64, prog []byte) {
		n := 2 + int(nq)%11
		c := diagCircuit(n, 1+len(prog)%130, seed)
		k := 0
		checkDiagScript(t, c, mirror, func() byte {
			if len(prog) == 0 {
				return 3
			}
			k++
			return prog[(k-1)%len(prog)]
		})
	})
}

// BenchmarkDiagRun prices one noise-free pass of QFT-14 — 14 Hadamards
// and 91 controlled phases, whose runs on targets 3 to 10 are compiled
// to tables — from a random state, fused and per gate: what a
// trajectory's gap costs on the benchmark's qft14_statevec workload.
func BenchmarkDiagRun(b *testing.B) {
	c := circuit.QFT(14)
	f, g := diagPair(b, c, 0)
	state := randomState(c.NumQubits, rand.New(rand.NewSource(1)))
	for _, leg := range []struct {
		name  string
		b     *Backend
		apply func(int)
	}{{"fused", f, f.ApplyOp}, {"per-gate", g.Backend, g.ApplyOp}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				leg.b.Restore(state)
				for k := range c.Ops {
					leg.apply(k)
				}
				leg.b.flush()
			}
		})
	}
}
