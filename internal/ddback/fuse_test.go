package ddback

// Gate runs are applied as block products (flush). These tests hold
// the fused backend against the per-gate loop: a second backend whose
// run is applied after every ApplyOp, so that each gate is one MulMV
// in a package of its own.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/dd"
	"ddsim/internal/sim"
)

// fuseTol bounds how far a fused result may stray from the per-gate
// one: amplitudes and probabilities absolutely, fidelity from 1.
// normTol bounds the squared norms apart. A block product is unitary
// only to the weight-interning tolerance (cnum.Tolerance, 1e-10 per
// component), and on QFT-20 and wider, whose phases reach that scale,
// one product moves the norm by up to about 7e-10; the fidelity of the
// normalised states stays within fuseTol.
const (
	fuseTol = 1e-12
	normTol = 1e-8
)

// perGate is the reference backend: ApplyOp applies its gate at once.
// zero is a snapshot of |0…0⟩ in its package.
type perGate struct {
	*Backend
	zero dd.VEdge
}

func (g perGate) ApplyOp(i int) {
	g.Backend.ApplyOp(i)
	g.flush()
}

// pair builds the fused backend and its per-gate reference.
func pair(t testing.TB, c *circuit.Circuit) (*Backend, perGate) {
	t.Helper()
	f, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return f, perGate{Backend: g}
}

// sameVector compares two states amplitude by amplitude.
func sameVector(t testing.TB, what string, f, g *Backend) {
	t.Helper()
	a, b := f.pkg.ToVector(f.State()), g.pkg.ToVector(g.State())
	for i := range a {
		if d := cmplxAbs(a[i] - b[i]); d > fuseTol {
			t.Fatalf("%s: amplitude %d fused %v, per gate %v", what, i, a[i], b[i])
		}
	}
}

// fidelity is |⟨a|b⟩|²/(⟨a|a⟩⟨b|b⟩) of two backends' states, through
// their dense vectors (registers of at most a dozen qubits), and
// normGap is |⟨a|a⟩ − ⟨b|b⟩|.
func fidelity(f, g *Backend) (fid, normGap float64) {
	a, b := f.pkg.ToVector(f.State()), g.pkg.ToVector(g.State())
	var dot complex128
	var na, nb float64
	for i := range a {
		dot += complex(real(a[i]), -imag(a[i])) * b[i]
		na += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		nb += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
	}
	return (real(dot)*real(dot) + imag(dot)*imag(dot)) / (na * nb), math.Abs(na - nb)
}

// checkFidelity fails unless the two states agree in fidelity to
// fuseTol and in squared norm to normTol.
func checkFidelity(t testing.TB, what string, fid, normGap float64) {
	t.Helper()
	if math.Abs(fid-1) > fuseTol || normGap > normTol {
		t.Fatalf("%s: fidelity 1%+.3g, squared norms %.3g apart", what, fid-1, normGap)
	}
}

// mixedCircuit has one- and two-qubit gates, rotations and controls of
// both polarities: 40 gates on 5 qubits, so a run of all of them
// crosses blocks of every size.
func mixedCircuit() *circuit.Circuit {
	return randomCircuit(5, 40, 3)
}

// randomCircuit draws gates over the alphabet, with zero to two
// controls of random polarity on a third of them.
func randomCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("random", n)
	singles := []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"}
	rotations := []string{"rx", "ry", "rz", "p"}
	for i := 0; i < gates; i++ {
		op := circuit.Op{Kind: circuit.KindGate, Target: rng.Intn(n)}
		if rng.Intn(2) == 0 {
			op.Name = singles[rng.Intn(len(singles))]
		} else {
			op.Name = rotations[rng.Intn(len(rotations))]
			op.Params = []float64{rng.Float64() * 2 * math.Pi}
		}
		if rng.Intn(3) == 0 {
			for _, q := range rng.Perm(n)[:1+rng.Intn(min(2, n-1))] {
				if q != op.Target {
					op.Controls = append(op.Controls, circuit.Control{Qubit: q, Negative: rng.Intn(2) == 0})
				}
			}
		}
		c.Append(op)
	}
	return c
}

// TestDeferredRunAppliedBeforeEveryStateAccess queues a run of ApplyOp
// and calls one method that reads or replaces the state; the result
// must be the per-gate one, and a replaced state must not see the
// dropped run afterwards.
func TestDeferredRunAppliedBeforeEveryStateAccess(t *testing.T) {
	c := mixedCircuit()
	ops := len(c.Ops)
	for _, tc := range []struct {
		name string
		// call runs the method on both backends and checks what it
		// returned; the states are compared afterwards.
		call func(t *testing.T, f *Backend, g perGate, zero sim.Snapshot)
	}{
		{"Snapshot", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			fs, gs := f.Snapshot().(dd.VEdge), g.Snapshot().(dd.VEdge)
			a, b := f.pkg.ToVector(fs), g.pkg.ToVector(gs)
			for i := range a {
				if cmplxAbs(a[i]-b[i]) > fuseTol {
					t.Fatalf("snapshot amplitude %d: %v vs %v", i, a[i], b[i])
				}
			}
		}},
		{"FidelityTo", func(t *testing.T, f *Backend, g perGate, zero sim.Snapshot) {
			if a, b := f.FidelityTo(zero), g.FidelityTo(zero); math.Abs(a-b) > fuseTol {
				t.Fatalf("fidelity to |0…0⟩: %v vs %v", a, b)
			}
		}},
		{"State", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			f.State()
			g.State()
		}},
		{"NodeCount", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			if a, b := f.NodeCount(), g.NodeCount(); a != b {
				t.Fatalf("node count %d vs %d", a, b)
			}
		}},
		{"TableStats", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			a, b := f.TableStats(), g.TableStats()
			if a.BlockApplications == 0 || a.BlockApplications >= int64(ops) || b.BlockApplications != int64(ops) {
				t.Fatalf("block applications: fused %d, per gate %d, for %d gates",
					a.BlockApplications, b.BlockApplications, ops)
			}
		}},
		{"Package", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			if f.Package().Stats().ComputeLookups == 0 {
				t.Fatal("no compute lookups after the run")
			}
		}},
		{"Norm2", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			if a, b := f.Norm2(), g.Norm2(); math.Abs(a-b) > fuseTol {
				t.Fatalf("norm² %v vs %v", a, b)
			}
		}},
		{"ProbOne", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			for q := 0; q < c.NumQubits; q++ {
				if a, b := f.ProbOne(q), g.ProbOne(q); math.Abs(a-b) > fuseTol {
					t.Fatalf("P(q%d = 1) %v vs %v", q, a, b)
				}
			}
		}},
		{"Probability", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			for k := uint64(0); k < 1<<uint(c.NumQubits); k++ {
				if a, b := f.Probability(k), g.Probability(k); math.Abs(a-b) > fuseTol {
					t.Fatalf("P(%d) %v vs %v", k, a, b)
				}
			}
		}},
		{"SampleBasis", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			rf, rg := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
			for k := 0; k < 64; k++ {
				if a, b := f.SampleBasis(rf), g.SampleBasis(rg); a != b {
					t.Fatalf("sample %d: %d vs %d", k, a, b)
				}
			}
		}},
		{"ApplyPauli", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			f.ApplyPauli(sim.PauliY, 2)
			g.ApplyPauli(sim.PauliY, 2)
		}},
		{"Collapse", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			p := g.ProbOne(1)
			f.Collapse(1, 1, p)
			g.Collapse(1, 1, p)
		}},
		{"ApplyDamping", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			p := 1 - 0.3*g.ProbOne(0)
			f.ApplyDamping(0, 0.3, false, p)
			g.ApplyDamping(0, 0.3, false, p)
		}},
		{"ApplyKraus2", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			var zx [4][4]complex128 // Z on q3 ⊗ X on q4
			zx[0][1], zx[1][0], zx[2][3], zx[3][2] = 1, 1, -1, -1
			f.ApplyKraus2(3, 4, zx, 1)
			g.ApplyKraus2(3, 4, zx, 1)
		}},
		{"ApplyMatrix", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			ctl := []circuit.Control{{Qubit: 0, Negative: true}}
			f.ApplyMatrix(circuit.MatY, 4, ctl)
			g.ApplyMatrix(circuit.MatY, 4, ctl)
		}},
		{"Mix", func(t *testing.T, f *Backend, g perGate, zero sim.Snapshot) {
			f.Mix(zero, 0.6, 0.8)
			g.Mix(g.zero, 0.6, 0.8)
		}},
		{"Reset", func(t *testing.T, f *Backend, g perGate, _ sim.Snapshot) {
			f.Reset()
			g.Reset()
			if p := f.Probability(0); p != 1 {
				t.Fatalf("after Reset P(0…0) = %v: the dropped run was applied", p)
			}
		}},
		{"Restore", func(t *testing.T, f *Backend, g perGate, zero sim.Snapshot) {
			f.Restore(zero)
			g.Restore(g.zero)
			if p := f.Probability(0); p != 1 {
				t.Fatalf("after Restore P(0…0) = %v: the dropped run was applied", p)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, g := pair(t, c)
			zero := f.Snapshot()
			g.zero = g.Snapshot().(dd.VEdge)
			for i := 0; i < ops; i++ {
				f.ApplyOp(i)
				g.ApplyOp(i)
			}
			if f.runStart == f.runEnd {
				t.Fatal("ApplyOp applied the run at once")
			}
			tc.call(t, f, g, zero)
			if f.runStart != f.runEnd {
				t.Fatalf("%s left the run pending", tc.name)
			}
			sameVector(t, tc.name, f, g.Backend)
		})
	}

	// Release drops the run: nothing is applied to the released package.
	f, g := pair(t, c)
	g.Release()
	for i := 0; i < ops; i++ {
		f.ApplyOp(i)
	}
	f.Release()
	if f.runStart != f.runEnd {
		t.Fatal("Release left the run pending")
	}
}

// checkFusedScript runs every op of c on a fused backend and its
// per-gate reference, in op order, as prog directs: a byte per op
// skips it (breaking the run), applies it alone, or applies it and
// then cuts the run with a Pauli on a qubit or a read. The states must
// agree to fuseTol in fidelity at every read and at the end.
func checkFusedScript(t testing.TB, c *circuit.Circuit, prog func() byte) {
	f, g := pair(t, c)
	defer f.Release()
	defer g.Release()
	for i := range c.Ops {
		switch b := prog(); b % 16 {
		case 0: // skipped: the next op starts a new run
			continue
		case 1: // a noise event behind the op cuts the run
			f.ApplyOp(i)
			g.ApplyOp(i)
			p, q := sim.Pauli(1+int(b>>4)%3), int(b>>4)%c.NumQubits
			f.ApplyPauli(p, q)
			g.ApplyPauli(p, q)
		case 2: // a read cuts the run
			f.ApplyOp(i)
			g.ApplyOp(i)
			fid, gap := fidelity(f, g.Backend)
			checkFidelity(t, fmt.Sprintf("op %d", i), fid, gap)
		default:
			f.ApplyOp(i)
			g.ApplyOp(i)
		}
	}
	fid, gap := fidelity(f, g.Backend)
	checkFidelity(t, "end", fid, gap)
}

// TestFusedRunsMatchPerGate: random circuits on up to 12 qubits, with
// controls of both polarities and random run boundaries.
func TestFusedRunsMatchPerGate(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		c := randomCircuit(n, 20+rng.Intn(200), seed)
		checkFusedScript(t, c, func() byte { return byte(rng.Intn(256)) })
	}
}

// snapshotStarts returns where forked trajectories start on a path of
// the given gate count: the positions the stochastic engine snapshots
// (ckptRunner.takeSnapshots, at most 8 with the first at gate 1 under
// per-gate noise) and op 0, where a replay starts.
func snapshotStarts(gates int) []int {
	const snaps = 8
	starts := []int{0, 1}
	span := gates - 1
	stride := (span + snaps - 2) / (snaps - 1)
	for g := gates - (span-1)/stride*stride; g <= gates; g += stride {
		starts = append(starts, g)
	}
	return starts
}

// TestFusedRunsFromEverySnapshot: on QFT-24 and GHZ-64, a trajectory
// forked at each snapshot position takes an event (X on a random
// qubit) and runs to the end as one fused run; the state must be the
// per-gate loop's from the same event, in the same package, to fuseTol
// in fidelity and normTol in squared norm. Both circuits are too wide
// for dense vectors, so the comparison is the DD inner product.
func TestFusedRunsFromEverySnapshot(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuit.QFT(24), circuit.GHZ(64)} {
		b, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		p := b.pkg
		rng := rand.New(rand.NewSource(int64(c.NumQubits)))
		ops := len(c.Ops)
		for _, s := range snapshotStarts(ops) {
			b.Reset()
			for i := 0; i < s; i++ {
				b.ApplyOp(i)
			}
			b.ApplyPauli(sim.PauliX, rng.Intn(c.NumQubits))
			start := b.Snapshot().(dd.VEdge)
			for i := s; i < ops; i++ {
				b.ApplyOp(i)
			}
			fused := b.Snapshot().(dd.VEdge)
			want := start
			for i := s; i < ops; i++ {
				want = p.MulMV(b.gates[i], want)
			}
			na, nb := p.Norm2(fused), p.Norm2(want)
			checkFidelity(t, fmt.Sprintf("%s from op %d", c.Name, s), p.Fidelity(fused, want)/(na*nb), math.Abs(na-nb))
			p.Unref(start)
			p.Unref(fused)
		}
		b.Release()
	}
}

// FuzzFusedRuns checks a fuzzed circuit on 2–8 qubits, run with fuzzed
// run boundaries, against the per-gate loop (checkFusedScript).
func FuzzFusedRuns(f *testing.F) {
	f.Add(uint8(3), int64(1), []byte{3, 3, 3, 0, 3, 3, 1, 3, 3, 2, 3, 3, 3, 3})
	f.Add(uint8(5), int64(7), []byte{})
	f.Fuzz(func(t *testing.T, nq uint8, seed int64, prog []byte) {
		n := 2 + int(nq)%7
		c := randomCircuit(n, 1+len(prog)%130, seed)
		k := 0
		checkFusedScript(t, c, func() byte {
			if len(prog) == 0 {
				return 3
			}
			k++
			return prog[(k-1)%len(prog)]
		})
	})
}
