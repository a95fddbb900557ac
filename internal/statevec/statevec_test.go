package statevec

import (
	"math"
	"math/cmplx"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

func build(t *testing.T, c *circuit.Circuit) *Backend {
	t.Helper()
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// applyKernel is the generic update every op ran through before the
// structure-aware kernels: all 2^(n-1) pairs visited, the control
// condition tested per index, a full 2×2 on each selected pair. It is
// kept, unchanged, as the reference the kernels are held to.
func (b *Backend) applyKernel(u circuit.Mat2, bit uint, ctrlMask, ctrlWant uint64) {
	stride := uint64(1) << bit
	dim := uint64(len(b.v))
	u00, u01, u10, u11 := u[0][0], u[0][1], u[1][0], u[1][1]
	for base := uint64(0); base < dim; base += 2 * stride {
		for i := base; i < base+stride; i++ {
			if i&ctrlMask != ctrlWant {
				continue
			}
			a0 := b.v[i]
			a1 := b.v[i|stride]
			b.v[i] = u00*a0 + u01*a1
			b.v[i|stride] = u10*a0 + u11*a1
		}
	}
}

func TestInitialState(t *testing.T) {
	b := build(t, circuit.New("empty", 3))
	amps := b.Amplitudes()
	if amps[0] != 1 {
		t.Errorf("amp[0] = %v", amps[0])
	}
	for i := 1; i < len(amps); i++ {
		if amps[i] != 0 {
			t.Errorf("amp[%d] = %v", i, amps[i])
		}
	}
}

func TestKernelAgainstDenseMultiply(t *testing.T) {
	// Apply H to each qubit of a 3-qubit register and compare against
	// hand-computed uniform superposition.
	c := circuit.New("h3", 3)
	c.H(0).H(1).H(2)
	b := build(t, c)
	for i := range c.Ops {
		b.ApplyOp(i)
	}
	want := complex(1/math.Sqrt(8), 0)
	for i, a := range b.Amplitudes() {
		if cmplx.Abs(a-want) > 1e-12 {
			t.Errorf("amp[%d] = %v, want %v", i, a, want)
		}
	}
}

func TestControlledKernelBitOrder(t *testing.T) {
	// q0 is most significant: X on q0 sends |000⟩ to index 4.
	c := circuit.New("x0", 3)
	c.X(0)
	b := build(t, c)
	b.ApplyOp(0)
	if p := b.Probability(4); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(4) = %v", p)
	}
	// CX with control q0 (now |1⟩) flips q2 → index 5.
	c2 := circuit.New("cx", 3)
	c2.X(0).CX(0, 2)
	b2 := build(t, c2)
	b2.ApplyOp(0)
	b2.ApplyOp(1)
	if p := b2.Probability(5); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(5) = %v", p)
	}
}

func TestNegativeControlKernel(t *testing.T) {
	c := circuit.New("ncx", 2)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 1,
		Controls: []circuit.Control{{Qubit: 0, Negative: true}}})
	b := build(t, c)
	b.ApplyOp(0)
	if p := b.Probability(1); math.Abs(p-1) > 1e-12 {
		t.Errorf("negative control: P(|01⟩) = %v", p)
	}
}

func TestMemoryLimit(t *testing.T) {
	if _, err := New(circuit.New("big", MaxQubits+1)); err == nil {
		t.Error("oversized register accepted")
	}
}

func TestProbOneAndCollapse(t *testing.T) {
	c := circuit.New("h", 2)
	c.H(0)
	b := build(t, c)
	b.ApplyOp(0)
	if p := b.ProbOne(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("ProbOne = %v", p)
	}
	b.Collapse(0, 1, 0.5)
	if p := b.Probability(2); math.Abs(p-1) > 1e-12 {
		t.Errorf("after collapse P(|10⟩) = %v", p)
	}
	if n2 := b.Norm2(); math.Abs(n2-1) > 1e-12 {
		t.Errorf("norm² = %v", n2)
	}
}

func TestResetClearsState(t *testing.T) {
	c := circuit.New("x", 2)
	c.X(0)
	b := build(t, c)
	b.ApplyOp(0)
	b.Reset()
	if p := b.Probability(0); p != 1 {
		t.Errorf("P(0) after reset = %v", p)
	}
}

// TestForkerSnapshotRestore: a checkpoint is an independent amplitude
// copy — later mutation (gates, collapse) must not leak into it, and
// restoring must reproduce the captured state bit-identically, any
// number of times.
func TestForkerSnapshotRestore(t *testing.T) {
	c := circuit.New("fork", 3)
	c.H(0).CX(0, 1).RY(2, 0.7)
	b := build(t, c)
	var f sim.Forker = b // compile-time capability check

	for i := range c.Ops {
		b.ApplyOp(i)
	}
	snap := f.Snapshot()
	want := b.Amplitudes()

	b.Collapse(0, 0, 1-b.ProbOne(0))
	b.ApplyPauli(sim.PauliX, 2)

	for round := 0; round < 3; round++ {
		f.Restore(snap)
		got := b.Amplitudes()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: amp[%d] = %v, want %v (not bit-identical)", round, i, got[i], want[i])
			}
		}
		b.ApplyPauli(sim.PauliZ, round)
	}
}

// TestForkerStateCost: a dense checkpoint retains the full 2^n
// amplitude copy.
func TestForkerStateCost(t *testing.T) {
	b := build(t, circuit.New("cost", 4))
	var sizer sim.StateSizer = b
	nodes, bytes := sizer.StateCost(b.Snapshot())
	if nodes != 0 {
		t.Errorf("dense checkpoints pin no DD nodes, got %d", nodes)
	}
	if bytes != 16*16 {
		t.Errorf("byte cost = %d, want 256 (16 amplitudes × 16 bytes)", bytes)
	}
}

// TestApplyMatrixAndMix: ApplyMatrix under positive and negative
// controls reaches the state ApplyOp reaches on the same gates, and
// Mix folds a snapshot in as w·ψ + wo·s.
func TestApplyMatrixAndMix(t *testing.T) {
	c := circuit.New("cy", 3)
	c.H(0).H(2)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "y", Target: 1,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 2, Negative: true}}})
	ops, mats := build(t, c), build(t, circuit.New("empty", 3))
	for i := range c.Ops {
		ops.ApplyOp(i)
		op := &c.Ops[i]
		u, err := sim.ResolveOp(op)
		if err != nil {
			t.Fatal(err)
		}
		mats.ApplyMatrix(u, op.Target, op.Controls)
	}
	want := ops.Amplitudes()
	for i, a := range mats.Amplitudes() {
		if d := cmplx.Abs(a - want[i]); d > 1e-12 {
			t.Fatalf("amplitude %d: ApplyMatrix %v, ApplyOp %v", i, a, want[i])
		}
	}

	s := mats.Snapshot()
	mats.ApplyPauli(sim.PauliZ, 0)
	mats.Mix(s, 0.5, 0.5) // the Z-odd half of ψ cancels
	for i, a := range mats.Amplitudes() {
		w := want[i]
		if i&4 != 0 { // qubit 0 reads 1
			w = 0
		}
		if d := cmplx.Abs(a - w); d > 1e-12 {
			t.Fatalf("after Mix: amplitude %d = %v, want %v", i, a, w)
		}
	}
}
