package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

var negZero = complex(math.Copysign(0, -1), math.Copysign(0, -1))

// classMatrices are the 2×2s of the differential tests, by the kernel
// each must compile to.
var classMatrices = []struct {
	name string
	want kernel
	u    circuit.Mat2
}{
	{"phase", kernDiag, circuit.PhaseMat(0.7)},
	{"phase-low", kernDiag, circuit.Mat2{{cmplx.Exp(0.4i), 0}, {0, 1}}},
	{"identity", kernDiag, circuit.MatI},
	{"z", kernDiag, circuit.MatZ},
	{"rz", kernDiag, circuit.RZMat(0.9)},
	{"diag-real", kernDiag, circuit.Mat2{{-1, 0}, {0, 0.5}}},
	{"diag-negzero", kernDiag, circuit.Mat2{{1, negZero}, {negZero, 1i}}},
	{"zero", kernDiag, circuit.Mat2{}},
	{"x", kernAntiDiag, circuit.MatX},
	{"y", kernAntiDiag, circuit.MatY},
	{"antidiag", kernAntiDiag, circuit.Mat2{{0, cmplx.Exp(0.3i)}, {cmplx.Exp(-1.1i), 0}}},
	{"antidiag-negzero", kernAntiDiag, circuit.Mat2{{negZero, 1}, {2, negZero}}},
	{"h", kernReal, circuit.MatH},
	{"ry", kernReal, circuit.RYMat(1.3)},
	{"real-negative", kernReal, circuit.Mat2{{-0.3, 1.7}, {-2.5, -0.1}}},
	{"real-negzero", kernReal, circuit.Mat2{{complex(0.6, math.Copysign(0, -1)), negZero}, {0.8, -0.6}}},
	{"u3", kernGeneral, circuit.U3Mat(0.7, 0.3, -1.1)},
	{"jump", kernAntiDiag, circuit.Mat2{{0, 0.5}, {0, 0}}},
	// cos(π/2) is 6e-17 in floating point, not 0: nearly X, and general.
	{"rx-pi", kernGeneral, circuit.RXMat(math.Pi)},
}

// ctrlConfig is a target bit and a control condition.
type ctrlConfig struct {
	bit            uint
	mask, want     uint64
	above, below   int // controls above / below the target
	negative, ctrl int
}

// ctrlConfigs returns, for an n-qubit register, every target bit with
// every set of up to three controls in every polarity when n ≤ 6, and
// for larger n every target bit with a random sample of such sets.
func ctrlConfigs(n int, rng *rand.Rand) []ctrlConfig {
	var out []ctrlConfig
	add := func(bit uint, mask, want uint64) {
		c := ctrlConfig{bit: bit, mask: mask, want: want, ctrl: bits.OnesCount64(mask)}
		c.above = bits.OnesCount64(mask >> bit)
		c.below = c.ctrl - c.above
		c.negative = c.ctrl - bits.OnesCount64(want)
		out = append(out, c)
	}
	for bit := uint(0); bit < uint(n); bit++ {
		others := (uint64(1)<<uint(n) - 1) &^ (1 << bit)
		if n <= 6 {
			// Every subset of the other bits with ≤ 3 members, every
			// polarity (want ranges over the subsets of mask).
			for mask := uint64(0); ; {
				if bits.OnesCount64(mask) <= 3 {
					for want := uint64(0); ; {
						add(bit, mask, want)
						if want = (want - mask) & mask; want == 0 {
							break
						}
					}
				}
				if mask = (mask - others) & others; mask == 0 {
					break
				}
			}
			continue
		}
		add(bit, 0, 0)
		for k := 1; k <= 3; k++ {
			for draw := 0; draw < 6; draw++ {
				var mask uint64
				for bits.OnesCount64(mask) < k {
					if c := uint(rng.Intn(n)); c != bit {
						mask |= 1 << c
					}
				}
				add(bit, mask, rng.Uint64()&mask)
			}
		}
	}
	return out
}

// randomState is a normalised random vector with a few exact zeros of
// either sign, the one place a kernel may differ from the reference.
func randomState(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, 1<<uint(n))
	norm := 0.0
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = negZero
		default:
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		norm += real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
	}
	if norm == 0 {
		v[0], norm = 1, 1
	}
	for i := range v {
		v[i] = rscale(v[i], 1/math.Sqrt(norm))
	}
	return v
}

// pair is two backends on the same state: got runs the product code,
// ref the reference loop.
type pair struct{ got, ref *Backend }

func newPair(t testing.TB, n int) pair {
	t.Helper()
	mk := func() *Backend {
		b, err := New(circuit.New("kernels", n))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return pair{mk(), mk()}
}

func (p pair) load(state []complex128) {
	copy(p.got.v, state)
	copy(p.ref.v, state)
}

// same demands amplitude-for-amplitude equality; == on complex128
// identifies +0 and −0 and nothing else.
func (p pair) same(t *testing.T, what string) {
	t.Helper()
	for i := range p.ref.v {
		if p.got.v[i] != p.ref.v[i] {
			t.Fatalf("%s: amp[%d] = %v, reference %v", what, i, p.got.v[i], p.ref.v[i])
		}
	}
}

// TestKernelsMatchReference: every class of matrix, under every shape
// of control condition, updates the state exactly as the generic loop
// does.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type shape struct{ ctrl, negative int }
	seen := map[shape]bool{}
	var top, bottom, above, between, below bool
	for n := 1; n <= 10; n++ {
		p := newPair(t, n)
		state := randomState(n, rng)
		for _, cfg := range ctrlConfigs(n, rng) {
			seen[shape{cfg.ctrl, min(cfg.negative, 1)}] = true
			top = top || (cfg.bit == uint(n-1) && cfg.ctrl > 0)
			bottom = bottom || (cfg.bit == 0 && cfg.ctrl > 0)
			above = above || (cfg.ctrl > 1 && cfg.above == 0)
			below = below || (cfg.ctrl > 1 && cfg.below == 0)
			between = between || (cfg.above > 0 && cfg.below > 0)
			for _, m := range classMatrices {
				g := compileGate(len(p.got.v), m.u, cfg.bit, cfg.mask, cfg.want)
				if g.kernel != m.want {
					t.Fatalf("%s compiled to kernel %d, want %d", m.name, g.kernel, m.want)
				}
				p.load(state)
				p.got.applyCompiled(&g)
				p.ref.applyKernel(m.u, cfg.bit, cfg.mask, cfg.want)
				p.same(t, fmt.Sprintf("n=%d %s bit=%d mask=%b want=%b", n, m.name, cfg.bit, cfg.mask, cfg.want))
			}
		}
	}
	for ctrl := 0; ctrl <= 3; ctrl++ {
		for neg := 0; neg <= min(ctrl, 1); neg++ {
			if !seen[shape{ctrl, neg}] {
				t.Errorf("no configuration with %d controls, negative=%d was run", ctrl, neg)
			}
		}
	}
	if !(top && bottom && above && between && below) {
		t.Errorf("target positions not all covered: top=%v bottom=%v above=%v between=%v below=%v",
			top, bottom, above, between, below)
	}
}

// TestCompiledCircuitMatchesReference: the same identity through New,
// which is where product code classifies, on ops with controls of both
// polarities.
func TestCompiledCircuitMatchesReference(t *testing.T) {
	c := circuit.New("mixed", 5)
	c.H(4).CPhase(0, 4, 0.6).CX(3, 1).CCX(4, 0, 2).CGate("ry", 2, 0, 1.2).RZ(1, 0.3).Y(3)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "u3", Params: []float64{0.7, 0.3, -1.1}, Target: 2,
		Controls: []circuit.Control{{Qubit: 0, Negative: true}, {Qubit: 4}}})
	got, ref := build(t, c), build(t, c)
	state := randomState(5, rand.New(rand.NewSource(5)))
	copy(got.v, state)
	copy(ref.v, state)
	for i := range c.Ops {
		op := &c.Ops[i]
		u, err := sim.ResolveOp(op)
		if err != nil {
			t.Fatal(err)
		}
		var mask, want uint64
		for _, ctl := range op.Controls {
			mask |= 1 << ref.bitOf(ctl.Qubit)
			if !ctl.Negative {
				want |= 1 << ref.bitOf(ctl.Qubit)
			}
		}
		got.ApplyOp(i)
		ref.applyKernel(u, ref.bitOf(op.Target), mask, want)
		// ApplyOp only queues; Amplitudes applies the queued op.
		for k, a := range got.Amplitudes() {
			if a != ref.v[k] {
				t.Fatalf("op %d (%s): amp[%d] = %v, reference %v", i, op.Name, k, a, ref.v[k])
			}
		}
	}
}

// TestClassifierDropsNothing: whatever the classifier answers, every
// entry the chosen kernel does not read is exactly zero — over all 16
// zero patterns, with the non-zero entries as small as a float gets —
// and the real kernel, which reads only real parts, leaves unread only
// imaginary parts that are ±0.
func TestClassifierDropsNothing(t *testing.T) {
	values := []complex128{1, complex(5e-324, 0), complex(0, 5e-324), complex(0, -1e-300),
		complex(math.NaN(), 0), complex(0, math.Inf(1)), cmplx.Exp(0.3i)}
	zeros := []complex128{0, negZero, complex(0, math.Copysign(0, -1))}
	for pattern := 0; pattern < 16; pattern++ {
		for _, nz := range values {
			for _, z := range zeros {
				var u circuit.Mat2
				for e := 0; e < 4; e++ {
					u[e/2][e%2] = z
					if pattern&(1<<e) != 0 {
						u[e/2][e%2] = nz
					}
				}
				switch classify(u) {
				case kernDiag:
					if u[0][1] != 0 || u[1][0] != 0 {
						t.Errorf("%v classified diagonal", u)
					}
				case kernAntiDiag:
					if u[0][0] != 0 || u[1][1] != 0 {
						t.Errorf("%v classified anti-diagonal", u)
					}
				case kernReal:
					for e := 0; e < 4; e++ {
						if imag(u[e/2][e%2]) != 0 {
							t.Errorf("%v classified real", u)
						}
					}
				}
			}
		}
	}
	// A Hadamard with the smallest imaginary part a float can hold on
	// any one entry is no longer real.
	for e := 0; e < 4; e++ {
		u := circuit.MatH
		u[e/2][e%2] += 5e-324i
		if k := classify(u); k != kernGeneral {
			t.Errorf("%v classified %d, want general", u, k)
		}
	}
}

// TestNoisePrimitivesMatchReference: the Pauli, damping and collapse
// primitives against what they were before the kernels — the generic
// loop, then (damping) a rescale pass over the whole register — and
// ProbOne against a mask-tested scan.
func TestNoisePrimitivesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	paulis := []struct {
		p sim.Pauli
		u circuit.Mat2
	}{{sim.PauliI, circuit.MatI}, {sim.PauliX, circuit.MatX}, {sim.PauliY, circuit.MatY}, {sim.PauliZ, circuit.MatZ}}
	for n := 1; n <= 10; n++ {
		p := newPair(t, n)
		state := randomState(n, rng)
		for q := 0; q < n; q++ {
			bit := p.ref.bitOf(q)
			mask := uint64(1) << bit
			for _, pl := range paulis {
				p.load(state)
				p.got.ApplyPauli(pl.p, q)
				p.ref.applyKernel(pl.u, bit, 0, 0)
				p.same(t, fmt.Sprintf("n=%d pauli %v q=%d", n, pl.p, q))
			}
			for _, dp := range []float64{1, 0.3} {
				for _, fire := range []bool{false, true} {
					for _, branchProb := range []float64{1, 0.37} {
						p.load(state)
						p.got.ApplyDamping(q, dp, fire, branchProb)
						k := circuit.Mat2{{1, 0}, {0, complex(math.Sqrt(1-dp), 0)}}
						if fire {
							k = circuit.Mat2{{0, complex(math.Sqrt(dp), 0)}, {0, 0}}
						}
						p.ref.applyKernel(k, bit, 0, 0)
						s := complex(1/math.Sqrt(branchProb), 0)
						for i := range p.ref.v {
							p.ref.v[i] *= s
						}
						p.same(t, fmt.Sprintf("n=%d damping p=%v fire=%v branch=%v q=%d", n, dp, fire, branchProb, q))
					}
				}
			}
			p.load(state)
			want := 0.0
			for i, a := range p.ref.v {
				if uint64(i)&mask != 0 {
					want += real(a)*real(a) + imag(a)*imag(a)
				}
			}
			if got := p.got.ProbOne(q); math.Abs(got-want) > 1e-15*want {
				t.Errorf("n=%d ProbOne(%d) = %v, reference %v", n, q, got, want)
			}
			for outcome := 0; outcome <= 1; outcome++ {
				p.load(state)
				p.got.Collapse(q, outcome, 0.37)
				s := complex(1/math.Sqrt(0.37), 0)
				for i := range p.ref.v {
					if (uint64(i)&mask != 0) == (outcome == 1) {
						p.ref.v[i] *= s
					} else {
						p.ref.v[i] = 0
					}
				}
				p.same(t, fmt.Sprintf("n=%d collapse q=%d outcome=%d", n, q, outcome))
			}
		}
	}
}

// TestKernelsNeverAliasSnapshot: Restore copies out of the handle, so
// whatever kernel runs afterwards writes the backend's own array and
// the handle restores the same state again.
func TestKernelsNeverAliasSnapshot(t *testing.T) {
	c := circuit.New("alias", 4)
	c.H(0).CPhase(0, 2, 0.6).CX(1, 3).CGate("ry", 2, 1, 1.2).RZ(3, 0.3)
	b := build(t, c)
	copy(b.v, randomState(4, rand.New(rand.NewSource(3))))
	snap := b.Snapshot()
	want := b.Amplitudes()
	mutate := []func(){
		func() {
			for i := range c.Ops {
				b.ApplyOp(i)
			}
		},
		func() { b.ApplyPauli(sim.PauliX, 1); b.ApplyPauli(sim.PauliY, 0); b.ApplyPauli(sim.PauliZ, 3) },
		func() { b.ApplyDamping(2, 0.3, false, 0.9); b.ApplyDamping(1, 0.3, true, 0.2) },
		func() { b.Collapse(0, 1, b.ProbOne(0)) },
		func() { b.Reset() },
	}
	for round, f := range mutate {
		b.Restore(snap)
		f()
		for i, a := range snap.([]complex128) {
			if a != want[i] || math.Signbit(real(a)) != math.Signbit(real(want[i])) || math.Signbit(imag(a)) != math.Signbit(imag(want[i])) {
				t.Fatalf("round %d: snapshot amp[%d] = %v, captured %v", round, i, a, want[i])
			}
		}
	}
	b.Restore(snap)
	for i, a := range b.v {
		if a != want[i] {
			t.Fatalf("restored amp[%d] = %v, captured %v", i, a, want[i])
		}
	}
}

// BenchmarkKernel prices one op of each class on a 14-qubit register,
// with the number of amplitudes the op writes: what backend.gate_ns on
// the benchmark's qft14_statevec workload (91 controlled phases, 14
// Hadamards) is made of. ctrl0 and ctrl1 put the target on a middle bit,
// uncontrolled and controlled by the bit above it; bit0 and bit1 put an
// uncontrolled target on the lowest two bits, where the runs are one
// and two pairs long (bit 0 is walked one index at a time, bit 1 is
// sliced). A QFT's last Hadamard is on bit 0.
func BenchmarkKernel(b *testing.B) {
	const n, mid = 14, 6
	classes := []struct {
		name string
		u    circuit.Mat2
		// halves of each selected pair the kernel writes
		halves int
		// low also prices the class on bits 0 and 1
		low bool
	}{
		{"phase", circuit.PhaseMat(0.7), 1, false},
		{"diag", circuit.RZMat(0.9), 2, false},
		{"antidiag", circuit.MatX, 2, false},
		{"real", circuit.MatH, 2, true},
		{"general", circuit.U3Mat(0.7, 0.3, -1.1), 2, true},
	}
	type place struct {
		name string
		bit  uint
		ctrl int
	}
	for _, cl := range classes {
		places := []place{{"ctrl0", mid, 0}, {"ctrl1", mid, 1}}
		if cl.low {
			places = append(places, place{"bit0", 0, 0}, place{"bit1", 1, 0})
		}
		for _, pl := range places {
			b.Run(cl.name+"/"+pl.name, func(b *testing.B) {
				p := newPair(b, n)
				copy(p.got.v, randomState(n, rand.New(rand.NewSource(1))))
				mask := uint64(pl.ctrl) << (pl.bit + 1)
				g := compileGate(len(p.got.v), cl.u, pl.bit, mask, mask)
				pairs := len(p.got.v) >> (1 + pl.ctrl)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.got.applyCompiled(&g)
				}
				b.ReportMetric(float64(pairs*cl.halves), "amps_touched/op")
			})
		}
	}
}

// BenchmarkKraus2 prices one two-qubit Kraus branch on a 14-qubit
// register: the quadruple update, then the rescale. The qubit pairs put
// the two bits at the top, in the middle and at the bottom of the
// index; exact mode's dense vec(ρ) runs one per two-qubit channel.
func BenchmarkKraus2(b *testing.B) {
	const n = 14
	var k [4][4]complex128
	for r := range k {
		for c := range k[r] {
			k[r][c] = complex(0.1*float64(r+1), -0.05*float64(c))
		}
	}
	for _, qs := range [][2]int{{0, 1}, {4, 9}, {12, 13}} {
		b.Run(fmt.Sprintf("q%d,q%d", qs[0], qs[1]), func(b *testing.B) {
			p := newPair(b, n)
			copy(p.got.v, randomState(n, rand.New(rand.NewSource(1))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.got.ApplyKraus2(qs[0], qs[1], k, 0.5)
			}
		})
	}
}
