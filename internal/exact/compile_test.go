package exact

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/density"
	"ddsim/internal/noise"
	"ddsim/internal/statevec"
)

// The doubled program is checked against internal/density, which
// shares no kernel with it: density applies UρU† and Σ_k KρK† on a
// dense matrix, the program runs superoperators on vec(ρ).

// rhoEntry reads ρ[r][c] off the dense reference through its one
// general read, ⟨ψ|ρ|ψ⟩, by polarisation: with d = (ρ_rr + ρ_cc)/2,
// ψ = (|r⟩+|c⟩)/√2 gives d + Re ρ_rc and ψ = (|r⟩+i|c⟩)/√2 gives
// d − Im ρ_rc.
func rhoEntry(s *density.Simulator, r, c uint64) complex128 {
	if r == c {
		return complex(s.Probability(r), 0)
	}
	d := (s.Probability(r) + s.Probability(c)) / 2
	psi := make([]complex128, 1<<uint(s.NumQubits()))
	psi[r], psi[c] = complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)
	re := s.FidelityWithPure(psi) - d
	psi[c] = complex(0, 1/math.Sqrt2)
	im := d - s.FidelityWithPure(psi)
	return complex(re, im)
}

// vecIndex is the index of ρ[r][c] in vec(ρ): bit j of r at bit 2j+1,
// bit j of c at bit 2j.
func vecIndex(r, c uint64) uint64 {
	return diagIndex(r)&0xAAAAAAAAAAAAAAAA | diagIndex(c)&0x5555555555555555
}

// amplitudes returns the whole vec(ρ) the backend holds.
func amplitudes(v vector) []complex128 {
	if d, ok := v.(*ddback.Backend); ok {
		return d.Package().ToVector(d.State())
	}
	return v.(*statevec.Backend).Amplitudes()
}

// assertSameRho fails unless every entry of the vector matches the
// reference ρ to tol.
func assertSameRho(t *testing.T, label string, v vector, ref *density.Simulator, tol float64) {
	t.Helper()
	vec := amplitudes(v)
	dim := uint64(1) << uint(ref.NumQubits())
	for r := uint64(0); r < dim; r++ {
		for c := uint64(0); c < dim; c++ {
			want := rhoEntry(ref, r, c)
			if d := cmplx.Abs(vec[vecIndex(r, c)] - want); d > tol {
				t.Fatalf("%s: ρ[%d][%d] = %v, reference %v (off by %.3g)", label, r, c, vec[vecIndex(r, c)], want, d)
			}
		}
	}
}

// runProgram compiles c under model and runs it on a fresh vector of
// form rep. The circuit must be measurement- and condition-free.
func runProgram(t *testing.T, rep string, c *circuit.Circuit, model noise.Model) vector {
	t.Helper()
	plan, err := model.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVector(rep, c.NumQubits)
	if err != nil {
		t.Fatal(err)
	}
	m := &machine{v: v, n: c.NumQubits}
	for i := range prog {
		m.run(prog[i])
	}
	return v
}

func TestVecIndex(t *testing.T) {
	// n = 2: ρ[r][c] sits at r1 c1 r0 c0 (q0 most significant).
	for _, tc := range []struct{ r, c, want uint64 }{
		{0, 0, 0}, {3, 3, 15}, {2, 0, 8}, {0, 2, 4}, {1, 0, 2}, {0, 1, 1}, {2, 1, 9},
	} {
		if got := vecIndex(tc.r, tc.c); got != tc.want {
			t.Errorf("vecIndex(%d, %d) = %d, want %d", tc.r, tc.c, got, tc.want)
		}
	}
}

// compilerDevice is a small calibration table naming every gate of
// randomAlphabetCircuit, so device noise varies by gate.
func compilerDevice(n int) *noise.Device {
	d := &noise.Device{
		Name:        fmt.Sprintf("compiler-%dq", n),
		GateTimesNs: map[string]float64{"h": 35, "x": 300, "y": 40, "sx": 30, "*": 50},
		GateErrors:  map[string]float64{"x": 0.02, "y": 0.01, "*": 0.004},
	}
	for q := 0; q < n; q++ {
		d.Qubits = append(d.Qubits, noise.DeviceQubit{T1us: 40 + 15*float64(q), T2us: 30 + 10*float64(q)})
	}
	return d
}

// randomAlphabetCircuit draws gates over the whole alphabet the
// compiler must double: phases with no self-conjugate name (s, sdg,
// t, p, rz), y (conj(Y) = −Y), sx, rotations and u3, each either
// uncontrolled or under one positive or negative control, plus
// Toffolis. It always includes a controlled Y, where a name table
// that conjugates Y into "y" flips the sign of the controlled block.
func randomAlphabetCircuit(n int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("alphabet_%d", rng.Int63()), n)
	c.H(0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "y", Target: 1, Controls: []circuit.Control{{Qubit: 0}}})
	names := []string{"x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz", "p", "u3"}
	for i := 0; i < 18; i++ {
		name := names[rng.Intn(len(names))]
		var params []float64
		switch name {
		case "rx", "ry", "rz", "p":
			params = []float64{rng.Float64()*4 - 2}
		case "u3":
			params = []float64{rng.Float64() * 3, rng.Float64() * 3, rng.Float64() * 3}
		}
		q := rng.Intn(n)
		op := circuit.Op{Kind: circuit.KindGate, Name: name, Target: q, Params: params}
		switch rng.Intn(4) {
		case 1, 2:
			op.Controls = []circuit.Control{{Qubit: (q + 1 + rng.Intn(n-1)) % n, Negative: rng.Intn(2) == 0}}
		case 3:
			if n >= 3 {
				a := (q + 1) % n
				b := (q + 2) % n
				op = circuit.Op{Kind: circuit.KindGate, Name: "x", Target: q,
					Controls: []circuit.Control{{Qubit: a}, {Qubit: b, Negative: rng.Intn(2) == 0}}}
			}
		}
		c.Append(op)
	}
	return c
}

// TestCompilerMatchesDenseReference runs random circuits over the full
// gate alphabet under device, crosstalk and idle noise on both forms
// and holds every entry of vec(ρ), not only the diagonal, to
// density.RunCircuit's ρ within 1e-10.
func TestCompilerMatchesDenseReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed%2)
		c := randomAlphabetCircuit(n, rng)
		models := map[string]noise.Model{
			"noise-free": {},
			"paper":      noise.PaperDefaults().Scale(20),
			"device":     {Device: compilerDevice(n), Idle: &noise.IdleNoise{MomentNs: 120}},
			"crosstalk": {Depolarizing: 0.01, Damping: 0.02,
				Crosstalk: &noise.Crosstalk{Strength: 0.05, ZZBias: 0.3}},
			"idle": {PhaseFlip: 0.01, Idle: &noise.IdleNoise{Damping: 0.02, Dephasing: 0.03}},
		}
		for name, model := range models {
			ref, err := density.RunCircuit(c, model)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range bothBackends {
				v := runProgram(t, rep, c, model)
				assertSameRho(t, fmt.Sprintf("seed %d %s %s", seed, name, rep), v, ref, 1e-10)
			}
		}
	}
}

// TestFusedChannelsMatchPerKraus drives compiled plans — a uniform
// model, whose every touched qubit carries a depolarising → damping →
// phase-flip run, and a calibrated device with idle decay — through
// the program one op at a time and compares every entry of vec(ρ)
// against the reference applying the same channels one Kraus set at a
// time. Under the uniform model an uncontrolled gate and its run must
// fuse into one step, and a controlled gate must cost its doubled
// gate plus one step per touched qubit.
func TestFusedChannelsMatchPerKraus(t *testing.T) {
	device := &noise.Device{
		Name: "fuse-3q",
		Qubits: []noise.DeviceQubit{
			{T1us: 80, T2us: 100}, {T1us: 60, T2us: 60}, {T1us: 100, T2us: 200},
		},
		GateTimesNs: map[string]float64{"h": 35, "cx": 300},
		GateErrors:  map[string]float64{"cx": 0.02, "*": 0.005},
	}
	for name, model := range map[string]noise.Model{
		"uniform": {Depolarizing: 0.05, Damping: 0.1, PhaseFlip: 0.03, DampingAsEvent: true},
		"device":  {Device: device, Idle: &noise.IdleNoise{MomentNs: 200}},
	} {
		c := circuit.QFT(3)
		plan, err := model.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile(c, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range bothBackends {
			v, err := newVector(rep, c.NumQubits)
			if err != nil {
				t.Fatal(err)
			}
			m := &machine{v: v, n: c.NumQubits}
			brute, _ := density.New(c.NumQubits)
			for i := range c.Ops {
				op := &c.Ops[i]
				on := plan.At(i)
				if op.Kind != circuit.KindGate || on == nil {
					t.Fatalf("%s: op %d carries no channels", name, i)
				}
				u, err := circuit.GateMatrix(op.Name, op.Params)
				if err != nil {
					t.Fatal(err)
				}
				brute.ApplyChans1(on.Pre)
				brute.ApplyGate(u, op.Target, op.Controls)
				brute.ApplyChans1(on.Post)
				m.run(prog[i])
				assertSameRho(t, fmt.Sprintf("%s %s op %d", name, rep, i), v, brute, 1e-12)
				if name != "uniform" {
					continue
				}
				want := 1
				if len(op.Controls) > 0 {
					want += len(op.Qubits())
				}
				if len(prog[i]) != want {
					t.Errorf("%s op %d (%s): %d steps, want %d", name, i, op.Name, len(prog[i]), want)
				}
			}
		}
	}
}

// TestDenseBudgetRefusedUpFront: BV-10 under the paper's noise measures
// nine classical bits, so the dense form could hold 256 branches of
// 16 MiB, 4 GiB against statevec's 1 GiB. Forced onto the dense form it
// must fail at validation, before any branch exists, while the small
// dynamic circuits of TestRepresentationsAgreeOnRandomDynamicCircuits
// still run dense.
func TestDenseBudgetRefusedUpFront(t *testing.T) {
	c := bv(10)
	start := time.Now()
	_, err := RunAs(context.Background(), Dense, c, noise.PaperDefaults(), exactOpts())
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("RunAs(Dense, BV-10) = %v, want the dense budget error", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("refusal took %v, want it before any evolution", el)
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		if err := validate(randomDynamicCircuit(n, rng), exactOpts(), Dense); err != nil {
			t.Errorf("seed %d: dense form refused: %v", seed, err)
		}
	}
}

// bv is Bernstein–Vazirani on n qubits (n−1 data qubits, secret all
// ones) with every data qubit measured, the shape of qbench's BV.
func bv(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("bv_%d", n), n)
	anc := n - 1
	c.X(anc).H(anc)
	for q := 0; q < anc; q++ {
		c.H(q)
	}
	for q := 0; q < anc; q++ {
		c.CX(q, anc)
	}
	for q := 0; q < anc; q++ {
		c.H(q)
		c.Measure(q, q)
	}
	return c
}
