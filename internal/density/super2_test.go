package density

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
)

// embedOp4 expands a 4×4 operator on the ordered pair (q0, q1) — q0
// on the high bit — into the full 2^n×2^n matrix, the brute-force
// reference for the blockwise superoperator path.
func embedOp4(n int, u [4][4]complex128, q0, q1 int) [][]complex128 {
	dim := 1 << uint(n)
	b0 := uint(n - 1 - q0)
	b1 := uint(n - 1 - q1)
	out := make([][]complex128, dim)
	for r := 0; r < dim; r++ {
		out[r] = make([]complex128, dim)
		ri := int(uint(r)>>b0&1)<<1 | int(uint(r)>>b1&1)
		rest := uint64(r) &^ (1<<b0 | 1<<b1)
		for ci := 0; ci < 4; ci++ {
			c := rest
			if ci&2 != 0 {
				c |= 1 << b0
			}
			if ci&1 != 0 {
				c |= 1 << b1
			}
			out[r][c] = u[ri][ci]
		}
	}
	return out
}

// bruteChannel2 applies ρ → Σ K ρ K† via full matrix products.
func bruteChannel2(rho [][]complex128, kraus [][4][4]complex128, n, q0, q1 int) [][]complex128 {
	dim := len(rho)
	acc := make([][]complex128, dim)
	for i := range acc {
		acc[i] = make([]complex128, dim)
	}
	for _, k := range kraus {
		km := embedOp4(n, k, q0, q1)
		// km · rho · km†
		tmp := make([][]complex128, dim)
		for i := 0; i < dim; i++ {
			tmp[i] = make([]complex128, dim)
			for j := 0; j < dim; j++ {
				var sum complex128
				for l := 0; l < dim; l++ {
					sum += km[i][l] * rho[l][j]
				}
				tmp[i][j] = sum
			}
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				var sum complex128
				for l := 0; l < dim; l++ {
					sum += tmp[i][l] * cmplx.Conj(km[j][l])
				}
				acc[i][j] += sum
			}
		}
	}
	return acc
}

// TestApplySuperOp2MatchesBruteForce drives the blockwise 16×16
// superoperator path with random crosstalk channels on random mixed
// states and compares every matrix entry against full-matrix Kraus
// conjugation.
func TestApplySuperOp2MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 3
	for trial := 0; trial < 20; trial++ {
		// A mildly mixed, entangled state: GHZ evolution plus noise.
		s, err := RunCircuit(circuit.GHZ(n), noise.Model{Depolarizing: 0.05, Damping: 0.1})
		if err != nil {
			t.Fatal(err)
		}

		q0 := rng.Intn(n)
		q1 := (q0 + 1 + rng.Intn(n-1)) % n
		x := noise.Crosstalk{Strength: rng.Float64() * 0.5, ZZBias: rng.Float64()}
		ch := x.Channel(q0, q1)

		want := bruteChannel2(cloneMatrix(s.rho), ch.Kraus(), n, q0, q1)
		s.ApplyChan2(&ch)
		for i := range want {
			for j := range want[i] {
				if d := cmplx.Abs(s.rho[i][j] - want[i][j]); d > 1e-12 {
					t.Fatalf("trial %d (q0=%d q1=%d): ρ[%d][%d] deviates by %g",
						trial, q0, q1, i, j, d)
				}
			}
		}
		if tr := s.Trace(); cmplx.Abs(tr-1) > 1e-10 {
			t.Fatalf("trial %d: trace = %v after crosstalk channel", trial, tr)
		}
	}
}

// TestFusedChannelsMatchPerKraus drives compiled plans — a uniform
// model, whose every touched qubit carries a depolarising → damping →
// phase-flip run, and a calibrated device with idle decay — through
// ApplyChans1 and compares every matrix entry against applying the same
// channels one Kraus operator at a time. The uniform run must also have
// cost one superoperator: a single cache entry under the joined keys.
func TestFusedChannelsMatchPerKraus(t *testing.T) {
	device := &noise.Device{
		Name: "fuse-3q",
		Qubits: []noise.DeviceQubit{
			{T1us: 80, T2us: 100}, {T1us: 60, T2us: 60}, {T1us: 100, T2us: 200},
		},
		GateTimesNs: map[string]float64{"h": 35, "cx": 300},
		GateErrors:  map[string]float64{"cx": 0.02, "*": 0.005},
	}
	for name, m := range map[string]noise.Model{
		"uniform": {Depolarizing: 0.05, Damping: 0.1, PhaseFlip: 0.03, DampingAsEvent: true},
		"device":  {Device: device, Idle: &noise.IdleNoise{MomentNs: 200}},
	} {
		c := circuit.QFT(3)
		plan, err := m.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		fused, _ := New(c.NumQubits)
		brute, _ := New(c.NumQubits)
		perKraus := func(chs []noise.Chan1) {
			for k := range chs {
				brute.ApplyChannel(chs[k].Kraus(), chs[k].Qubit)
			}
		}
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
			fused.ApplyChans1(on.Pre)
			perKraus(on.Pre)
			fused.ApplyGate(u, op.Target, op.Controls)
			brute.ApplyGate(u, op.Target, op.Controls)
			fused.ApplyChans1(on.Post)
			perKraus(on.Post)
			for r := range brute.rho {
				for col := range brute.rho[r] {
					if d := cmplx.Abs(fused.rho[r][col] - brute.rho[r][col]); d > 1e-12 {
						t.Fatalf("%s op %d: ρ[%d][%d] deviates by %g", name, i, r, col, d)
					}
				}
			}
		}
		if name == "uniform" && len(fused.chanSuper) != 1 {
			t.Errorf("uniform model cached %d superoperators, want the one fused dep→damp→flip run", len(fused.chanSuper))
		}
	}
}
