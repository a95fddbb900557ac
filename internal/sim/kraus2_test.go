package sim_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
)

// randomKraus2 draws a random 4×4 operator with a positive branch
// probability for the current state: a random Pauli-pair mixture
// branch scaled to keep the test numerically honest.
func randomUnitary2(rng *rand.Rand) [4][4]complex128 {
	// Gram–Schmidt on a random complex matrix gives a Haar-ish 4×4
	// unitary — enough for a differential test.
	var m [4][4]complex128
	for i := range m {
		for j := range m[i] {
			m[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < i; k++ {
			var dot complex128
			for j := 0; j < 4; j++ {
				dot += cmplx.Conj(m[k][j]) * m[i][j]
			}
			for j := 0; j < 4; j++ {
				m[i][j] -= dot * m[k][j]
			}
		}
		var norm float64
		for j := 0; j < 4; j++ {
			norm += real(m[i][j])*real(m[i][j]) + imag(m[i][j])*imag(m[i][j])
		}
		norm = math.Sqrt(norm)
		for j := 0; j < 4; j++ {
			m[i][j] /= complex(norm, 0)
		}
	}
	return m
}

// TestApplyKraus2BackendsAgree drives the two-qubit Kraus path of all
// three backends with random unitaries on random states and compares
// every basis probability — the differential proof that the dd and
// sparse embeddings implement the same operator convention as the
// dense reference.
func TestApplyKraus2BackendsAgree(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := int64(100 + trial)
		n := 3 + trial%3
		c := randomCircuit(n, 12, seed)
		rng := rand.New(rand.NewSource(seed))
		q0 := rng.Intn(n)
		q1 := (q0 + 1 + rng.Intn(n-1)) % n
		u := randomUnitary2(rng)

		backends := map[string]sim.Backend{}
		for name, f := range factories() {
			b := runAll(t, f, c)
			b.ApplyKraus2(q0, q1, u, 1)
			backends[name] = b
		}
		ref := backends["statevec"]
		dim := 1 << n
		for name, b := range backends {
			if name == "statevec" {
				continue
			}
			for i := 0; i < dim; i++ {
				if d := math.Abs(b.Probability(uint64(i)) - ref.Probability(uint64(i))); d > 1e-9 {
					t.Fatalf("trial %d: %s deviates from statevec at basis %d by %g (q0=%d q1=%d)",
						trial, name, i, d, q0, q1)
				}
			}
		}
		if n2 := ref.Norm2(); math.Abs(n2-1) > 1e-9 {
			t.Fatalf("trial %d: unitary Kraus op broke the norm: %v", trial, n2)
		}
	}
}

// checkPauliPair prepares c on two backends from f and applies the
// pair P0⊗P1 to (q0, q1) — q0 on the high bit — on one as
// ApplyPauli(p0, q0) then ApplyPauli(p1, q1), the way noise.Chan2.Fire
// applies a crosstalk branch, and on the other as ApplyKraus2 of
// noise.PauliPairMat(p0, p1). On statevec and sparse every amplitude
// must be equal: both paths multiply by the same ±1, ±i entries, and
// the 4×4 pass only adds products with its zero entries, which can
// leave +0 where the Paulis leave −0, so equality is IEEE ==. On dd,
// whose rounding depends on the products before, the states must agree
// within 1e-12 in normalised fidelity and squared norm.
func checkPauliPair(t *testing.T, name string, f sim.Factory, c *circuit.Circuit, q0, q1 int, p0, p1 sim.Pauli) {
	t.Helper()
	viaPauli := runAll(t, f, c)
	viaPauli.ApplyPauli(p0, q0)
	viaPauli.ApplyPauli(p1, q1)
	viaKraus := runAll(t, f, c)
	viaKraus.ApplyKraus2(q0, q1, noise.PauliPairMat(p0, p1), 1)
	var a, b []complex128
	switch pb := viaPauli.(type) {
	case *statevec.Backend:
		a, b = pb.Amplitudes(), viaKraus.(*statevec.Backend).Amplitudes()
	case *sparsemat.Backend:
		a, b = pb.Amplitudes(), viaKraus.(*sparsemat.Backend).Amplitudes()
	case *ddback.Backend:
		kb := viaKraus.(*ddback.Backend)
		a, b = pb.Package().ToVector(pb.State()), kb.Package().ToVector(kb.State())
		pb.Release()
		kb.Release()
		var dot complex128
		var na, nb float64
		for i := range a {
			dot += cmplx.Conj(a[i]) * b[i]
			na += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
			nb += real(b[i])*real(b[i]) + imag(b[i])*imag(b[i])
		}
		d := cmplx.Abs(dot)
		if fid := d * d / (na * nb); 1-fid > 1e-12 || math.Abs(na-nb) > 1e-12 {
			t.Fatalf("dd %s: %v%v on (q%d, q%d): fidelity %v, squared norms %v (Paulis) and %v (ApplyKraus2)",
				c.Name, p0, p1, q0, q1, fid, na, nb)
		}
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s %s: %v%v on (q%d, q%d): amplitude %d is %v as two Paulis, %v as ApplyKraus2",
				name, c.Name, p0, p1, q0, q1, i, a[i], b[i])
		}
	}
}

// TestApplyKraus2PauliPairMatchesApplyPauli pins the operand convention
// and the crosstalk fire path (checkPauliPair) for all 16 Pauli pairs
// on every ordered qubit pair of a 5-qubit register — ascending and
// descending, adjacent and not — on states prepared by random circuits.
func TestApplyKraus2PauliPairMatchesApplyPauli(t *testing.T) {
	const n = 5
	for seed := int64(0); seed < 3; seed++ {
		c := randomCircuit(n, 40, seed)
		for name, f := range factories() {
			for q0 := 0; q0 < n; q0++ {
				for q1 := 0; q1 < n; q1++ {
					for p := 0; p < 16 && q0 != q1; p++ {
						checkPauliPair(t, name, f, c, q0, q1, sim.Pauli(p/4), sim.Pauli(p%4))
					}
				}
			}
		}
	}
}

// FuzzPauliPairs checks the same property on a fuzzed random circuit
// of 2–8 qubits, a fuzzed ordered qubit pair and a fuzzed Pauli pair,
// on all three backends.
func FuzzPauliPairs(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20), uint8(0), uint8(1), uint8(15))
	f.Add(int64(2), uint8(8), uint8(60), uint8(7), uint8(0), uint8(10))
	f.Add(int64(3), uint8(2), uint8(5), uint8(1), uint8(0), uint8(1))
	f.Add(int64(4), uint8(6), uint8(40), uint8(2), uint8(4), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nq, gates, a, b, pair uint8) {
		n := 2 + int(nq)%7
		q0 := int(a) % n
		q1 := (q0 + 1 + int(b)%(n-1)) % n
		p := int(pair) % 16
		c := randomCircuit(n, int(gates)%80, seed)
		for name, f := range factories() {
			checkPauliPair(t, name, f, c, q0, q1, sim.Pauli(p/4), sim.Pauli(p%4))
		}
	})
}

// TestApplyKraus2BranchProbRenormalises checks the branchProb
// contract: applying a sub-normalised branch operator √p·(P⊗P') with
// branchProb p restores a unit-norm state.
func TestApplyKraus2BranchProbRenormalises(t *testing.T) {
	p := 0.3
	scale := complex(math.Sqrt(p), 0)
	for name, f := range factories() {
		b := runAll(t, f, circuit.GHZ(4))
		u := noise.PauliPairMat(sim.PauliX, sim.PauliZ)
		for i := range u {
			for j := range u[i] {
				u[i][j] *= scale
			}
		}
		b.ApplyKraus2(0, 2, u, p)
		if n2 := b.Norm2(); math.Abs(n2-1) > 1e-9 {
			t.Errorf("%s: norm² = %v after renormalised branch", name, n2)
		}
	}
}
