package ddensity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/cnum"
	"ddsim/internal/density"
	"ddsim/internal/noise"
)

// purityByProduct is the reference for Purity: it builds ρ·ρ as a
// diagram and takes its trace. It agrees with the pair walk but interns
// every weight of the product, which at ten qubits of noisy QFT runs to
// gigabytes.
func purityByProduct(s *Simulator) float64 {
	sq := s.pkg.MulMM(s.rho, s.rho)
	return (&Simulator{pkg: s.pkg, rho: sq, n: s.n}).Trace()
}

// purityOfMatrix evaluates Σ_ij ρ_ij ρ_ji on the diagram expanded to a
// dense matrix: the purity of exactly the diagram the walk reads, with
// no interning in between.
func purityOfMatrix(s *Simulator) float64 {
	m := s.pkg.ToMatrix(s.rho)
	var sum complex128
	for i := range m {
		for j := range m {
			sum += m[i][j] * m[j][i]
		}
	}
	return real(sum)
}

// randomPurityCircuit draws gates over n qubits: single-qubit Cliffords,
// T and rotations, CX, controlled phases and (n ≥ 3) Toffolis.
func randomPurityCircuit(n, gates int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("random_%d", n), n)
	singles := []string{"h", "x", "s", "t", "sx"}
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		ctl := (q + 1 + rng.Intn(max(n-1, 1))) % n
		switch k := rng.Intn(5); {
		case k == 0:
			c.Gate([]string{"rx", "ry", "rz"}[rng.Intn(3)], q, rng.Float64()*2*math.Pi)
		case k == 1 && n > 1:
			c.CX(ctl, q)
		case k == 2 && n > 1:
			c.CPhase(ctl, q, rng.Float64()*math.Pi)
		case k == 3 && n > 2:
			qs := rng.Perm(n)
			c.CCX(qs[0], qs[1], qs[2])
		default:
			c.Gate(singles[rng.Intn(len(singles))], q)
		}
	}
	return c
}

type namedModel struct {
	name string
	m    noise.Model
}

// purityModels is one model of each family the exact engine runs.
func purityModels() []namedModel {
	exactT1 := noise.PaperDefaults()
	exactT1.DampingAsEvent = false
	dev := extTestDevice()
	dev.Qubits = append(dev.Qubits, noise.DeviceQubit{T1us: 70, T2us: 90})
	return []namedModel{
		{"paper", noise.PaperDefaults()},
		{"exact-t1", exactT1},
		{"device", noise.Model{Device: dev}},
		{"crosstalk", noise.Model{Depolarizing: 0.01, Crosstalk: &noise.Crosstalk{Strength: 0.05, ZZBias: 0.5}}},
		{"idle", noise.Model{Damping: 0.05, Idle: &noise.IdleNoise{Damping: 0.02, Dephasing: 0.03}}},
		{"twirled", noise.Model{Depolarizing: 0.02, Damping: 0.08, PhaseFlip: 0.02}.Twirl()},
	}
}

// TestPurityWalkMatchesProduct holds the pair walk to the expanded
// diagram (1e-12), the ρ·ρ reference (1e-12) and the dense engine
// (1e-10) on evolved states and on the states the exact engine's
// branching derives from them — a projected branch, a mixture of
// branches and a rescaled mixture. It runs at the package's own
// tolerance and again at the stochastic engine's, where the two
// references are only good to the looser tolerance.
func TestPurityWalkMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, nm := range purityModels() {
		name, m := nm.name, nm.m
		for n := 1; n <= 5; n++ {
			c := randomPurityCircuit(n, 6*n, rng)
			q, outcome := rng.Intn(n), rng.Intn(2)
			for _, tol := range []float64{WeightTolerance, cnum.Tolerance} {
				got, err := runCircuit(c, m, tol)
				if err != nil {
					t.Fatal(err)
				}
				want, err := density.RunCircuit(c, m)
				if err != nil {
					t.Fatal(err)
				}
				check := func(stage string, s *Simulator, d *density.Simulator) {
					t.Helper()
					pu := s.Purity()
					if ref := purityOfMatrix(s); math.Abs(pu-ref) > 1e-12 {
						t.Errorf("%s n=%d tol=%g %s: walk %v, expanded diagram %v", name, n, tol, stage, pu, ref)
					}
					// Both references round at tol: the product interns
					// every weight of ρ·ρ, and the evolution every weight
					// of ρ over dozens of gates and channels.
					if ref := purityByProduct(s); math.Abs(pu-ref) > 1e-12+tol {
						t.Errorf("%s n=%d tol=%g %s: walk %v, product %v", name, n, tol, stage, pu, ref)
					}
					if ref := d.Purity(); math.Abs(pu-ref) > 1e-10+100*tol {
						t.Errorf("%s n=%d tol=%g %s: walk %v, dense %v", name, n, tol, stage, pu, ref)
					}
				}
				check("evolved", got, want)
				branch, dBranch := got.Clone(), want.Clone()
				p, dp := branch.MeasureProject(q, outcome), dBranch.MeasureProject(q, outcome)
				if p > 0 && dp > 0 {
					check("projected", branch, dBranch)
				}
				got.Mix(branch, 0.7, 0.3)
				want.Mix(dBranch, 0.7, 0.3)
				check("mixed", got, want)
				got.Scale(0.8)
				want.Scale(0.8)
				check("scaled", got, want)
				branch.Release()
			}
		}
	}
}

// TestPurityCreatesNothing: reading the purity leaves the package as it
// found it — no node, no interned weight, no compute-cache probe.
func TestPurityCreatesNothing(t *testing.T) {
	m := noise.Model{
		Depolarizing: 0.01,
		Crosstalk:    &noise.Crosstalk{Strength: 0.05, ZZBias: 0.5},
		Idle:         &noise.IdleNoise{Damping: 0.02, Dephasing: 0.03},
	}
	s, err := RunCircuit(circuit.QFT(5), m)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Package().Stats()
	pu := s.Purity()
	after := s.Package().Stats()
	if pu <= 0 || pu >= 1 {
		t.Fatalf("noisy purity %v outside (0, 1)", pu)
	}
	if after.MNodes != before.MNodes || after.Weights != before.Weights || after.ComputeLookups != before.ComputeLookups {
		t.Errorf("Purity changed the package: nodes %d → %d, weights %d → %d, compute lookups %d → %d",
			before.MNodes, after.MNodes, before.Weights, after.Weights, before.ComputeLookups, after.ComputeLookups)
	}
}
