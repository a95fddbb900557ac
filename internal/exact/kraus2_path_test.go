package exact

import (
	"sync/atomic"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/stochastic"
)

// countingDD is a DD backend that counts its ApplyPauli and
// ApplyKraus2 calls. Embedding the concrete backend keeps every
// capability the engine looks for (forking, release, table stats), so
// a job runs the path it runs unwrapped.
type countingDD struct {
	*ddback.Backend
	paulis, kraus2 *atomic.Int64
}

func (b countingDD) ApplyPauli(p sim.Pauli, q int) {
	b.paulis.Add(1)
	b.Backend.ApplyPauli(p, q)
}

func (b countingDD) ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64) {
	b.kraus2.Add(1)
	b.Backend.ApplyKraus2(q0, q1, k, branchProb)
}

// countingVector counts the exact engine's ApplyKraus2 calls.
type countingVector struct {
	vector
	kraus2 int
}

func (v *countingVector) ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64) {
	v.kraus2++
	v.vector.ApplyKraus2(q0, q1, k, branchProb)
}

// TestCrosstalkTakesNoKraus2InStochasticMode: a stochastic crosstalk
// event is two single-qubit Paulis, so a QFT-8 job on DD makes no
// ApplyKraus2 call at all, and at least one ApplyPauli call per fired
// event. At strength 1 every two-qubit gate fires its channel, so a
// job fires runs × (two-qubit gates) events. Exact mode still applies
// the channel's 4×4 superoperators through ApplyKraus2.
func TestCrosstalkTakesNoKraus2InStochasticMode(t *testing.T) {
	c := circuit.QFT(8)
	model := noise.Model{Crosstalk: &noise.Crosstalk{Strength: 1, ZZBias: 0.3}}
	pairGates := 0
	for i := range c.Ops {
		if len(c.Ops[i].Qubits()) == 2 {
			pairGates++
		}
	}

	var paulis, kraus2 atomic.Int64
	factory := func(c *circuit.Circuit) (sim.Backend, error) {
		b, err := ddback.New(c)
		if err != nil {
			return nil, err
		}
		return countingDD{Backend: b, paulis: &paulis, kraus2: &kraus2}, nil
	}
	const runs = 50
	res, err := stochastic.Run(c, factory, model, stochastic.Options{Runs: runs, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	events := int64(res.Runs * pairGates)
	if res.Runs != runs || events == 0 {
		t.Fatalf("%d runs over %d two-qubit gates", res.Runs, pairGates)
	}
	if n := kraus2.Load(); n != 0 {
		t.Errorf("stochastic job made %d ApplyKraus2 calls, want 0", n)
	}
	if n := paulis.Load(); n < events {
		t.Errorf("stochastic job made %d ApplyPauli calls for %d fired crosstalk events", n, events)
	}

	plan, err := model.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVector(DDensity, c.NumQubits)
	if err != nil {
		t.Fatal(err)
	}
	defer v.(*ddback.Backend).Release()
	cv := &countingVector{vector: v}
	m := &machine{v: cv, n: c.NumQubits}
	for i := range prog {
		m.run(prog[i])
	}
	if cv.kraus2 == 0 {
		t.Error("exact mode made no ApplyKraus2 call")
	}
}
