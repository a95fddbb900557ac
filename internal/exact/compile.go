package exact

import (
	"fmt"
	"math/cmplx"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
)

// The compiler turns a circuit and its noise plan into a program on
// 2n qubits that evolves vec(ρ), the Liouville (vectorised) form of
// Wood, Biamonte and Cory, "Tensor networks and graphical calculus for
// open quantum systems" (arXiv:1111.6950). Qubit q's row bit is
// program qubit 2q and its column bit program qubit 2q+1, so ρ[r][c]
// is the amplitude whose row bits spell r and whose column bits spell
// c. The program runs on a trajectory backend unchanged: ddback holds
// the DD form, statevec the dense one.

// vector is vec(ρ) on 2n qubits: *ddback.Backend or *statevec.Backend.
// Snapshot pins the diagram (DD) or copies the array (dense); Mix
// folds a snapshot into the current state and releases it.
type vector interface {
	sim.Backend
	sim.Forker
	FidelityTo(s sim.Snapshot) float64
	ApplyMatrix(u circuit.Mat2, target int, controls []circuit.Control)
	Mix(s sim.State, w, wo float64)
}

type stepKind uint8

const (
	// stepSuper applies sup to the row/column pair (2q, 2q+1).
	stepSuper stepKind = iota
	// stepGate applies u to 2q under the controls' row bits and conj(u)
	// to 2q+1 under their column bits: vec(UρU†) = (U ⊗ U*)vec(ρ).
	stepGate
	// stepChan2 applies Σ_k (K_k on the row bits of (q, q1))(K_k* on
	// their column bits), one term at a time from a snapshot.
	stepChan2
)

// step is one operation of the doubled program.
type step struct {
	kind       stepKind
	q, q1      int
	sup        [4][4]complex128
	u, uc      circuit.Mat2
	rows, cols []circuit.Control
	kraus      [][4][4]complex128
	krausConj  [][4][4]complex128
}

// program is a circuit compiled onto vec(ρ): ops[i] holds the steps
// of circuit op i, none for measurements and barriers (the engine
// branches on a measurement itself).
type program [][]step

// compile builds the doubled program of c under plan. An uncontrolled
// gate and the single-qubit channels next to it on its qubit fuse
// into one 4×4 superoperator; a controlled gate doubles into its row
// and column halves. The column half carries the conjugated matrix,
// not a gate name: conj(Y) = −Y has no name, and under a control the
// sign is not a global phase.
func compile(c *circuit.Circuit, plan *noise.Plan) (program, error) {
	prog := make(program, len(c.Ops))
	for i := range c.Ops {
		op := &c.Ops[i]
		var steps []step
		switch op.Kind {
		case circuit.KindGate:
			u, err := circuit.GateMatrix(op.Name, op.Params)
			if err != nil {
				return nil, fmt.Errorf("exact: op %d: %w", i, err)
			}
			on := plan.At(i)
			if on != nil {
				steps = appendChans1(steps, on.Pre)
			}
			if len(op.Controls) == 0 {
				steps = appendSuper(steps, op.Target, super1([][2][2]complex128{u}))
			} else {
				steps = append(steps, gateStep(u, op.Target, op.Controls))
			}
			if on != nil {
				steps = appendChans1(steps, on.Post)
				for k := range on.Post2 {
					steps = append(steps, chan2Step(&on.Post2[k]))
				}
			}
		case circuit.KindReset:
			steps = appendSuper(nil, op.Target, super1(noise.ResetKraus()))
		}
		prog[i] = steps
	}
	return prog, nil
}

func appendChans1(steps []step, chs []noise.Chan1) []step {
	for k := range chs {
		steps = appendSuper(steps, chs[k].Qubit, super1(chs[k].Kraus()))
	}
	return steps
}

// appendSuper appends the superoperator sup on qubit q, fused into the
// last step when that one is a superoperator on q too.
func appendSuper(steps []step, q int, sup [4][4]complex128) []step {
	if n := len(steps); n > 0 && steps[n-1].kind == stepSuper && steps[n-1].q == q {
		steps[n-1].sup = mul4(&sup, &steps[n-1].sup)
		return steps
	}
	return append(steps, step{kind: stepSuper, q: q, sup: sup})
}

func gateStep(u circuit.Mat2, target int, controls []circuit.Control) step {
	s := step{kind: stepGate, q: target, u: u}
	for i := range u {
		for j := range u[i] {
			s.uc[i][j] = cmplx.Conj(u[i][j])
		}
	}
	for _, ctl := range controls {
		s.rows = append(s.rows, circuit.Control{Qubit: 2 * ctl.Qubit, Negative: ctl.Negative})
		s.cols = append(s.cols, circuit.Control{Qubit: 2*ctl.Qubit + 1, Negative: ctl.Negative})
	}
	return s
}

func chan2Step(ch *noise.Chan2) step {
	s := step{kind: stepChan2, q: ch.Q0, q1: ch.Q1, kraus: ch.Kraus()}
	s.krausConj = make([][4][4]complex128, len(s.kraus))
	for k := range s.kraus {
		for i := range s.kraus[k] {
			for j := range s.kraus[k][i] {
				s.krausConj[k][i][j] = cmplx.Conj(s.kraus[k][i][j])
			}
		}
	}
	return s
}

// apply runs the step on v.
func (s *step) apply(v vector) {
	switch s.kind {
	case stepSuper:
		v.ApplyKraus2(2*s.q, 2*s.q+1, s.sup, 1)
	case stepGate:
		v.ApplyMatrix(s.u, 2*s.q, s.rows)
		v.ApplyMatrix(s.uc, 2*s.q+1, s.cols)
	case stepChan2:
		// Every term starts from the input x; the partial sum waits as a
		// snapshot while the next term runs, and Mix adds it back. The
		// last term takes x over with Mix(x, 0, 1), which releases it.
		last := len(s.kraus) - 1
		var x sim.State
		if last > 0 {
			x = v.Snapshot()
		}
		for k := range s.kraus {
			var sum sim.State
			if k > 0 {
				sum = v.Snapshot()
				if k < last {
					v.Restore(x)
				} else {
					v.Mix(x, 0, 1)
				}
			}
			v.ApplyKraus2(2*s.q, 2*s.q1, s.kraus[k], 1)
			v.ApplyKraus2(2*s.q+1, 2*s.q1+1, s.krausConj[k], 1)
			if k > 0 {
				v.Mix(sum, 1, 1)
			}
		}
	}
}

// super1 vectorises a single-qubit Kraus set into the 4×4
// superoperator on the (row, column) bit pair of the qubit:
// S[(i,j),(a,b)] = Σ_k K[i][a]·conj(K[j][b]), so that
// vec(Σ_k KρK†) = S·vec(ρ) with the row bit high.
func super1(kraus [][2][2]complex128) [4][4]complex128 {
	var s [4][4]complex128
	for _, k := range kraus {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						s[i*2+j][a*2+b] += k[i][a] * cmplx.Conj(k[j][b])
					}
				}
			}
		}
	}
	return s
}

// mul4 returns the product a·b.
func mul4(a, b *[4][4]complex128) [4][4]complex128 {
	var p [4][4]complex128
	for i := range p {
		for j := range p[i] {
			for l := range a[i] {
				p[i][j] += a[i][l] * b[l][j]
			}
		}
	}
	return p
}
