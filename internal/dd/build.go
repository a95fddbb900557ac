package dd

import "fmt"

// Mat2 is a dense 2×2 complex matrix, the elementary building block of
// every operation diagram (row-major: [row][col]).
type Mat2 [2][2]complex128

// ZeroState returns the decision diagram of |0…0⟩. The diagram is a
// chain of n nodes whose |1⟩ successors are all zero stubs — the
// textbook example of DD compactness (n nodes for a 2^n vector).
func (p *Package) ZeroState() VEdge {
	return p.BasisState(0)
}

// BasisState returns the decision diagram of the computational basis
// state |bits⟩, where bit i of bits (counting from the least
// significant bit) is the value of qubit q_{n-1-i}; i.e. bits is the
// integer index into the state vector, matching the paper's ordering
// with q0 most significant.
func (p *Package) BasisState(bits uint64) VEdge {
	if p.nQubits < MaxQubits && bits >= 1<<uint(p.nQubits) {
		panic(fmt.Sprintf("dd: basis state %d out of range for %d qubits", bits, p.nQubits))
	}
	e := p.TerminalEdge(p.W.One)
	for level := 1; level <= p.nQubits; level++ {
		bit := (bits >> uint(level-1)) & 1
		if bit == 0 {
			e = p.makeVNode(level, e, p.ZeroEdge())
		} else {
			e = p.makeVNode(level, p.ZeroEdge(), e)
		}
	}
	return e
}

// FromVector builds the decision diagram representing the given
// amplitude vector. len(amps) must equal 2^n. Intended for tests and
// small-scale cross-validation against the array backends.
func (p *Package) FromVector(amps []complex128) VEdge {
	if len(amps) != 1<<uint(p.nQubits) {
		panic(fmt.Sprintf("dd: FromVector got %d amplitudes, want %d", len(amps), 1<<uint(p.nQubits)))
	}
	return p.fromVectorRec(amps, p.nQubits)
}

func (p *Package) fromVectorRec(amps []complex128, level int) VEdge {
	if level == 0 {
		return p.TerminalEdge(p.W.LookupC(amps[0]))
	}
	half := len(amps) / 2
	e0 := p.fromVectorRec(amps[:half], level-1)
	e1 := p.fromVectorRec(amps[half:], level-1)
	return p.makeVNode(level, e0, e1)
}

// FromMatrix builds a matrix diagram from a dense 2^n × 2^n matrix
// given in row-major order. Intended for tests.
func (p *Package) FromMatrix(m [][]complex128) MEdge {
	dim := 1 << uint(p.nQubits)
	if len(m) != dim {
		panic(fmt.Sprintf("dd: FromMatrix got %d rows, want %d", len(m), dim))
	}
	return p.fromMatrixRec(m, 0, 0, dim, p.nQubits)
}

func (p *Package) fromMatrixRec(m [][]complex128, r, c, size, level int) MEdge {
	if level == 0 {
		return MEdge{N: nil, W: p.W.LookupC(m[r][c])}
	}
	h := size / 2
	var e [4]MEdge
	e[0] = p.fromMatrixRec(m, r, c, h, level-1)
	e[1] = p.fromMatrixRec(m, r, c+h, h, level-1)
	e[2] = p.fromMatrixRec(m, r+h, c, h, level-1)
	e[3] = p.fromMatrixRec(m, r+h, c+h, h, level-1)
	return p.makeMNode(level, e)
}

// Identity returns the matrix diagram of the 2^n × 2^n identity — a
// linear-size chain of nodes.
func (p *Package) Identity() MEdge {
	e := MEdge{N: nil, W: p.W.One}
	for level := 1; level <= p.nQubits; level++ {
		e = p.makeMNode(level, [4]MEdge{e, p.ZeroMEdge(), p.ZeroMEdge(), e})
	}
	return e
}

// ProductOperator builds the matrix diagram of the Kronecker product
// factors[0] ⊗ factors[1] ⊗ … ⊗ factors[n-1], where factors[q] acts on
// qubit q (q0 most significant / top level). Every factor that is nil
// is taken to be the 2×2 identity. Construction is bottom-up and adds
// at most one node per level, so arbitrary product operators (identity
// chains, Pauli strings, projector chains) cost O(n) nodes.
func (p *Package) ProductOperator(factors []*Mat2) MEdge {
	if len(factors) != p.nQubits {
		panic(fmt.Sprintf("dd: ProductOperator got %d factors, want %d", len(factors), p.nQubits))
	}
	id := Mat2{{1, 0}, {0, 1}}
	e := MEdge{N: nil, W: p.W.One}
	for level := 1; level <= p.nQubits; level++ {
		f := factors[p.levelToQubit(level)]
		if f == nil {
			f = &id
		}
		var kids [4]MEdge
		kids[0] = p.scaleM(e, p.W.LookupC(f[0][0]))
		kids[1] = p.scaleM(e, p.W.LookupC(f[0][1]))
		kids[2] = p.scaleM(e, p.W.LookupC(f[1][0]))
		kids[3] = p.scaleM(e, p.W.LookupC(f[1][1]))
		e = p.makeMNode(level, kids)
	}
	return e
}

// Control describes a control qubit of a gate. Positive controls
// trigger on |1⟩ (the usual case), negative controls on |0⟩.
type Control struct {
	Qubit    int
	Negative bool
}

// SingleQubitGate returns the matrix diagram of the n-qubit operator
// that applies u to the target qubit and the identity elsewhere.
func (p *Package) SingleQubitGate(u Mat2, target int) MEdge {
	factors := p.factorSlice()
	factors[target] = &u
	return p.ProductOperator(factors)
}

// ControlledGate returns the matrix diagram of the controlled
// operator: u is applied to the target qubit iff every positive
// control is |1⟩ and every negative control is |0⟩.
//
// The diagram is built bottom-up in one pass, one node per quadrant
// and level. Below the target it carries the four quadrants of u
// separately: a free level passes each through on the diagonal, and a
// control level puts the quadrant on its triggering side and, on the
// other side, the identity for the diagonal quadrants and zero for the
// off-diagonal ones. The target level joins the four. Above it there
// is one node per level: the gate and the identity beside a control,
// the gate twice on the diagonal elsewhere. So the cost is O(n) nodes
// whatever the number of controls, and no diagram arithmetic runs.
func (p *Package) ControlledGate(u Mat2, target int, controls []Control) MEdge {
	const free, pos, neg = 0, 1, 2
	var kind [MaxQubits]uint8
	top := 0 // the highest control level: no identity is needed above it
	for _, c := range controls {
		if c.Qubit == target {
			panic("dd: control coincides with target")
		}
		top = max(top, p.qubitToLevel(c.Qubit))
		if kind[c.Qubit] != free {
			panic(fmt.Sprintf("dd: duplicate control on qubit %d", c.Qubit))
		}
		kind[c.Qubit] = pos
		if c.Negative {
			kind[c.Qubit] = neg
		}
	}
	t := p.qubitToLevel(target)
	zero := p.ZeroMEdge()
	// diag is a level's node with e on the diagonal: on the triggering
	// side of a control, with other on the side that does not trigger,
	// or on both sides of a free level.
	diag := func(level int, e, other MEdge) MEdge {
		switch kind[p.levelToQubit(level)] {
		case pos:
			return p.makeMNode(level, [4]MEdge{other, zero, zero, e})
		case neg:
			return p.makeMNode(level, [4]MEdge{e, zero, zero, other})
		}
		return p.makeMNode(level, [4]MEdge{e, zero, zero, e})
	}
	id := MEdge{N: nil, W: p.W.One} // the identity on the levels below
	var quad [4]MEdge
	for i := range quad {
		quad[i] = MEdge{N: nil, W: p.W.LookupC(u[i/2][i%2])}
	}
	var e MEdge
	for level := 1; level <= p.nQubits; level++ {
		switch {
		case level < t:
			for i := range quad {
				// Where a control does not trigger, the gate is the
				// identity: its diagonal quadrants hold the identity
				// there, its off-diagonal ones zero.
				other := zero
				if i == 0 || i == 3 {
					other = id
				}
				quad[i] = diag(level, quad[i], other)
			}
		case level == t:
			e = p.makeMNode(level, quad)
		default:
			e = diag(level, e, id)
		}
		if level < top {
			id = p.makeMNode(level, [4]MEdge{id, zero, zero, id})
		}
	}
	return e
}
