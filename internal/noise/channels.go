// Concrete noise-channel instances: the compiled form of a Model. A
// Chan1 is one single-qubit channel bound to a qubit, a Chan2 one
// correlated two-qubit Pauli channel bound to a gate's qubit pair.
// Both carry a Kraus view (for the exact engine, the density-matrix
// reference and CPTP tests) and a stochastic Apply (for trajectory
// sampling), so the Monte-Carlo and exact engines consume the same
// objects.
package noise

import (
	"math/rand"

	"ddsim/internal/sim"
)

// ChanKind discriminates the single-qubit channel families.
type ChanKind uint8

// The single-qubit channel kinds.
const (
	// ChanDepolarizing applies I/X/Y/Z with probability p/4 each.
	ChanDepolarizing ChanKind = iota
	// ChanDamping is the amplitude-damping channel (Event selects the
	// paper's Section III event semantics vs the exact Example 6
	// channel with γ = P).
	ChanDamping
	// ChanPhaseFlip applies Z with probability p.
	ChanPhaseFlip
	// ChanPauli applies I/X/Y/Z with the probabilities in Probs — the
	// general Pauli channel produced by twirling.
	ChanPauli
)

// Telemetry label indices: the channel vocabulary reported by the
// ddsim_noise_channel_applications_total counter.
const (
	LabelDepolarizing = iota
	LabelDamping
	LabelPhaseFlip
	LabelTwirled
	LabelIdle
	LabelCrosstalk
	LabelCount
)

// Labels names the telemetry channel kinds, indexed by the Label*
// constants.
var Labels = [LabelCount]string{"depolarizing", "damping", "phaseflip", "twirled", "idle", "crosstalk"}

// ChannelCounts accumulates per-kind channel applications for one
// chunk of trajectories; the engine flushes it into telemetry.
type ChannelCounts [LabelCount]int64

// Chan1 is one single-qubit channel instance bound to a qubit.
type Chan1 struct {
	Kind  ChanKind
	Qubit int
	// Label indexes Labels for telemetry.
	Label int
	// P is the channel probability (γ for damping); unused for
	// ChanPauli.
	P float64
	// Event selects the event semantics for ChanDamping.
	Event bool
	// Probs are the I/X/Y/Z probabilities of a ChanPauli channel.
	Probs [4]float64
}

// Kraus returns the channel's Kraus decomposition (ΣK†K = I).
func (ch *Chan1) Kraus() [][2][2]complex128 {
	switch ch.Kind {
	case ChanDepolarizing:
		p := ch.P
		return [][2][2]complex128{
			scale2(ident2(), complex(sqrt(1-3*p/4), 0)),
			scale2(pauliX(), complex(sqrt(p/4), 0)),
			scale2(pauliY(), complex(sqrt(p/4), 0)),
			scale2(pauliZ(), complex(sqrt(p/4), 0)),
		}
	case ChanDamping:
		p := ch.P
		if ch.Event {
			return [][2][2]complex128{
				scale2(ident2(), complex(sqrt(1-p), 0)),
				{{0, complex(sqrt(p), 0)}, {0, 0}},
				{{complex(sqrt(p), 0), 0}, {0, 0}},
			}
		}
		return [][2][2]complex128{
			{{0, complex(sqrt(p), 0)}, {0, 0}},
			{{1, 0}, {0, complex(sqrt(1-p), 0)}},
		}
	case ChanPhaseFlip:
		p := ch.P
		return [][2][2]complex128{
			scale2(ident2(), complex(sqrt(1-p), 0)),
			scale2(pauliZ(), complex(sqrt(p), 0)),
		}
	case ChanPauli:
		ops := [][2][2]complex128{ident2(), pauliX(), pauliY(), pauliZ()}
		out := make([][2][2]complex128, 0, 4)
		for i, p := range ch.Probs {
			if p > 0 {
				out = append(out, scale2(ops[i], complex(sqrt(p), 0)))
			}
		}
		return out
	}
	return nil
}

// StateIndependent reports whether the channel's firing decision is a
// single draw against a fixed threshold. Only exact-channel damping
// (Event false) is not: its branch probability is γ·P(qubit = 1).
func (ch *Chan1) StateIndependent() bool {
	return ch.Kind != ChanDamping || ch.Event
}

// Threshold is the draw half of a state-independent channel: the
// channel fires iff one rng.Float64() falls below it. For ChanPauli
// it is the cumulative X+Y+Z mass, summed in Fire's selection order so
// that "below the threshold" and "some branch selected" coincide bit
// for bit (TestDrawThenFireMatchesLegacyApply).
func (ch *Chan1) Threshold() float64 {
	if ch.Kind == ChanPauli {
		return ch.Probs[1] + ch.Probs[2] + ch.Probs[3]
	}
	return ch.P
}

// Fire is the other half: it applies the channel's event given that
// the draw r fell below Threshold, consuming whatever further
// randomness the event needs (the Pauli choice of a depolarising hit,
// the branch draw of a damping event; a ChanPauli selects its term
// from r itself).
func (ch *Chan1) Fire(b sim.Backend, rng *rand.Rand, r float64) {
	switch ch.Kind {
	case ChanDepolarizing:
		// The depolarised qubit receives I, X, Y or Z uniformly.
		b.ApplyPauli(sim.Pauli(rng.Intn(4)), ch.Qubit)
	case ChanDamping:
		fireDampingEvent(b, ch.Qubit, rng)
	case ChanPhaseFlip:
		b.ApplyPauli(sim.PauliZ, ch.Qubit)
	case ChanPauli:
		acc := ch.Probs[1]
		if r < acc {
			b.ApplyPauli(sim.PauliX, ch.Qubit)
			return
		}
		acc += ch.Probs[2]
		if r < acc {
			b.ApplyPauli(sim.PauliY, ch.Qubit)
			return
		}
		b.ApplyPauli(sim.PauliZ, ch.Qubit)
	}
}

// Apply samples the channel on one trajectory: draw, then fire. Along
// its reference path the stochastic engine does not draw per channel:
// it samples which roll fires next from the Thresholds and calls Fire
// with a draw uniform below the fired one's. Roll by roll, a compiled
// uniform model consumes the stream of the paper's reference loop on
// Model.
func (ch *Chan1) Apply(b sim.Backend, rng *rand.Rand) {
	if !ch.StateIndependent() {
		applyExactDamping(b, ch.Qubit, ch.P, rng)
		return
	}
	if r := rng.Float64(); r < ch.Threshold() {
		ch.Fire(b, rng, r)
	}
}

// fireDampingEvent realises one relaxation event of the Section III
// event semantics: full-strength damping (γ = 1), branch-selected
// between decay and the no-decay projection with the probabilities of
// Example 6. It draws the branch uniform whatever P(1) is, so a P(1)
// that rounds to 0 or 1 on one backend and not on another cannot
// change how many draws the trajectory takes.
func fireDampingEvent(b sim.Backend, q int, rng *rand.Rand) {
	p1 := b.ProbOne(q)
	r := rng.Float64()
	if p1 <= 0 {
		return // qubit already in |0⟩: the event is invisible
	}
	if r < p1 {
		b.ApplyDamping(q, 1, true, p1)
	} else {
		b.ApplyDamping(q, 1, false, 1-p1)
	}
}

// applyExactDamping samples the exact channel of Example 6 with γ = p:
// the branch probabilities depend on the current state through
// P(q = 1), so there is no state-independent draw to split off. Like
// fireDampingEvent it draws one uniform whatever P(1) is.
func applyExactDamping(b sim.Backend, q int, p float64, rng *rand.Rand) {
	pFire := p * b.ProbOne(q) // ‖A0|ψ⟩‖²
	r := rng.Float64()
	if pFire <= 0 {
		// Qubit is (numerically) in |0⟩; A1 acts as identity.
		return
	}
	if r < pFire {
		b.ApplyDamping(q, p, true, pFire)
	} else {
		b.ApplyDamping(q, p, false, 1-pFire)
	}
}

// PairTerm is one non-identity branch of a correlated two-qubit Pauli
// channel: the pair P0⊗P1 fires with probability Prob.
type PairTerm struct {
	P0, P1 sim.Pauli
	Prob   float64
}

// Chan2 is one correlated two-qubit Pauli channel bound to an ordered
// qubit pair (Q0 indexes the high bit of the 2-qubit basis |Q0 Q1⟩).
type Chan2 struct {
	Q0, Q1 int
	// Label indexes Labels for telemetry.
	Label int
	// Terms are the non-identity branches; the identity branch holds
	// the remaining 1 − ΣProb.
	Terms []PairTerm
}

// pauliMat2 returns the 2×2 matrix of a Pauli operator.
func pauliMat2(p sim.Pauli) [2][2]complex128 {
	switch p {
	case sim.PauliX:
		return pauliX()
	case sim.PauliY:
		return pauliY()
	case sim.PauliZ:
		return pauliZ()
	}
	return ident2()
}

// PauliPairMat returns the 4×4 matrix of P0⊗P1 with P0 on the high
// bit, the operand convention of sim.Backend.ApplyKraus2.
func PauliPairMat(p0, p1 sim.Pauli) [4][4]complex128 {
	a, b := pauliMat2(p0), pauliMat2(p1)
	var out [4][4]complex128
	for i0 := 0; i0 < 2; i0++ {
		for i1 := 0; i1 < 2; i1++ {
			for j0 := 0; j0 < 2; j0++ {
				for j1 := 0; j1 < 2; j1++ {
					out[i0*2+i1][j0*2+j1] = a[i0][j0] * b[i1][j1]
				}
			}
		}
	}
	return out
}

// Kraus returns the channel's 4×4 Kraus decomposition: the scaled
// identity branch first, then one scaled Pauli pair per term.
func (ch *Chan2) Kraus() [][4][4]complex128 {
	total := 0.0
	for _, t := range ch.Terms {
		total += t.Prob
	}
	out := make([][4][4]complex128, 0, len(ch.Terms)+1)
	if total < 1 {
		id := PauliPairMat(sim.PauliI, sim.PauliI)
		out = append(out, scale4(id, complex(sqrt(1-total), 0)))
	}
	for _, t := range ch.Terms {
		if t.Prob > 0 {
			out = append(out, scale4(PauliPairMat(t.P0, t.P1), complex(sqrt(t.Prob), 0)))
		}
	}
	return out
}

// Threshold is the channel's draw: it fires iff one rng.Float64()
// falls below the summed term mass (accumulated in Fire's selection
// order; see Chan1.Threshold).
func (ch *Chan2) Threshold() float64 {
	acc := 0.0
	for _, t := range ch.Terms {
		acc += t.Prob
	}
	return acc
}

// Fire applies the pair the draw r selected as P0 on Q0 and P1 on Q1,
// which is P0⊗P1 (trace-preserving, so nothing is renormalised).
func (ch *Chan2) Fire(b sim.Backend, r float64) {
	acc := 0.0
	for _, t := range ch.Terms {
		acc += t.Prob
		if r < acc {
			b.ApplyPauli(t.P0, ch.Q0)
			b.ApplyPauli(t.P1, ch.Q1)
			return
		}
	}
}

// Apply samples the channel on one trajectory: a single rng draw
// selects the identity or one correlated Pauli pair.
func (ch *Chan2) Apply(b sim.Backend, rng *rand.Rand) {
	ch.Fire(b, rng.Float64())
}

func scale4(m [4][4]complex128, s complex128) [4][4]complex128 {
	for i := range m {
		for j := range m[i] {
			m[i][j] *= s
		}
	}
	return m
}

// TwirlProbs computes the Pauli twirl of a single-qubit channel: the
// Pauli channel with p_P = Σ_k |tr(P†K_k)|²/4, the chi-matrix
// diagonal of the Kraus set. For a CPTP input the probabilities sum
// to 1.
func TwirlProbs(kraus [][2][2]complex128) [4]float64 {
	paulis := [4][2][2]complex128{ident2(), pauliX(), pauliY(), pauliZ()}
	var probs [4]float64
	for _, k := range kraus {
		for i, p := range paulis {
			// tr(P†K)/2 with P Hermitian: Σ_ab conj(P[a][b])·K[a][b] / 2.
			var tr complex128
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					tr += conj(p[a][b]) * k[a][b]
				}
			}
			tr /= 2
			probs[i] += real(tr)*real(tr) + imag(tr)*imag(tr)
		}
	}
	return probs
}
