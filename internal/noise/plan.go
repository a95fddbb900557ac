// Plan compilation: lowering a Model against a concrete circuit into
// per-operation channel lists. The stochastic driver and the exact
// engines both execute the same compiled Plan, so every channel the
// trajectories sample is exactly the channel the density-matrix
// reference applies.
package noise

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// Crosstalk configures the correlated two-qubit Pauli channel fired
// after every two-qubit gate: total error probability Strength,
// biased towards the ZZ pair by ZZBias (0 = uniform over the 15
// non-identity pairs, 1 = all mass on ZZ).
type Crosstalk struct {
	Strength float64 `json:"strength"`
	ZZBias   float64 `json:"zz_bias,omitempty"`
}

// Validate checks the crosstalk parameters.
func (x *Crosstalk) Validate() error {
	if !(x.Strength >= 0 && x.Strength <= 1) {
		return fmt.Errorf("noise: crosstalk strength %v outside [0,1]", x.Strength)
	}
	if !(x.ZZBias >= 0 && x.ZZBias <= 1) {
		return fmt.Errorf("noise: crosstalk zz_bias %v outside [0,1]", x.ZZBias)
	}
	return nil
}

// Channel binds the configured crosstalk to an ordered qubit pair —
// the channel Compile attaches after a two-qubit gate, exposed for
// direct exact-engine use and tests.
func (x *Crosstalk) Channel(q0, q1 int) Chan2 {
	return newChan2(q0, q1, x.terms(), LabelCrosstalk)
}

// terms expands the configuration into the 15 non-identity Pauli-pair
// branches.
func (x *Crosstalk) terms() []PairTerm {
	if x.Strength <= 0 {
		return nil
	}
	uniform := x.Strength * (1 - x.ZZBias) / 15
	out := make([]PairTerm, 0, 15)
	for p0 := sim.PauliI; p0 <= sim.PauliZ; p0++ {
		for p1 := sim.PauliI; p1 <= sim.PauliZ; p1++ {
			if p0 == sim.PauliI && p1 == sim.PauliI {
				continue
			}
			prob := uniform
			if p0 == sim.PauliZ && p1 == sim.PauliZ {
				prob += x.Strength * x.ZZBias
			}
			if prob > 0 {
				out = append(out, PairTerm{P0: p0, P1: p1, Prob: prob})
			}
		}
	}
	return out
}

// IdleNoise configures time-dependent idling noise: qubits sitting
// out k circuit moments between gates accumulate damping and
// dephasing before their next gate. With a Device, the per-qubit
// probabilities derive from T1/T2 over k·MomentNs; without one, the
// uniform per-moment rates compound over k moments.
type IdleNoise struct {
	// Damping is the per-moment amplitude-damping probability
	// (ignored when the model carries a Device).
	Damping float64 `json:"damping,omitempty"`
	// Dephasing is the per-moment phase-flip probability, at most 0.5
	// (ignored when the model carries a Device).
	Dephasing float64 `json:"dephasing,omitempty"`
	// MomentNs is the wall-clock duration of one circuit moment used
	// with a Device (0 means the device's default gate time).
	MomentNs float64 `json:"moment_ns,omitempty"`
}

// Validate checks the idle-noise parameters.
func (id *IdleNoise) Validate() error {
	if !(id.Damping >= 0 && id.Damping <= 1) {
		return fmt.Errorf("noise: idle damping %v outside [0,1]", id.Damping)
	}
	if !(id.Dephasing >= 0 && id.Dephasing <= 0.5) {
		return fmt.Errorf("noise: idle dephasing %v outside [0,0.5]", id.Dephasing)
	}
	if id.MomentNs < 0 || math.IsInf(id.MomentNs, 0) || math.IsNaN(id.MomentNs) {
		return fmt.Errorf("noise: idle moment_ns %v must be non-negative and finite", id.MomentNs)
	}
	return nil
}

// OpNoise lists the channels bound to one circuit operation: idle
// decay applied before the gate, single-qubit gate noise after it,
// then correlated two-qubit noise. A condition-skipped gate skips all
// of them — untaken gates inflict no noise, idle noise included.
type OpNoise struct {
	Pre   []Chan1
	Post  []Chan1
	Post2 []Chan2
}

// ApplyPre samples the pre-gate (idle) channels on one trajectory.
func (on *OpNoise) ApplyPre(b sim.Backend, rng *rand.Rand, counts *ChannelCounts) {
	on.ApplyPreFrom(0, b, rng, counts)
}

// ApplyPreFrom samples the pre-gate channels Pre[k:].
func (on *OpNoise) ApplyPreFrom(k int, b sim.Backend, rng *rand.Rand, counts *ChannelCounts) {
	for i := k; i < len(on.Pre); i++ {
		on.Pre[i].Apply(b, rng)
		counts[on.Pre[i].Label]++
	}
}

// ApplyPost samples the post-gate channels on one trajectory.
func (on *OpNoise) ApplyPost(b sim.Backend, rng *rand.Rand, counts *ChannelCounts) {
	on.ApplyPostFrom(0, b, rng, counts)
}

// ApplyPostFrom samples the post-gate channels from position k of the
// sequence Post‖Post2.
func (on *OpNoise) ApplyPostFrom(k int, b sim.Backend, rng *rand.Rand, counts *ChannelCounts) {
	for i := k; i < len(on.Post); i++ {
		on.Post[i].Apply(b, rng)
		counts[on.Post[i].Label]++
	}
	for i := max(k-len(on.Post), 0); i < len(on.Post2); i++ {
		on.Post2[i].Apply(b, rng)
		counts[on.Post2[i].Label]++
	}
}

// Roll is the draw half of one state-independent channel of an
// operation: the channel fires iff one rng.Float64() falls below
// Threshold. A trajectory whose rolls all miss left the state exactly
// where the noise-free circuit puts it, and the rolls are independent
// of it and of each other, which is what lets the stochastic engine
// sample the position of a trajectory's next fired roll without a
// backend.
type Roll struct {
	Threshold float64
	// Label indexes Labels for telemetry.
	Label int
}

// Len returns the number of channels bound to the operation.
func (on *OpNoise) Len() int { return len(on.Pre) + len(on.Post) + len(on.Post2) }

// Rolls appends the rolls of the operation's leading state-independent
// channels to dst, in application order — Pre, (the gate's unitary,)
// Post, Post2 — stopping at the first state-dependent channel
// (exact-channel damping). Roll k therefore belongs to channel k of
// the sequence Pre‖Post‖Post2 that Fire indexes, and fewer than Len
// rolls mean the engine's reference path ends at that channel.
func (on *OpNoise) Rolls(dst []Roll) []Roll {
	for _, chans := range [2][]Chan1{on.Pre, on.Post} {
		for i := range chans {
			if !chans[i].StateIndependent() {
				return dst
			}
			dst = append(dst, Roll{chans[i].Threshold(), chans[i].Label})
		}
	}
	for i := range on.Post2 {
		dst = append(dst, Roll{on.Post2[i].Threshold(), on.Post2[i].Label})
	}
	return dst
}

// Fire applies the event of channel k of the sequence Pre‖Post‖Post2,
// given that its roll r fell below the threshold Rolls reported.
func (on *OpNoise) Fire(k int, r float64, b sim.Backend, rng *rand.Rand) {
	if k < len(on.Pre) {
		on.Pre[k].Fire(b, rng, r)
		return
	}
	k -= len(on.Pre)
	if k < len(on.Post) {
		on.Post[k].Fire(b, rng, r)
		return
	}
	on.Post2[k-len(on.Post)].Fire(b, r)
}

// Plan is a Model compiled against one circuit: the channel lists for
// each operation index.
type Plan struct {
	ops []*OpNoise
}

// At returns the channels of operation i (nil when it carries none).
func (p *Plan) At(i int) *OpNoise {
	if p == nil || i < 0 || i >= len(p.ops) {
		return nil
	}
	return p.ops[i]
}

// Empty reports whether no operation carries any channel.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	for _, on := range p.ops {
		if on != nil {
			return false
		}
	}
	return true
}

// Compile lowers the model against a circuit: validates it for the
// register size, schedules the circuit into moments, and binds idle,
// gate and crosstalk channels to each operation. Zero-probability
// channels are dropped, so a plan compiled from a uniform model is the
// channel sequence — and the draw sequence — of the paper's reference
// loop on Model.
func (m Model) Compile(c *circuit.Circuit) (*Plan, error) {
	if err := m.ValidateFor(c.NumQubits); err != nil {
		return nil, err
	}
	p := &Plan{ops: make([]*OpNoise, len(c.Ops))}
	moments := circuit.Moments(c)
	last := make([]int, c.NumQubits)
	for i := range last {
		last[i] = -1
	}
	idleOn := m.Idle != nil && (m.Device != nil || m.Idle.Damping > 0 || m.Idle.Dephasing > 0)
	var xtalk Chan2 // bound to each two-qubit gate's pair below
	if m.Crosstalk != nil {
		xtalk = m.Crosstalk.Channel(0, 0)
	}
	keys := chanKeys{}
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind == circuit.KindBarrier {
			continue
		}
		qs := op.Qubits()
		if op.Kind == circuit.KindGate {
			var on OpNoise
			if idleOn {
				for _, q := range qs {
					if last[q] < 0 {
						continue // a qubit still in |0⟩ has nothing to decay
					}
					k := moments[i] - last[q] - 1
					if k <= 0 {
						continue
					}
					pd, pf := m.idleProbs(q, k)
					on.Pre = m.appendDamping(keys, on.Pre, q, pd, false, LabelIdle)
					if pf > 0 {
						on.Pre = append(on.Pre, keys.bind(Chan1{Kind: ChanPhaseFlip, Qubit: q, Label: LabelIdle, P: pf}))
					}
				}
			}
			// Device tables use the QASM spelling of controlled gates
			// ("cx", "ccx"), while the IR stores the base name plus a
			// control list.
			name := op.Name
			if len(op.Controls) > 0 {
				name = strings.Repeat("c", len(op.Controls)) + name
			}
			for _, q := range qs {
				dep, damp, flip, event := m.gateRates(name, q)
				if dep > 0 {
					on.Post = append(on.Post, keys.bind(Chan1{Kind: ChanDepolarizing, Qubit: q, Label: LabelDepolarizing, P: dep}))
				}
				on.Post = m.appendDamping(keys, on.Post, q, damp, event, LabelDamping)
				if flip > 0 {
					on.Post = append(on.Post, keys.bind(Chan1{Kind: ChanPhaseFlip, Qubit: q, Label: LabelPhaseFlip, P: flip}))
				}
			}
			if len(xtalk.Terms) > 0 && len(qs) == 2 {
				ch := xtalk
				ch.Q0, ch.Q1 = qs[0], qs[1]
				on.Post2 = append(on.Post2, ch)
			}
			if on.Len() > 0 {
				p.ops[i] = &on
			}
		}
		for _, q := range qs {
			if q >= 0 && q < len(last) {
				last[q] = moments[i]
			}
		}
	}
	return p, nil
}

// chanKeys shares cache keys between the channel instances of one
// Compile: a plan binds the same few operator contents to many qubits
// — three per job for a uniform model — and formatting the key is most
// of what building an instance costs.
type chanKeys map[Chan1]string

// bind completes a channel instance with its cache key.
func (ck chanKeys) bind(ch Chan1) Chan1 {
	content := ch
	content.Qubit, content.Label = 0, 0
	key, ok := ck[content]
	if !ok {
		key = ch.buildKey()
		ck[content] = key
	}
	ch.key = key
	return ch
}

// appendDamping appends the T1 channel with probability p — twirled
// into its Pauli-channel approximation when the model is Twirled.
func (m Model) appendDamping(keys chanKeys, dst []Chan1, q int, p float64, event bool, label int) []Chan1 {
	if p <= 0 {
		return dst
	}
	ch := Chan1{Kind: ChanDamping, Qubit: q, Label: label, P: p, Event: event}
	if m.Twirled {
		if label == LabelDamping {
			label = LabelTwirled
		}
		ch = Chan1{Kind: ChanPauli, Qubit: q, Label: label, Probs: TwirlProbs(ch.Kraus())}
	}
	return append(dst, keys.bind(ch))
}

// gateRates resolves the post-gate channel probabilities for one
// qubit of the named gate. With a Device, the depolarising rate comes
// from the gate-error table and the T1/T2 rates from the qubit's
// calibration over the gate duration (exact-channel damping
// semantics — the derived γ is a physical channel parameter, not an
// event rate); without one, the model's uniform rates apply.
func (m Model) gateRates(name string, q int) (dep, damp, flip float64, event bool) {
	if m.Device != nil {
		dep = m.Device.gateError(name, m.Depolarizing)
		damp, flip = m.Device.decayProbs(q, m.Device.gateTimeNs(name))
		return dep, damp, flip, false
	}
	return m.Depolarizing, m.Damping, m.PhaseFlip, m.DampingAsEvent
}

// idleProbs resolves the decay probabilities for k idle moments of
// qubit q. With a Device they derive from T1/T2 over k·MomentNs;
// without one the uniform per-moment rates compound:
// 1−(1−p)^k for damping and (1−(1−2f)^k)/2 for dephasing.
func (m Model) idleProbs(q, k int) (pDamp, pFlip float64) {
	if m.Device != nil {
		dt := m.Idle.MomentNs
		if dt <= 0 {
			dt = m.Device.gateTimeNs("")
		}
		return m.Device.decayProbs(q, float64(k)*dt)
	}
	if m.Idle.Damping > 0 {
		pDamp = 1 - math.Pow(1-m.Idle.Damping, float64(k))
	}
	if m.Idle.Dephasing > 0 {
		pFlip = (1 - math.Pow(1-2*m.Idle.Dephasing, float64(k))) / 2
	}
	return clampProb(pDamp), clampProb(pFlip)
}
