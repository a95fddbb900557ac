// Package noise implements the stochastic error model and the one form
// every engine executes it in.
//
// The paper's model (Sections II-B and III) subjects each qubit a gate
// touched, after the gate, to
//
//   - a depolarising gate error: with probability p the qubit is set
//     to a random state, realised by applying one of I, X, Y, Z with
//     probability p/4 each (Example 3);
//   - an amplitude-damping (T1) error: the state-dependent channel of
//     Example 6 — the decay branch fires with probability
//     p·P(qubit = 1);
//   - a phase-flip (T2) error: with probability p a Z is applied.
//
// A Model holds those three rates and, optionally, the channels beyond
// them: per-qubit device calibration (Device), correlated two-qubit
// crosstalk (Crosstalk), idle decay between gates (IdleNoise) and
// Pauli-twirled damping. Model.Compile lowers any of it against a
// circuit into a Plan — per operation, the Chan1/Chan2 instances to
// apply before and after the gate. The stochastic engine samples the
// plan's channels on any sim.Backend (decision diagrams, state vectors,
// sparse operators); the exact engines apply the same channels' Kraus
// sets to a density matrix. The paper's loop written out directly stays
// on Model as the reference the compiled uniform plan is tested against.
package noise

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"ddsim/internal/sim"
)

// Model holds the three per-gate/per-qubit error probabilities.
// The zero Model is noise-free. The struct marshals to JSON for the
// ddsimd job API.
type Model struct {
	// Depolarizing is the gate-error probability (paper: 0.1 %).
	Depolarizing float64 `json:"depolarizing,omitempty"`
	// Damping is the amplitude-damping (T1) probability (paper: 0.2 %).
	Damping float64 `json:"damping,omitempty"`
	// PhaseFlip is the phase-flip (T2) probability (paper: 0.1 %).
	PhaseFlip float64 `json:"phase_flip,omitempty"`
	// DampingAsEvent selects between the two T1 semantics the paper
	// describes:
	//
	//   - false (default): the *exact channel* of Example 6 — Kraus
	//     operators A0/A1 with parameter p are branch-selected on
	//     every touched qubit, so even the no-decay branch slightly
	//     deforms the state (A1 = diag(1, √(1−p))).
	//   - true: the *event* semantics of Section III ("we mimic the
	//     effect of this error with probability p and leave the state
	//     untouched with probability 1−p"): with probability p a full
	//     T1 relaxation event occurs, branch-selected between decay
	//     (|1⟩ component dropped to |0⟩) and no-decay projection; with
	//     probability 1−p the state is bit-for-bit untouched.
	//
	// Both are trace-preserving channels (see Chan1.Kraus) and both are
	// validated against the exact density-matrix reference. The event
	// form is what the paper's evaluation performance implies: the
	// exact-channel form deforms every touched qubit on every gate,
	// which destroys product structure and blows decision diagrams up
	// even on structure-friendly circuits such as Bernstein–Vazirani.
	DampingAsEvent bool `json:"damping_as_event,omitempty"`

	// Device supplies per-qubit calibrated noise: T1/T2-derived
	// damping/dephasing per gate and per-gate depolarising error
	// rates, overriding the uniform probabilities above. See Device
	// and LoadDevice.
	Device *Device `json:"device,omitempty"`
	// Crosstalk adds a correlated two-qubit Pauli channel after every
	// two-qubit gate.
	Crosstalk *Crosstalk `json:"crosstalk,omitempty"`
	// Idle adds time-dependent idling noise: qubits accumulate decay
	// over the circuit moments they sit out between gates.
	Idle *IdleNoise `json:"idle,omitempty"`
	// Twirled replaces every amplitude-damping channel by its Pauli
	// twirl (see Model.Twirl and TwirlProbs). Depolarising and
	// phase-flip channels are Pauli channels already — twirl fixed
	// points — and pass through unchanged.
	Twirled bool `json:"twirled,omitempty"`
}

// PaperDefaults returns the error rates used throughout the paper's
// evaluation (Section V), with event-style T1 semantics.
func PaperDefaults() Model {
	return Model{Depolarizing: 0.001, Damping: 0.002, PhaseFlip: 0.001, DampingAsEvent: true}
}

// Enabled reports whether any channel has a non-zero probability.
func (m Model) Enabled() bool {
	if m.Depolarizing > 0 || m.Damping > 0 || m.PhaseFlip > 0 {
		return true
	}
	if m.Device != nil {
		return true
	}
	if m.Crosstalk != nil && m.Crosstalk.Strength > 0 {
		return true
	}
	if m.Idle != nil && (m.Idle.Damping > 0 || m.Idle.Dephasing > 0) {
		return true
	}
	return false
}

// Extended reports whether the model uses any channel beyond the
// paper's uniform per-gate trio. It is a fact about the wire format,
// not about execution — every enabled model runs through its compiled
// Plan: only extended models emit JobKey's v3 appendix (see
// CanonicalExtension), so the keys of uniform jobs stay what they were
// before the appendix existed.
func (m Model) Extended() bool {
	return m.Device != nil || m.Crosstalk != nil || m.Idle != nil || m.Twirled
}

// Twirl returns the model with every damping channel replaced by its
// Pauli-twirl approximation; idempotent.
func (m Model) Twirl() Model {
	m.Twirled = true
	return m
}

// Scale returns the model with every error probability multiplied by
// s, preserving the damping semantics — the unit of noise sweeps.
// Device-derived probabilities scale through the device's ErrorScale;
// sub-configurations are copied, so scaled models share nothing with
// the original. Scaled probabilities above 1 are rejected by Validate
// as usual.
func (m Model) Scale(s float64) Model {
	m.Depolarizing *= s
	m.Damping *= s
	m.PhaseFlip *= s
	if m.Device != nil {
		d := *m.Device
		d.ErrorScale = d.scaleFactor() * s
		m.Device = &d
	}
	if m.Crosstalk != nil {
		x := *m.Crosstalk
		x.Strength *= s
		m.Crosstalk = &x
	}
	if m.Idle != nil {
		id := *m.Idle
		id.Damping *= s
		id.Dephasing *= s
		m.Idle = &id
	}
	return m
}

// Validate checks that all probabilities lie in [0, 1] and that any
// device, crosstalk and idle configurations are themselves valid.
func (m Model) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"depolarizing", m.Depolarizing},
		{"damping", m.Damping},
		{"phase-flip", m.PhaseFlip},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("noise: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if m.Device != nil {
		if err := m.Device.Validate(); err != nil {
			return err
		}
	}
	if m.Crosstalk != nil {
		if err := m.Crosstalk.Validate(); err != nil {
			return err
		}
	}
	if m.Idle != nil {
		if err := m.Idle.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ValidateFor validates the model against a register size: a device
// description must calibrate at least numQubits qubits.
func (m Model) ValidateFor(numQubits int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Device != nil && len(m.Device.Qubits) < numQubits {
		return fmt.Errorf("noise: device %q describes %d qubits, circuit needs %d",
			m.Device.Name, len(m.Device.Qubits), numQubits)
	}
	return nil
}

// String summarises the model.
func (m Model) String() string {
	s := fmt.Sprintf("depol=%.4f damp=%.4f flip=%.4f", m.Depolarizing, m.Damping, m.PhaseFlip)
	if m.Device != nil {
		s += fmt.Sprintf(" device=%s(%dq)", m.Device.Name, len(m.Device.Qubits))
	}
	if m.Crosstalk != nil {
		s += fmt.Sprintf(" xtalk=%.4f", m.Crosstalk.Strength)
	}
	if m.Idle != nil {
		s += fmt.Sprintf(" idle=%.4f/%.4f", m.Idle.Damping, m.Idle.Dephasing)
	}
	if m.Twirled {
		s += " twirled"
	}
	return s
}

// CanonicalExtension serialises the extended-channel configuration
// into a stable string for JobKey's v3 appendix: every field in a
// fixed order, map entries sorted by key, floats at full precision.
// Non-extended models serialise to "".
func (m Model) CanonicalExtension() string {
	if !m.Extended() {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "twirled=%t\n", m.Twirled)
	if d := m.Device; d != nil {
		fmt.Fprintf(&sb, "device=%s\n", d.Name)
		for i, q := range d.Qubits {
			fmt.Fprintf(&sb, "qubit=%d:%.17g,%.17g\n", i, q.T1us, q.T2us)
		}
		for _, k := range sortedKeys(d.GateTimesNs) {
			fmt.Fprintf(&sb, "gate_time=%s:%.17g\n", k, d.GateTimesNs[k])
		}
		fmt.Fprintf(&sb, "default_gate_time=%.17g\n", d.DefaultGateTimeNs)
		for _, k := range sortedKeys(d.GateErrors) {
			fmt.Fprintf(&sb, "gate_error=%s:%.17g\n", k, d.GateErrors[k])
		}
		fmt.Fprintf(&sb, "error_scale=%.17g\n", d.ErrorScale)
	}
	if x := m.Crosstalk; x != nil {
		fmt.Fprintf(&sb, "crosstalk=%.17g,%.17g\n", x.Strength, x.ZZBias)
	}
	if id := m.Idle; id != nil {
		fmt.Fprintf(&sb, "idle=%.17g,%.17g,%.17g\n", id.Damping, id.Dephasing, id.MomentNs)
	}
	return sb.String()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ApplyAfterGate stochastically injects errors on each qubit a gate
// touched, in the fixed order depolarising → damping → phase flip.
// All randomness comes from rng, so trajectories are reproducible
// given a seed. This is the paper's reference loop: no engine calls it,
// the stream tests hold a compiled uniform plan to its draws. Both
// damping semantics are the bodies Chan1 runs.
func (m Model) ApplyAfterGate(b sim.Backend, qubits []int, rng *rand.Rand) {
	for _, q := range qubits {
		if m.Depolarizing > 0 && rng.Float64() < m.Depolarizing {
			// The depolarised qubit receives I, X, Y or Z uniformly.
			b.ApplyPauli(sim.Pauli(rng.Intn(4)), q)
		}
		if m.Damping > 0 {
			if !m.DampingAsEvent {
				applyExactDamping(b, q, m.Damping, rng)
			} else if rng.Float64() < m.Damping {
				// Section III event semantics: untouched with prob 1−p.
				fireDampingEvent(b, q, rng)
			}
		}
		if m.PhaseFlip > 0 && rng.Float64() < m.PhaseFlip {
			b.ApplyPauli(sim.PauliZ, q)
		}
	}
}

// ResetKraus returns the Kraus decomposition of the reset-to-|0⟩
// channel, K0 = |0⟩⟨0| and K1 = |0⟩⟨1| — trace preserving, final
// qubit state |0⟩ regardless of prior state or entanglement. Both
// density-matrix simulators realise circuit resets with it.
func ResetKraus() [][2][2]complex128 {
	return [][2][2]complex128{
		{{1, 0}, {0, 0}}, // |0⟩⟨0|
		{{0, 1}, {0, 0}}, // |0⟩⟨1|
	}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func sqrt(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Sqrt(x)
}

func ident2() [2][2]complex128 { return [2][2]complex128{{1, 0}, {0, 1}} }
func pauliX() [2][2]complex128 { return [2][2]complex128{{0, 1}, {1, 0}} }
func pauliY() [2][2]complex128 {
	return [2][2]complex128{{0, complex(0, -1)}, {complex(0, 1), 0}}
}
func pauliZ() [2][2]complex128 { return [2][2]complex128{{1, 0}, {0, -1}} }

func scale2(m [2][2]complex128, s complex128) [2][2]complex128 {
	for i := range m {
		for j := range m[i] {
			m[i][j] *= s
		}
	}
	return m
}
