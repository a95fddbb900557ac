package noise

import (
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddsim/internal/circuit"
)

func testDevice() *Device {
	return &Device{
		Name: "test-5q",
		Qubits: []DeviceQubit{
			{T1us: 80, T2us: 100},
			{T1us: 60, T2us: 60},
			{T1us: 100, T2us: 200}, // T1-limited: T2 = 2·T1
			{T1us: 50, T2us: 40},
			{T1us: 120, T2us: 90},
		},
		GateTimesNs:       map[string]float64{"h": 35, "cx": 300},
		DefaultGateTimeNs: 40,
		GateErrors:        map[string]float64{"cx": 0.01, "*": 0.0005},
	}
}

func TestParseDeviceRoundTrip(t *testing.T) {
	src := `{
		"name": "ibmq-ish",
		"qubits": [{"t1_us": 80, "t2_us": 100}, {"t1_us": 60, "t2_us": 60}],
		"gate_times_ns": {"cx": 300},
		"default_gate_time_ns": 40,
		"gate_errors": {"cx": 0.01, "*": 0.0005},
		"error_scale": 1.5
	}`
	d, err := ParseDevice([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "ibmq-ish" || len(d.Qubits) != 2 {
		t.Fatalf("parsed device = %+v", d)
	}
	if d.Qubits[0].T1us != 80 || d.Qubits[0].T2us != 100 {
		t.Errorf("qubit 0 = %+v", d.Qubits[0])
	}
	if d.GateTimesNs["cx"] != 300 || d.GateErrors["*"] != 0.0005 || d.ErrorScale != 1.5 {
		t.Errorf("tables = %+v", d)
	}
}

func TestLoadDevice(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.json")
	if err := os.WriteFile(path, []byte(`{"qubits":[{"t1_us":80,"t2_us":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Qubits) != 1 {
		t.Fatalf("loaded %d qubits", len(d.Qubits))
	}
	if _, err := LoadDevice(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"qubits": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDevice(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("invalid device error %v does not name the file", err)
	}
}

func TestParseDeviceErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"malformed JSON", `{"qubits": [`},
		{"no qubits", `{"qubits": []}`},
		{"zero T1", `{"qubits": [{"t1_us": 0, "t2_us": 1}]}`},
		{"negative T2", `{"qubits": [{"t1_us": 50, "t2_us": -1}]}`},
		{"T2 above 2·T1", `{"qubits": [{"t1_us": 50, "t2_us": 101}]}`},
		{"NaN T1", `{"qubits": [{"t1_us": "x", "t2_us": 1}]}`},
		{"zero gate time", `{"qubits": [{"t1_us": 50, "t2_us": 50}], "gate_times_ns": {"h": 0}}`},
		{"negative default time", `{"qubits": [{"t1_us": 50, "t2_us": 50}], "default_gate_time_ns": -1}`},
		{"error above 1", `{"qubits": [{"t1_us": 50, "t2_us": 50}], "gate_errors": {"h": 1.5}}`},
		{"negative error scale", `{"qubits": [{"t1_us": 50, "t2_us": 50}], "error_scale": -2}`},
	}
	for _, tc := range cases {
		if _, err := ParseDevice([]byte(tc.src)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGateTimeResolution(t *testing.T) {
	d := testDevice()
	if got := d.gateTimeNs("cx"); got != 300 {
		t.Errorf("cx time = %v, want 300", got)
	}
	if got := d.gateTimeNs("t"); got != 40 {
		t.Errorf("unnamed gate time = %v, want the device default 40", got)
	}
	d.DefaultGateTimeNs = 0
	if got := d.gateTimeNs("t"); got != defaultGateTimeNs {
		t.Errorf("unnamed gate time = %v, want the built-in default %v", got, defaultGateTimeNs)
	}
}

func TestGateErrorResolution(t *testing.T) {
	d := testDevice()
	if got := d.gateError("cx", 0.123); got != 0.01 {
		t.Errorf("cx error = %v, want the table entry 0.01", got)
	}
	if got := d.gateError("h", 0.123); got != 0.0005 {
		t.Errorf("h error = %v, want the * fallback 0.0005", got)
	}
	d.GateErrors = nil
	if got := d.gateError("h", 0.123); got != 0.123 {
		t.Errorf("h error = %v, want the caller fallback", got)
	}
	d.GateErrors = map[string]float64{"cx": 0.5}
	d.ErrorScale = 3
	if got := d.gateError("cx", 0); got != 1 {
		t.Errorf("scaled error = %v, want clamped to 1", got)
	}
}

// TestDecayProbs checks the T1/T2 physics: p_damp = 1 − e^(−t/T1),
// p_flip = (1 − e^(−t/Tφ))/2 with 1/Tφ = 1/T2 − 1/(2·T1), and a zero
// flip rate in the T1-limited case T2 = 2·T1.
func TestDecayProbs(t *testing.T) {
	d := testDevice()
	tNs := 300.0
	pd, pf := d.decayProbs(0, tNs)
	t1, t2 := 80e3, 100e3
	wantD := 1 - math.Exp(-tNs/t1)
	invTphi := 1/t2 - 1/(2*t1)
	wantF := (1 - math.Exp(-tNs*invTphi)) / 2
	if math.Abs(pd-wantD) > 1e-15 || math.Abs(pf-wantF) > 1e-15 {
		t.Errorf("decayProbs(0) = %v, %v, want %v, %v", pd, pf, wantD, wantF)
	}

	// T1-limited qubit: all dephasing is relaxation-induced, no extra
	// phase flips.
	if _, pf := d.decayProbs(2, tNs); pf != 0 {
		t.Errorf("T1-limited qubit has pure dephasing %v", pf)
	}

	// Zero duration decays nothing.
	if pd, pf := d.decayProbs(0, 0); pd != 0 || pf != 0 {
		t.Errorf("decayProbs(t=0) = %v, %v", pd, pf)
	}

	// ErrorScale multiplies both probabilities.
	d.ErrorScale = 2
	pd2, pf2 := d.decayProbs(0, tNs)
	if math.Abs(pd2-2*pd) > 1e-15 || math.Abs(pf2-2*pf) > 1e-15 {
		t.Errorf("scaled decayProbs = %v, %v, want %v, %v", pd2, pf2, 2*pd, 2*pf)
	}
}

// krausComplete1 returns the deviation of ΣK†K from I for a
// single-qubit Kraus set.
func krausComplete1(ks [][2][2]complex128) float64 {
	var sum [2][2]complex128
	for _, k := range ks {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for l := 0; l < 2; l++ {
					sum[i][j] += cmplx.Conj(k[l][i]) * k[l][j]
				}
			}
		}
	}
	dev := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			dev = math.Max(dev, cmplx.Abs(sum[i][j]-want))
		}
	}
	return dev
}

// krausComplete2 is krausComplete1 for 4×4 Kraus sets.
func krausComplete2(ks [][4][4]complex128) float64 {
	var sum [4][4]complex128
	for _, k := range ks {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				for l := 0; l < 4; l++ {
					sum[i][j] += cmplx.Conj(k[l][i]) * k[l][j]
				}
			}
		}
	}
	dev := 0.0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			dev = math.Max(dev, cmplx.Abs(sum[i][j]-want))
		}
	}
	return dev
}

// randomDevice builds a random but valid calibration.
func randomDevice(rng *rand.Rand, n int) *Device {
	d := &Device{Name: "random", Qubits: make([]DeviceQubit, n)}
	for i := range d.Qubits {
		t1 := 10 + 190*rng.Float64() // µs
		t2 := (0.2 + 1.8*rng.Float64()) * t1
		if t2 > 2*t1 {
			t2 = 2 * t1
		}
		d.Qubits[i] = DeviceQubit{T1us: t1, T2us: t2}
	}
	d.GateTimesNs = map[string]float64{"h": 10 + 100*rng.Float64(), "cx": 100 + 400*rng.Float64()}
	d.DefaultGateTimeNs = 10 + 90*rng.Float64()
	d.GateErrors = map[string]float64{"cx": 0.05 * rng.Float64(), "*": 0.01 * rng.Float64()}
	if rng.Intn(2) == 0 {
		d.ErrorScale = 0.5 + rng.Float64()
	}
	return d
}

// TestDeviceChannelsCPTPProperty is the CPTP property test: every
// channel compiled from a randomized calibration — gate noise, idle
// decay, crosstalk, twirled or not — has a complete Kraus set
// (ΣK†K = I to 1e-12).
func TestDeviceChannelsCPTPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := circuit.New("cptp", 4)
	c.H(0).CX(0, 1).H(2).CX(1, 2).H(3).CX(2, 3).CX(0, 3).H(1)
	for trial := 0; trial < 200; trial++ {
		m := Model{Depolarizing: 0.001 * rng.Float64()}
		m.Device = randomDevice(rng, 4)
		if rng.Intn(2) == 0 {
			m.Crosstalk = &Crosstalk{Strength: 0.1 * rng.Float64(), ZZBias: rng.Float64()}
		}
		if rng.Intn(2) == 0 {
			m.Idle = &IdleNoise{MomentNs: 500 * rng.Float64()}
		}
		if rng.Intn(2) == 0 {
			m = m.Twirl()
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: random model invalid: %v", trial, err)
		}
		plan, err := m.Compile(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range c.Ops {
			on := plan.At(i)
			if on == nil {
				continue
			}
			for _, ch := range on.Pre {
				if dev := krausComplete1(ch.Kraus()); dev > 1e-12 {
					t.Fatalf("trial %d op %d: pre channel %+v deviates %g", trial, i, ch, dev)
				}
			}
			for _, ch := range on.Post {
				if dev := krausComplete1(ch.Kraus()); dev > 1e-12 {
					t.Fatalf("trial %d op %d: post channel %+v deviates %g", trial, i, ch, dev)
				}
			}
			for _, ch := range on.Post2 {
				if dev := krausComplete2(ch.Kraus()); dev > 1e-12 {
					t.Fatalf("trial %d op %d: crosstalk channel %+v deviates %g", trial, i, ch, dev)
				}
			}
		}
	}
}

func TestModelScaleExtended(t *testing.T) {
	m := Model{Depolarizing: 0.001}
	m.Device = testDevice()
	m.Crosstalk = &Crosstalk{Strength: 0.02, ZZBias: 0.5}
	m.Idle = &IdleNoise{Damping: 0.001, Dephasing: 0.002}
	s := m.Scale(2)
	if s.Device == m.Device || s.Crosstalk == m.Crosstalk || s.Idle == m.Idle {
		t.Fatal("Scale shares sub-configuration pointers with the original")
	}
	if s.Device.ErrorScale != 2 {
		t.Errorf("scaled ErrorScale = %v, want 2 (1 implicit × 2)", s.Device.ErrorScale)
	}
	if s.Crosstalk.Strength != 0.04 || s.Idle.Damping != 0.002 || s.Idle.Dephasing != 0.004 {
		t.Errorf("scaled extension = %+v %+v", s.Crosstalk, s.Idle)
	}
	if m.Device.ErrorScale != 0 || m.Crosstalk.Strength != 0.02 {
		t.Error("Scale mutated the original model")
	}
}

func TestModelCanonical(t *testing.T) {
	// A uniform model serialises its trio and damping semantics: each
	// one moves the string.
	u := PaperDefaults()
	for _, v := range []Model{
		{},
		{Depolarizing: 0.002, Damping: u.Damping, PhaseFlip: u.PhaseFlip, DampingAsEvent: true},
		{Depolarizing: u.Depolarizing, Damping: 0.003, PhaseFlip: u.PhaseFlip, DampingAsEvent: true},
		{Depolarizing: u.Depolarizing, Damping: u.Damping, PhaseFlip: 0.002, DampingAsEvent: true},
		{Depolarizing: u.Depolarizing, Damping: u.Damping, PhaseFlip: u.PhaseFlip},
	} {
		if v.Canonical() == u.Canonical() {
			t.Errorf("%+v serialised like the paper model", v)
		}
	}
	m := Model{Device: testDevice(), Crosstalk: &Crosstalk{Strength: 0.02}}
	a, b := m.Canonical(), m.Canonical()
	if a != b {
		t.Fatalf("canonical form not deterministic: %q vs %q", a, b)
	}
	// Map iteration order must not leak into the serialisation.
	for i := 0; i < 20; i++ {
		m2 := m
		d := *m.Device
		d.GateErrors = map[string]float64{"*": 0.0005, "cx": 0.01}
		d.GateTimesNs = map[string]float64{"cx": 300, "h": 35}
		m2.Device = &d
		if got := m2.Canonical(); got != a {
			t.Fatalf("canonical form moved under map rebuild:\n%q\nvs\n%q", got, a)
		}
	}
	m3 := m
	m3.Crosstalk = &Crosstalk{Strength: 0.03}
	if m3.Canonical() == a {
		t.Error("different crosstalk serialised identically")
	}
}
