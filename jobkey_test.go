package ddsim_test

import (
	"fmt"
	"testing"

	"ddsim"
)

// TestJobKeyExtendedFieldsMoveKey: each extended channel family must
// change the job identity — both against the uniform baseline and
// against each other — and changing an extended parameter must change
// the key again.
func TestJobKeyExtendedFieldsMoveKey(t *testing.T) {
	circ := ddsim.GHZ(4)
	opts := ddsim.Options{Runs: 1000, Seed: 1}
	base := ddsim.PaperNoise()

	dev := &ddsim.Device{
		Name:        "k4",
		Qubits:      []ddsim.DeviceQubit{{T1us: 80, T2us: 100}, {T1us: 60, T2us: 60}, {T1us: 100, T2us: 120}, {T1us: 50, T2us: 40}},
		GateTimesNs: map[string]float64{"h": 35, "cx": 300},
		GateErrors:  map[string]float64{"cx": 0.01, "*": 0.0005},
	}
	variants := []struct {
		name  string
		model ddsim.NoiseModel
	}{
		{"uniform", base},
		{"device", ddsim.NoiseModel{Device: dev}},
		{"crosstalk", func() ddsim.NoiseModel {
			m := base
			m.Crosstalk = &ddsim.Crosstalk{Strength: 0.02, ZZBias: 0.5}
			return m
		}()},
		{"idle", func() ddsim.NoiseModel {
			m := base
			m.Idle = &ddsim.IdleNoise{Damping: 0.01, Dephasing: 0.02}
			return m
		}()},
		{"twirled", base.Twirl()},
		{"crosstalk-stronger", func() ddsim.NoiseModel {
			m := base
			m.Crosstalk = &ddsim.Crosstalk{Strength: 0.03, ZZBias: 0.5}
			return m
		}()},
	}
	keys := map[string]string{}
	for _, v := range variants {
		k, err := ddsim.JobKey(circ, ddsim.BackendDD, []ddsim.NoiseModel{v.model}, opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s and %s share a job key %s", v.name, prev, k)
			}
		}
		keys[v.name] = k
	}
}

// TestJobKeyExtendedCanonicalisesStably: an extended model rebuilt
// with its maps populated in a different insertion order must hash
// identically — the canonical form writes map entries sorted by key.
func TestJobKeyExtendedCanonicalisesStably(t *testing.T) {
	circ := ddsim.GHZ(3)
	opts := ddsim.Options{Runs: 500, Seed: 2}
	build := func(reverse bool) ddsim.NoiseModel {
		gateTimes := map[string]float64{}
		gateErrs := map[string]float64{}
		times := []struct {
			k string
			v float64
		}{{"h", 35}, {"cx", 300}, {"x", 40}, {"rz", 0}}
		errs := []struct {
			k string
			v float64
		}{{"*", 0.0005}, {"cx", 0.01}, {"ccx", 0.03}}
		if reverse {
			for i := len(times) - 1; i >= 0; i-- {
				gateTimes[times[i].k] = times[i].v
			}
			for i := len(errs) - 1; i >= 0; i-- {
				gateErrs[errs[i].k] = errs[i].v
			}
		} else {
			for _, e := range times {
				gateTimes[e.k] = e.v
			}
			for _, e := range errs {
				gateErrs[e.k] = e.v
			}
		}
		return ddsim.NoiseModel{
			Device: &ddsim.Device{
				Name:        "stable",
				Qubits:      []ddsim.DeviceQubit{{T1us: 70, T2us: 90}, {T1us: 55, T2us: 60}, {T1us: 90, T2us: 100}},
				GateTimesNs: gateTimes,
				GateErrors:  gateErrs,
			},
			Crosstalk: &ddsim.Crosstalk{Strength: 0.02, ZZBias: 0.25},
			Idle:      &ddsim.IdleNoise{MomentNs: 120},
			Twirled:   true,
		}
	}
	var keys [4]string
	for i := range keys {
		m := build(i%2 == 1)
		k, err := ddsim.JobKey(circ, ddsim.BackendDD, []ddsim.NoiseModel{m}, opts)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Fatalf("extended key unstable: call %d gave %s, call 0 gave %s", i, keys[i], keys[0])
		}
	}
}

// TestJobKeyStringFieldsCannotCollide: caller-supplied strings — device
// gate names, the device name, the backend — are written with their
// length, so none can smuggle in a field boundary and make two jobs
// with different results share a key (and one be served the other's
// cached result). Each pair below spells the same bytes once as data
// and once as structure.
func TestJobKeyStringFieldsCannotCollide(t *testing.T) {
	circ := ddsim.GHZ(2)
	src, err := ddsim.WriteQASM(circ)
	if err != nil {
		t.Fatal(err)
	}
	qubits := []ddsim.DeviceQubit{{T1us: 80, T2us: 100}, {T1us: 60, T2us: 60}}
	device := func(name string, qs []ddsim.DeviceQubit, times, errs map[string]float64) []ddsim.NoiseModel {
		return []ddsim.NoiseModel{{Device: &ddsim.Device{Name: name, Qubits: qs, GateTimesNs: times, GateErrors: errs}}}
	}
	type job struct {
		backend string
		models  []ddsim.NoiseModel
	}
	cases := []struct {
		name string
		a, b job
		// The exact-mode key drops the backend by design, so a pair that
		// differs only there is checked in stochastic mode alone.
		stochasticOnly bool
	}{
		{name: "gate time name",
			a: job{ddsim.BackendDD, device("g", qubits, map[string]float64{"h:35\ngate_time=x": 40}, nil)},
			b: job{ddsim.BackendDD, device("g", qubits, map[string]float64{"h": 35, "x": 40}, nil)}},
		{name: "gate error name",
			a: job{ddsim.BackendDD, device("g", qubits, nil, map[string]float64{"cx:0.01\ngate_error=h": 0.02})},
			b: job{ddsim.BackendDD, device("g", qubits, nil, map[string]float64{"cx": 0.01, "h": 0.02})}},
		{name: "device name",
			a: job{ddsim.BackendDD, device("g\nqubit=0:80,100", nil, nil, nil)},
			b: job{ddsim.BackendDD, device("g", qubits[:1], nil, nil)}},
		{name: "backend", stochasticOnly: true,
			a: job{ddsim.BackendDD, []ddsim.NoiseModel{ddsim.PaperNoise()}},
			b: job{fmt.Sprintf("%s\nqasm=%d:%s", ddsim.BackendDD, len(src), src), []ddsim.NoiseModel{ddsim.PaperNoise()}}},
	}
	modes := []ddsim.Options{
		{Runs: 1000, Seed: 1},
		{Mode: ddsim.ModeExact},
	}
	for _, tc := range cases {
		for _, opts := range modes {
			if tc.stochasticOnly && opts.Mode == ddsim.ModeExact {
				continue
			}
			ka, err := ddsim.JobKey(circ, tc.a.backend, tc.a.models, opts)
			if err != nil {
				t.Fatal(err)
			}
			kb, err := ddsim.JobKey(circ, tc.b.backend, tc.b.models, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ka == kb {
				t.Errorf("%s (mode %q): distinct jobs share key %s", tc.name, opts.Mode, ka)
			}
		}
	}
}
