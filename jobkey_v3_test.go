package ddsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ddsim"
)

// v2JobKey is an independent reimplementation of the wire format of
// jobs without extended noise channels: the pre-extension (v2) fields
// and, for trajectory jobs, the version of the random stream their
// numbers come from (written out as the literal it is today — moving
// it is the point at which every cached trajectory result stops
// hitting). The v3 appendix may only fire for models that actually
// carry extended channels, and exact-mode keys — whose results no
// stream feeds — must stay the bare v2 bytes forever: the ddsimd result
// cache persists keys across releases.
func v2JobKey(t *testing.T, c *ddsim.Circuit, backend string, models []ddsim.NoiseModel, opts ddsim.Options) string {
	t.Helper()
	src, err := ddsim.WriteQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	o := opts.Canonical()
	if o.Mode == ddsim.ModeExact {
		backend = "-"
	}
	h := sha256.New()
	fmt.Fprintf(h, "ddsim-job-v2\nbackend=%s\nqasm=%d:%s\n", backend, len(src), src)
	for _, m := range models {
		fmt.Fprintf(h, "noise=%.17g,%.17g,%.17g,%t\n",
			m.Depolarizing, m.Damping, m.PhaseFlip, m.DampingAsEvent)
	}
	fmt.Fprintf(h, "runs=%d\nseed=%d\nshots=%d\nfidelity=%t\ntimeout=%d\naccuracy=%.17g\nconfidence=%.17g\nchunk=%d\n",
		o.Runs, o.Seed, o.Shots, o.TrackFidelity, int64(o.Timeout),
		o.TargetAccuracy, o.TargetConfidence, o.ChunkSize)
	for _, ts := range o.TrackStates {
		fmt.Fprintf(h, "track=%d\n", ts)
	}
	fmt.Fprintf(h, "mode=%s\nexact_backend=%s\n", o.Mode, o.ExactBackend)
	if o.Mode != ddsim.ModeExact {
		fmt.Fprintf(h, "stream=2\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestJobKeyLegacyUniformKeysByteIdentical pins the compatibility
// contract of the v3 extension: every job whose models are plain
// uniform (no device, crosstalk, idle noise or twirling) hashes to a
// key byte-identical to the v2 serialisation — plus the stream line
// when it samples trajectories, and nothing else when it is exact.
func TestJobKeyLegacyUniformKeysByteIdentical(t *testing.T) {
	circ := ddsim.GHZ(4)
	cases := []struct {
		name    string
		backend string
		models  []ddsim.NoiseModel
		opts    ddsim.Options
	}{
		{"paper-noise", ddsim.BackendDD,
			[]ddsim.NoiseModel{ddsim.PaperNoise()},
			ddsim.Options{Runs: 30000, Seed: 1, TrackStates: []uint64{0, 15}}},
		{"noise-free", ddsim.BackendStatevector,
			[]ddsim.NoiseModel{ddsim.NoNoise()},
			ddsim.Options{Runs: 100, Seed: 7, Shots: 2}},
		{"sweep", ddsim.BackendSparse,
			[]ddsim.NoiseModel{ddsim.NoNoise(), ddsim.PaperNoise(), ddsim.PaperNoise().Scale(2)},
			ddsim.Options{Runs: 500, Seed: 3, TargetAccuracy: 0.02, TargetConfidence: 0.95}},
		{"exact-mode", ddsim.BackendDD,
			[]ddsim.NoiseModel{ddsim.PaperNoise()},
			ddsim.Options{Mode: ddsim.ModeExact, ExactBackend: ddsim.ExactDensity}},
	}
	for _, tc := range cases {
		got, err := ddsim.JobKey(circ, tc.backend, tc.models, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := v2JobKey(t, circ, tc.backend, tc.models, tc.opts); got != want {
			t.Errorf("%s: JobKey = %s, want the v2 serialisation %s", tc.name, got, want)
		}
		// The key this exact job had before the stream was versioned.
		if want := "587861dbfe27933567b10de60dfcbbba8aab063c8161173b3db44a58419ddf2c"; tc.name == "exact-mode" && got != want {
			t.Errorf("exact-mode key moved: %s, want %s", got, want)
		}
	}
}

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
// identically — the v3 appendix serialises map entries sorted by key.
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
