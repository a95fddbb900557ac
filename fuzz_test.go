package ddsim_test

import (
	"encoding/binary"
	"testing"
	"time"

	"ddsim"
)

// FuzzCanonical throws adversarial Options at the canonicalisation
// and content-addressing layer underneath the ddsimd result cache.
// Properties:
//
//  1. Options.Canonical and JobKey never panic, whatever the field
//     values (negative budgets, NaN/Inf accuracies, unknown modes);
//  2. JobKey is deterministic: two calls over the same inputs agree;
//  3. canonicalisation is idempotent under the hash: hashing the
//     canonical form reproduces the original key, so a cache keyed on
//     submissions and one keyed on canonical forms can never diverge;
//  4. the documented exact-mode collapses hold: in exact mode the
//     trajectory knobs (runs, seed, shots, chunking, adaptive
//     stopping) and the stochastic backend name must not move the
//     key;
//  5. the extended noise channels are result-relevant: dropping the
//     extended model from the sweep moves the key;
//  6. strings are length-prefixed: the fuzzed backend string, used as a
//     device gate name, can never make two different gate-time tables
//     hash equal.
//
// The checked-in seeds live under testdata/fuzz/FuzzCanonical and run
// as ordinary test cases on every `go test`; CI additionally fuzzes
// the target for ~30s per run.
func FuzzCanonical(f *testing.F) {
	f.Add(int64(30000), int64(1), int64(1), int64(64), int64(0),
		0.02, 0.95, true, byte(0), "dd", []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(-5), int64(-1), int64(0), int64(-64), int64(-1),
		-1.5, 1.5, false, byte(1), "statevec", []byte{})
	f.Add(int64(0), int64(9e18), int64(1<<40), int64(1), int64(1<<60),
		0.0, 0.0, false, byte(2), "sparse", []byte("\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add(int64(1), int64(2), int64(3), int64(4), int64(5),
		1e308, 1e-308, true, byte(3), "no-such-backend", []byte("abcdefgh12345678"))

	circ := ddsim.GHZ(3)
	// The model slice spans the full vocabulary: the paper's uniform
	// rates, the noise-free point, and an extended model (device
	// calibration, crosstalk, idle noise, twirl) on every fuzz
	// execution.
	extended := ddsim.NoiseModel{
		Device: &ddsim.Device{
			Name:        "fuzz-3q",
			Qubits:      []ddsim.DeviceQubit{{T1us: 80, T2us: 100}, {T1us: 60, T2us: 60}, {T1us: 100, T2us: 150}},
			GateTimesNs: map[string]float64{"h": 35, "cx": 300},
			GateErrors:  map[string]float64{"cx": 0.01, "*": 0.0005},
		},
		Crosstalk: &ddsim.Crosstalk{Strength: 0.02, ZZBias: 0.5},
		Idle:      &ddsim.IdleNoise{MomentNs: 100},
		Twirled:   true,
	}
	models := []ddsim.NoiseModel{ddsim.PaperNoise(), ddsim.NoNoise(), extended}
	legacyModels := models[:2]
	modes := []string{"", ddsim.ModeStochastic, ddsim.ModeExact, "bogus-mode"}

	f.Fuzz(func(t *testing.T, runs, seed, shots, chunk, timeout int64,
		acc, conf float64, fid bool, modeSel byte, backend string, trackRaw []byte) {
		var track []uint64
		for len(trackRaw) >= 8 && len(track) < 16 {
			track = append(track, binary.LittleEndian.Uint64(trackRaw))
			trackRaw = trackRaw[8:]
		}
		opts := ddsim.Options{
			Runs:             int(runs),
			Seed:             seed,
			Shots:            int(shots),
			ChunkSize:        int(chunk),
			Timeout:          time.Duration(timeout),
			TargetAccuracy:   acc,
			TargetConfidence: conf,
			TrackFidelity:    fid,
			TrackStates:      track,
			Mode:             modes[int(modeSel)%len(modes)],
		}

		// 1. No panics, ever.
		canon := opts.Canonical()
		k1, err1 := ddsim.JobKey(circ, backend, models, opts)

		// 2. Determinism.
		k2, err2 := ddsim.JobKey(circ, backend, models, opts)
		if (err1 == nil) != (err2 == nil) || k1 != k2 {
			t.Fatalf("JobKey not deterministic: (%q, %v) vs (%q, %v)", k1, err1, k2, err2)
		}
		if err1 != nil {
			return
		}
		if len(k1) != 64 {
			t.Fatalf("JobKey length %d, want 64 hex chars", len(k1))
		}

		// 3. Hash-level idempotence of canonicalisation.
		k3, err3 := ddsim.JobKey(circ, backend, models, canon)
		if err3 != nil || k3 != k1 {
			t.Fatalf("JobKey(Canonical(o)) = (%q, %v), want (%q, nil)", k3, err3, k1)
		}

		// 4. Exact-mode collapses: the trajectory vocabulary and the
		// stochastic backend name are not result-relevant.
		if opts.Mode == ddsim.ModeExact {
			perturbed := opts
			perturbed.Runs += 17
			perturbed.Seed ^= 0x5a5a
			perturbed.Shots += 3
			perturbed.ChunkSize += 1
			perturbed.TargetAccuracy = acc + 1
			kp, err := ddsim.JobKey(circ, backend+"-other", models, perturbed)
			if err != nil || kp != k1 {
				t.Fatalf("exact-mode key moved under trajectory knobs: (%q, %v) vs %q", kp, err, k1)
			}
		} else {
			// Stochastic mode: workers and progress must not
			// move the key, the seed must.
			perturbed := opts
			perturbed.Workers = 13
			perturbed.ProgressEvery = 7
			kp, err := ddsim.JobKey(circ, backend, models, perturbed)
			if err != nil || kp != k1 {
				t.Fatalf("key moved under execution knobs: (%q, %v) vs %q", kp, err, k1)
			}
			reseeded := opts
			reseeded.Seed++
			kr, err := ddsim.JobKey(circ, backend, models, reseeded)
			if err != nil || kr == k1 {
				t.Fatalf("key did not move under a new seed (err %v)", err)
			}
		}

		// 5. The extended channels are result-relevant: dropping the
		// extended model from the sweep must move the key.
		kl, err := ddsim.JobKey(circ, backend, legacyModels, opts)
		if err != nil || kl == k1 {
			t.Fatalf("key did not move when the extended model was dropped (err %v)", err)
		}

		// 6. A gate name cannot forge a table entry: the fuzzed string
		// as one gate name next to "x", against the same bytes spelled
		// as its own entry followed by x's.
		gateTimes := func(times map[string]float64) []ddsim.NoiseModel {
			d := *extended.Device
			d.GateTimesNs = times
			m := extended
			m.Device = &d
			return []ddsim.NoiseModel{m}
		}
		ka, errA := ddsim.JobKey(circ, backend, gateTimes(map[string]float64{backend: 35, "x": 40}), opts)
		kb, errB := ddsim.JobKey(circ, backend, gateTimes(map[string]float64{backend + ":35\ngate_time=x": 40}), opts)
		if errA != nil || errB != nil || ka == kb {
			t.Fatalf("gate name %q forged a gate-time entry (errs %v, %v)", backend, errA, errB)
		}
	})
}

// FuzzDevice throws arbitrary bytes at the calibrated-device loader
// behind the -device flags and the ddsimd job API. Properties:
//
//  1. ParseDevice never panics, whatever the input;
//  2. any device it accepts also passes Validate — the parser admits
//     no description the rest of the engine would reject;
//  3. every accepted device compiles into a noise plan whose channels
//     are complete (ΣK†K = I), i.e. hostile calibration values can
//     never produce a non-trace-preserving channel.
//
// The checked-in seeds live under testdata/fuzz/FuzzDevice and run as
// ordinary test cases on every `go test`; CI additionally fuzzes the
// target for ~30s per run.
func FuzzDevice(f *testing.F) {
	f.Add([]byte(`{"name":"seed","qubits":[{"t1_us":80,"t2_us":100},{"t1_us":60,"t2_us":60}],` +
		`"gate_times_ns":{"h":35,"cx":300},"gate_errors":{"cx":0.01,"*":0.0005}}`))
	f.Add([]byte(`{"qubits":[{"t1_us":50,"t2_us":120}]}`)) // T2 > 2·T1: must be rejected
	f.Add([]byte(`{"qubits":`))                            // truncated JSON
	f.Add([]byte(`{"qubits":[{"t1_us":1e308,"t2_us":1e308}],"error_scale":1e300}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ddsim.ParseDevice(data)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("ParseDevice accepted a device its own Validate rejects: %v", err)
		}
		n := len(d.Qubits)
		if n > 4 {
			n = 4
		}
		c := ddsim.NewCircuit("fuzz_dev", n)
		c.H(0)
		for q := 1; q < n; q++ {
			c.CX(q-1, q)
		}
		c.H(0)
		m := ddsim.NoiseModel{Device: d, Idle: &ddsim.IdleNoise{}, Crosstalk: &ddsim.Crosstalk{Strength: 0.01}}
		plan, err := m.Compile(c)
		if err != nil {
			t.Fatalf("valid device failed to compile: %v", err)
		}
		for i := range c.Ops {
			on := plan.At(i)
			if on == nil {
				continue
			}
			for j := range on.Pre {
				assertKraus1Complete(t, on.Pre[j].Kraus())
			}
			for j := range on.Post {
				assertKraus1Complete(t, on.Post[j].Kraus())
			}
			for j := range on.Post2 {
				assertKraus2Complete(t, on.Post2[j].Kraus())
			}
		}
	})
}

// assertKraus1Complete checks ΣK†K = I for a single-qubit channel.
func assertKraus1Complete(t *testing.T, ks [][2][2]complex128) {
	t.Helper()
	var sum [2][2]complex128
	for _, k := range ks {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for l := 0; l < 2; l++ {
					sum[i][j] += cmplxConj(k[l][i]) * k[l][j]
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if d := sum[i][j] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("channel not trace-preserving: ΣK†K[%d][%d] = %v", i, j, sum[i][j])
			}
		}
	}
}

// assertKraus2Complete checks ΣK†K = I for a two-qubit channel.
func assertKraus2Complete(t *testing.T, ks [][4][4]complex128) {
	t.Helper()
	var sum [4][4]complex128
	for _, k := range ks {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				for l := 0; l < 4; l++ {
					sum[i][j] += cmplxConj(k[l][i]) * k[l][j]
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if d := sum[i][j] - want; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("two-qubit channel not trace-preserving: ΣK†K[%d][%d] = %v", i, j, sum[i][j])
			}
		}
	}
}

func cmplxConj(z complex128) complex128 { return complex(real(z), -imag(z)) }
