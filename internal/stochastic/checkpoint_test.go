package stochastic

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
	"ddsim/internal/telemetry"
)

// bvLike builds a Bernstein–Vazirani-shaped circuit: a long
// deterministic gate prefix followed by measurements only, the
// workload class where prefix checkpointing saves almost everything.
func bvLike(n int) *circuit.Circuit {
	c := circuit.New("bv_like", n)
	anc := n - 1
	c.X(anc).H(anc)
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q += 2 {
		c.CX(q, anc)
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q++ {
		c.Measure(q, q)
	}
	return c
}

// dynamicCircuit interleaves measurements, conditionals and resets
// with long deterministic gate runs: a noise-free path that ends at
// the first measurement with most of the circuit behind it.
func dynamicCircuit() *circuit.Circuit {
	c := circuit.New("dynamic", 4)
	c.H(0).CX(0, 1)
	c.Measure(0, 0) // site 0
	for i := 0; i < 12; i++ {
		c.H(2).CX(2, 3).H(2)
	}
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 3,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}}) // conditioned on the first outcome
	c.Measure(2, 1) // site 1
	for i := 0; i < 8; i++ {
		c.H(1).CX(1, 3)
	}
	c.Reset(3) // site 2
	c.H(3).CX(3, 0)
	c.Measure(1, 2).Measure(3, 3) // sites 3, 4
	return c
}

// pathOf builds the reference path of a job the way a forking worker
// does.
func pathOf(t *testing.T, c *circuit.Circuit, m noise.Model) *refPath {
	t.Helper()
	js, err := prepareJob(Job{Circuit: c, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return js.path
}

// replayFactory wraps f so that its backends hide sim.Forker: a job on
// them replays the reference path for every trajectory, the baseline
// of the forked-vs-replay differentials. sim.Snapshotter is forwarded,
// so fidelity tracking still works. The other optional capabilities
// (StateSizer, TableStatser, Releaser) are hidden too; none of them
// changes a result.
func replayFactory(f sim.Factory) sim.Factory {
	return func(c *circuit.Circuit) (sim.Backend, error) {
		b, err := f(c)
		if err != nil {
			return nil, err
		}
		if s, ok := b.(sim.Snapshotter); ok {
			return struct {
				sim.Backend
				sim.Snapshotter
			}{b, s}, nil
		}
		return struct{ sim.Backend }{b}, nil
	}
}

// TestAnalyzeCheckpoint pins where the reference path ends: at the
// first measurement or reset for noise-free and event-noise models, at
// the first state-dependent channel otherwise, at the circuit's end
// when nothing stops it — and which unitaries and rolls lie on it.
func TestAnalyzeCheckpoint(t *testing.T) {
	bv := bvLike(7)
	gates := bv.GateCount()
	firstMeasure := 0
	for i := range bv.Ops {
		if bv.Ops[i].Kind == circuit.KindMeasure {
			firstMeasure = i
			break
		}
	}
	touched := 0 // qubits touched by the gates before the first measure
	for i := 0; i < firstMeasure; i++ {
		touched += len(bv.Ops[i].Qubits())
	}

	t.Run("noise-free", func(t *testing.T) {
		p := pathOf(t, bv, noise.Model{})
		if p.endOp != firstMeasure || p.endCh != 0 || len(p.rolls) != 0 {
			t.Fatalf("end=%d/%d rolls=%d, want end=%d/0 and no rolls", p.endOp, p.endCh, len(p.rolls), firstMeasure)
		}
		if len(p.gates) != gates {
			t.Errorf("path gates=%d, want %d", len(p.gates), gates)
		}
		if !p.worthwhile() {
			t.Error("a full-gate path must be worthwhile")
		}
	})
	t.Run("noisy", func(t *testing.T) {
		// Event noise is state-independent until it fires: the path
		// runs to the first measurement, three rolls per touched qubit.
		p := pathOf(t, bv, noise.PaperDefaults())
		if p.endOp != firstMeasure || len(p.gates) != gates {
			t.Fatalf("end=%d gates=%d, want %d/%d", p.endOp, len(p.gates), firstMeasure, gates)
		}
		if len(p.rolls) != 3*touched {
			t.Errorf("rolls=%d, want %d", len(p.rolls), 3*touched)
		}
		if first, last := p.rolls[0], p.rolls[len(p.rolls)-1]; first.need != 1 || int(last.need) != gates {
			t.Errorf("post-gate rolls need %d..%d unitaries, want 1..%d", first.need, last.need, gates)
		}
	})
	t.Run("exact-damping", func(t *testing.T) {
		// The exact channel's branch probability needs the state: the
		// path holds the first unitary and its depolarising roll, and
		// ends at the damping channel behind it — the single-gate
		// checkpoint as the degenerate case.
		p := pathOf(t, bv, noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01})
		if len(p.gates) != 1 || len(p.rolls) != 1 || p.endOp != 0 || p.endCh != 1 {
			t.Fatalf("gates=%d rolls=%d end=%d/%d, want 1/1/0/1", len(p.gates), len(p.rolls), p.endOp, p.endCh)
		}
	})
	t.Run("idle-before-gate", func(t *testing.T) {
		// Idle decay is exact damping applied before its gate: the path
		// must end before that gate's unitary.
		c := circuit.New("idle", 2)
		c.H(0).H(1).H(1).H(1).CX(0, 1)
		m := noise.PaperDefaults()
		m.Idle = &noise.IdleNoise{Damping: 0.01, Dephasing: 0.01}
		p := pathOf(t, c, m)
		if p.endOp != 4 || p.endCh != 0 || len(p.gates) != 4 {
			t.Fatalf("end=%d/%d gates=%d, want 4/0/4", p.endOp, p.endCh, len(p.gates))
		}
	})
	t.Run("measurement-first", func(t *testing.T) {
		// No unitary is shared, so the job replays even on a forking
		// backend: forking would restore the initial state and save
		// nothing.
		c := circuit.New("m_first", 2)
		c.Measure(0, 0).H(1)
		p := pathOf(t, c, noise.Model{})
		if p.endOp != 0 || len(p.gates) != 0 {
			t.Fatalf("end=%d gates=%d, want 0/0", p.endOp, len(p.gates))
		}
		if p.worthwhile() {
			t.Error("a path without unitaries has nothing to fork")
		}
		opts := Options{Runs: 64, Seed: 2, Shots: 1, TrackStates: []uint64{0, 3}}
		res, err := Run(c, statevec.Factory(), noise.Model{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpointed {
			t.Error("forked a path without unitaries")
		}
	})
	t.Run("fully-deterministic", func(t *testing.T) {
		p := pathOf(t, circuit.GHZ(5), noise.Model{})
		if p.endOp != len(circuit.GHZ(5).Ops) {
			t.Fatalf("end=%d, want the whole circuit", p.endOp)
		}
		if len(p.gates) != circuit.GHZ(5).GateCount() {
			t.Errorf("path gates=%d", len(p.gates))
		}
	})
}

// TestCheckpointedMatchesPlainSameSeed is the differential suite: for
// every backend with fork support, every workload class and several
// worker counts, checkpointed execution must be bit-identical to the
// plain replay with the same seed. Run under -race this also exercises
// the checkpoint runner's engine integration.
func TestCheckpointedMatchesPlainSameSeed(t *testing.T) {
	backends := []struct {
		name    string
		factory sim.Factory
	}{
		{"dd", ddback.Factory()},
		{"statevec", statevec.Factory()},
	}
	workloads := []struct {
		name  string
		circ  *circuit.Circuit
		model noise.Model
	}{
		{"bv_perfect", bvLike(7), noise.Model{}},
		{"bv_noisy", bvLike(7), noise.PaperDefaults().Scale(20)},
		{"ghz_noisy_measured", circuit.GHZ(4).MeasureAll(), noise.Model{Depolarizing: 0.02, Damping: 0.03, PhaseFlip: 0.02}},
		{"dynamic_perfect", dynamicCircuit(), noise.Model{}},
	}
	for _, b := range backends {
		for _, w := range workloads {
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				opts := Options{
					Runs: 300, Seed: 11, Shots: 2, Workers: workers, ChunkSize: 16,
					TrackStates: []uint64{0, 9},
				}
				plain, err := Run(w.circ, replayFactory(b.factory), w.model, opts)
				if err != nil {
					t.Fatalf("%s/%s plain: %v", b.name, w.name, err)
				}
				if plain.Checkpointed {
					t.Fatalf("%s/%s: Checkpointed set without sim.Forker", b.name, w.name)
				}
				forked, err := Run(w.circ, b.factory, w.model, opts)
				if err != nil {
					t.Fatalf("%s/%s forked: %v", b.name, w.name, err)
				}
				if !forked.Checkpointed {
					t.Fatalf("%s/%s: Checkpointed not set", b.name, w.name)
				}
				assertResultsIdentical(t, b.name+"/"+w.name, plain, forked)
			}
		}
	}
}

// TestCheckpointAdaptiveEquivalence: under adaptive stopping the
// checkpointed run must stop at the same Theorem-1 target, produce
// bit-identical estimates, and land within the guaranteed radius of
// the exact value.
func TestCheckpointAdaptiveEquivalence(t *testing.T) {
	c := circuit.GHZ(4).MeasureAll()
	m := noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}
	opts := Options{
		Runs: 100000, Seed: 5, ChunkSize: 32, Workers: 4,
		TrackStates:    []uint64{0, 15},
		TargetAccuracy: 0.08, TargetConfidence: 0.95,
	}
	plain, err := Run(c, replayFactory(ddback.Factory()), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := Run(c, ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if forked.Runs >= opts.Runs {
		t.Fatalf("adaptive stopping did not engage: %d runs", forked.Runs)
	}
	if plain.TargetRuns != forked.TargetRuns {
		t.Fatalf("adaptive targets differ: %d vs %d", plain.TargetRuns, forked.TargetRuns)
	}
	assertResultsIdentical(t, "adaptive", plain, forked)
	// Distributional sanity: the noise is weak, so the GHZ poles must
	// still be within the Theorem-1 radius of their ideal weight 0.5.
	for i, p := range forked.TrackedProbs {
		if math.Abs(p-0.5) > forked.ConfidenceRadius+0.05 {
			t.Errorf("tracked[%d] = %v implausibly far from 0.5 (radius %v)", i, p, forked.ConfidenceRadius)
		}
	}
}

// TestNoiseFreeDynamicForksOnce: a noise-free dynamic circuit shares
// only its reference path, so each trajectory forks exactly once, from
// the path's end, skips exactly the path's unitaries, and runs the rest
// op by op — bit-identical to the plain replay.
func TestNoiseFreeDynamicForksOnce(t *testing.T) {
	c := dynamicCircuit()
	path := pathOf(t, c, noise.Model{})
	if len(path.gates) == 0 || path.endOp == len(c.Ops) {
		t.Fatalf("bad workload for this test: path %+v", path)
	}
	opts := Options{Runs: 200, Seed: 3, Workers: 1, ChunkSize: 32}

	plain, err := Run(c, replayFactory(ddback.Factory()), noise.Model{}, opts)
	if err != nil {
		t.Fatal(err)
	}

	forksBefore := telemetry.CheckpointForks.Value()
	skipBefore := telemetry.CheckpointGatesSkipped.Value()
	forked, err := Run(c, ddback.Factory(), noise.Model{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	forks := telemetry.CheckpointForks.Value() - forksBefore
	skipped := telemetry.CheckpointGatesSkipped.Value() - skipBefore

	assertResultsIdentical(t, "dynamic", plain, forked)
	if forks != int64(opts.Runs) {
		t.Errorf("forks = %d, want one per trajectory (%d)", forks, opts.Runs)
	}
	if want := int64(opts.Runs * len(path.gates)); skipped != want {
		t.Errorf("skipped %d gate applications, want %d (the path's unitaries per trajectory)", skipped, want)
	}
}

// TestCheckpointingReducesGateApplications is the acceptance check of
// forking on a circuit whose first random site sits late:
// Bernstein–Vazirani applies every gate before its measurements, so on
// a perfect (noise-free) device the whole gate sequence is the shared
// reference path. Forking from it must cut the job's gate applications
// by well over 30% — asserted via the engine's telemetry counters —
// while staying bit-identical to the replay with the same seed.
func TestCheckpointingReducesGateApplications(t *testing.T) {
	c := bvLike(15)
	if p := pathOf(t, c, noise.Model{}); p.endOp < len(c.Ops)/2 {
		t.Fatalf("precondition broken: the first random site is op %d of %d, not past halfway", p.endOp, len(c.Ops))
	}
	opts := Options{Runs: 200, Seed: 9, Workers: 2, ChunkSize: 32}
	run := func(f sim.Factory) (*Result, int64, int64) {
		appliedBefore := telemetry.GateApplications.Value()
		forksBefore := telemetry.CheckpointForks.Value()
		res, err := Run(c, f, noise.Model{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, telemetry.GateApplications.Value() - appliedBefore,
			telemetry.CheckpointForks.Value() - forksBefore
	}
	plain, appliedPlain, _ := run(replayFactory(ddback.Factory()))
	forked, appliedForked, forks := run(ddback.Factory())

	if !forked.Checkpointed || plain.Checkpointed {
		t.Fatalf("Checkpointed flags wrong: replay=%v forked=%v", plain.Checkpointed, forked.Checkpointed)
	}
	if forks != int64(opts.Runs) {
		t.Errorf("forks served = %d, want one per trajectory (%d)", forks, opts.Runs)
	}
	if appliedForked > appliedPlain*7/10 {
		t.Errorf("forking applied %d gates vs %d replayed — less than the required 30%% reduction",
			appliedForked, appliedPlain)
	}
	assertResultsIdentical(t, "bv", plain, forked)
}

// TestFidelityReferenceCostsNoGates: on a measurement-free circuit the
// reference path covers the circuit, so the forking runner's final
// snapshot is the fidelity reference and no second noise-free pass
// runs. A fidelity job applies exactly the gates of the same job
// without fidelity.
func TestFidelityReferenceCostsNoGates(t *testing.T) {
	c := circuit.QFT(6)
	m := noise.Model{Depolarizing: 0.01, PhaseFlip: 0.01}
	if p := pathOf(t, c, m); p.endOp != len(c.Ops) {
		t.Fatalf("precondition broken: the path ends at op %d of %d", p.endOp, len(c.Ops))
	}
	for _, tc := range []struct {
		name    string
		factory sim.Factory
	}{
		{"dd", ddback.Factory()},
		{"statevec", statevec.Factory()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			applied := func(fidelity bool) int64 {
				before := telemetry.GateApplications.Value()
				opts := Options{Runs: 100, Seed: 3, Workers: 1, TrackFidelity: fidelity}
				if _, err := Run(c, tc.factory, m, opts); err != nil {
					t.Fatal(err)
				}
				return telemetry.GateApplications.Value() - before
			}
			without, with := applied(false), applied(true)
			if with != without {
				t.Errorf("fidelity job applied %d gates, the same job without fidelity %d", with, without)
			}
		})
	}
}

// TestCheckpointOnUnsupportedBackend: the sparse baseline has no fork
// support, so its jobs replay the reference path.
func TestCheckpointOnUnsupportedBackend(t *testing.T) {
	res, err := Run(circuit.GHZ(3).MeasureAll(), sparsemat.Factory(), noise.Model{}, Options{Runs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpointed {
		t.Error("sparse backend cannot have checkpointed")
	}
}

// forkedVsReplay runs one job on f and on replayFactory(f) and demands
// equal histograms, and estimates and fidelity equal to rel relative
// difference (0: bit-equal).
func forkedVsReplay(t *testing.T, label string, c *circuit.Circuit, f sim.Factory, m noise.Model, opts Options, rel float64) {
	t.Helper()
	plain, err := Run(c, replayFactory(f), m, opts)
	if err != nil {
		t.Fatalf("%s replay: %v", label, err)
	}
	forked, err := Run(c, f, m, opts)
	if err != nil {
		t.Fatalf("%s forked: %v", label, err)
	}
	if !forked.Checkpointed {
		t.Fatalf("%s: did not fork", label)
	}
	assertResultsClose(t, label, plain, forked, rel)
}

// sameDrawsForkedReplayed runs each trajectory of a job through a
// forking and a replaying runner on fresh backends of f, shots
// included, and demands that both take the same number of draws.
func sameDrawsForkedReplayed(t *testing.T, label string, c *circuit.Circuit, f sim.Factory, m noise.Model, opts Options) {
	t.Helper()
	p := pathOf(t, c, m)
	var draws [2][]int
	for leg, fork := range []bool{true, false} {
		b, err := f(c)
		if err != nil {
			t.Fatal(err)
		}
		var forker sim.Forker
		if fork {
			forker = b.(sim.Forker)
		}
		r, _ := newCkptRunner(b, forker, c, p)
		src := new(drawCounter)
		rng := rand.New(src)
		clbits := make([]uint64, 1)
		for j := 0; j < opts.Runs; j++ {
			src.seek(opts.Seed, uint64(j))
			src.n = 0
			r.run(rng, clbits, new(ckptStats), new(noise.ChannelCounts))
			for s := 0; s < opts.Shots; s++ {
				b.SampleBasis(rng)
			}
			draws[leg] = append(draws[leg], src.n)
		}
		if rel, ok := b.(sim.Releaser); ok {
			rel.Release()
		}
	}
	for j := range draws[0] {
		if draws[0][j] != draws[1][j] {
			t.Fatalf("%s run %d: %d draws forked, %d replayed", label, j, draws[0][j], draws[1][j])
		}
	}
}

// forkCircuit has every op kind the reference path must handle behind
// its rolls: one- and two-qubit gates, idle gaps, a conditioned gate
// that holds at clbits 0 and one that does not, a mid-circuit
// measurement, a reset and final measurements.
func forkCircuit() *circuit.Circuit {
	c := circuit.New("fork", 4)
	c.H(0).CX(0, 1).H(2)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 3,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}}) // skipped on the path
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "h", Target: 3,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 0}}) // taken on the path
	c.T(2).CX(2, 3).H(2).CX(1, 2).S(0).CX(0, 3)
	c.Measure(1, 0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "z", Target: 0,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	c.Reset(1).H(1).CX(1, 0)
	c.MeasureAll()
	return c
}

// TestForkedMatchesReplay is the first-event-forking differential:
// every class of reference path — scanned to the first measurement
// (uniform event noise, with crosstalk, twirled), cut early by idle
// decay, cut at the first gate by exact damping, and the roll-free
// path of a noise-free dynamic circuit — on both forking backends, with
// one and two workers, over twenty seeds each. The DD backend runs the
// one-worker leg only: its weight interning is history-dependent, so
// on a circuit with non-Clifford phases two workers do not reproduce
// even their own previous run (ROADMAP item 2); its multi-worker
// differential stays on the cache-resident circuits of
// TestCheckpointedMatchesPlainSameSeed. Nor is its one-worker leg
// bit-exact: a forked trajectory applies its gate runs as block
// products from its snapshot on, a replayed one from op 0, and the
// products round differently. That leg demands identical histograms
// and draw counts, and estimates equal to 1e-12 relative; the statevec
// legs stay bit-exact.
func TestForkedMatchesReplay(t *testing.T) {
	paper := noise.PaperDefaults().Scale(10)
	xtalk, idle := paper, paper
	xtalk.Crosstalk = &noise.Crosstalk{Strength: 0.05, ZZBias: 0.5}
	idle.Idle = &noise.IdleNoise{Damping: 0.01, Dephasing: 0.01}
	cases := []struct {
		name  string
		circ  *circuit.Circuit
		model noise.Model
	}{
		{"paper", forkCircuit(), paper},
		{"paper+crosstalk", forkCircuit(), xtalk},
		{"paper+idle", forkCircuit(), idle},
		{"exact-damping", forkCircuit(), noise.Model{Depolarizing: 0.01, Damping: 0.03, PhaseFlip: 0.02}},
		{"twirled", forkCircuit(), paper.Twirl()},
		{"noise-free-dynamic", dynamicCircuit(), noise.Model{}},
	}
	backends := []struct {
		name    string
		factory sim.Factory
	}{
		{"dd", ddback.Factory()},
		{"statevec", statevec.Factory()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, b := range backends {
				for _, workers := range []int{1, 2} {
					if workers > 1 && b.name == "dd" {
						continue // see above
					}
					for seed := int64(1); seed <= 20; seed++ {
						opts := Options{
							Runs: 48, Seed: 1000 * seed, Shots: 2, Workers: workers, ChunkSize: 8,
							TrackStates: []uint64{0, 5, 15}, TrackFidelity: true,
						}
						if b.name == "dd" {
							forkedVsReplay(t, b.name, tc.circ, b.factory, tc.model, opts, 1e-12)
							sameDrawsForkedReplayed(t, b.name, tc.circ, b.factory, tc.model, opts)
							continue
						}
						forkedVsReplay(t, b.name, tc.circ, b.factory, tc.model, opts, 0)
					}
				}
			}
		})
	}
}

// firstFire is the schedule's first draw for run 0 of a job with the
// given seed: the index of the roll it fires first, or -1.
func firstFire(p *refPath, src *stream, rng *rand.Rand, seed int64) int {
	src.seek(seed, 0)
	if j := p.nextFire(rng, 0); j < len(p.rolls) {
		return j
	}
	return -1
}

// TestForkedMatchesReplayAtEveryPosition runs the two benchmark-size
// workloads with trajectories picked, by scanning seeds, to fire first
// at each channel position of the path's first and last gate — the
// ends of the snapshot layout: before the first snapshot's successor
// and on the final one — and one that never fires. Rates are raised so
// the search stays short; the jobs themselves are a few trajectories.
func TestForkedMatchesReplayAtEveryPosition(t *testing.T) {
	model := noise.PaperDefaults().Scale(3)
	for _, tc := range []struct {
		name    string
		circ    *circuit.Circuit
		factory sim.Factory
	}{
		{"ghz64/dd", circuit.GHZ(64), ddback.Factory()},
		{"qft14/statevec", circuit.QFT(14), statevec.Factory()},
	} {
		p := pathOf(t, tc.circ, model)
		gates := len(p.gates)
		if gates != tc.circ.GateCount() || gates <= maxRefSnapshots {
			t.Fatalf("%s: %d of %d gates on the path", tc.name, gates, tc.circ.GateCount())
		}
		want := map[int]bool{-1: true}
		for j, ro := range p.rolls {
			if ro.need == 1 || int(ro.need) == gates {
				want[j] = true
			}
		}
		rng, src := newStream()
		for seed := int64(1); len(want) > 0 && seed < 1<<20; seed++ {
			j := firstFire(p, src, rng, seed)
			if !want[j] {
				continue
			}
			delete(want, j)
			forkedVsReplay(t, tc.name, tc.circ, tc.factory, model, Options{
				Runs: 3, Seed: seed, Workers: 1, TrackStates: []uint64{0, 1}, TrackFidelity: true,
			}, 0)
		}
		if len(want) > 0 {
			t.Errorf("%s: no seed fires first at rolls %v", tc.name, want)
		}
	}
}

// TestReferenceSnapshotsStayWithinBudget: whatever the byte budget, a
// worker keeps at most maxRefSnapshots snapshots, their summed
// StateCost stays within it (the first one — the fork point every
// trajectory needs — is taken regardless), the path's end is among
// them as soon as two fit, its end state is the same with or without
// that snapshot (finalState), and trajectories forked from the thinner
// layouts still match the plain replay.
func TestReferenceSnapshotsStayWithinBudget(t *testing.T) {
	c := circuit.QFT(6)
	model := noise.PaperDefaults().Scale(20)
	p := pathOf(t, c, model)
	const stateBytes = 16 << 6
	for _, tc := range []struct {
		budget int64
		snaps  int
	}{
		{0, 1},
		{stateBytes, 1},
		{3*stateBytes + 100, 3},
		{maxSnapshotBytes, maxRefSnapshots},
	} {
		b, err := statevec.Factory()(c)
		if err != nil {
			t.Fatal(err)
		}
		r := &ckptRunner{backend: b, forker: b.(sim.Forker), sizer: b.(sim.StateSizer), circ: c, path: p}
		r.takeSnapshots(tc.budget)
		if len(r.snaps) != tc.snaps {
			t.Errorf("budget %d: %d snapshots, want %d", tc.budget, len(r.snaps), tc.snaps)
		}
		var sum int64
		for i, s := range r.snaps {
			_, bytes := r.sizer.StateCost(s.state)
			sum += bytes
			if i > 0 && s.gates <= r.snaps[i-1].gates {
				t.Errorf("budget %d: snapshots not ascending: %d after %d", tc.budget, s.gates, r.snaps[i-1].gates)
			}
		}
		if sum != r.retainedBytes || sum > max(tc.budget, stateBytes) {
			t.Errorf("budget %d: snapshots hold %d bytes (accounted %d)", tc.budget, sum, r.retainedBytes)
		}
		if r.snaps[0].gates != 1 || (tc.snaps > 1 && r.snaps[tc.snaps-1].gates != len(p.gates)) {
			t.Errorf("budget %d: snapshots at %+v, want the first roll and the path's end", tc.budget, r.snaps)
		}

		plain, err := statevec.Factory()(c)
		if err != nil {
			t.Fatal(err)
		}
		replay, _ := newCkptRunner(plain, nil, c, p)
		// The path's end state comes out the same whether a snapshot
		// was kept there or the runner has to walk there.
		end := r.finalState(b.(sim.Snapshotter), new(ckptStats))
		replay.advance(-1, len(p.gates), new(ckptStats))
		if !slices.Equal(end.([]complex128), plain.(sim.Snapshotter).Snapshot().([]complex128)) {
			t.Errorf("budget %d: finalState differs from the replayed path's end", tc.budget)
		}
		clbits := make([]uint64, 1)
		for seed := int64(1); seed <= 40; seed++ {
			var st ckptStats
			r.run(rand.New(rand.NewSource(seed)), clbits, &st, new(noise.ChannelCounts))
			replay.run(rand.New(rand.NewSource(seed)), clbits, new(ckptStats), new(noise.ChannelCounts))
			for idx := uint64(0); idx < 1<<6; idx++ {
				if got, want := b.Probability(idx), plain.Probability(idx); got != want {
					t.Fatalf("budget %d seed %d: P(%d) = %v forked, %v replayed", tc.budget, seed, idx, got, want)
				}
			}
			if st.applied+st.skipped < len(p.gates) {
				t.Fatalf("budget %d seed %d: stats %+v", tc.budget, seed, st)
			}
		}
	}
}

// TestForkedCountsEveryChannel: the channel telemetry counts every
// sampled channel, whether the scan rolled it without a backend or the
// replay applied it — so forked and replayed jobs report the same
// per-kind totals, for a uniform model as for an extended one.
func TestForkedCountsEveryChannel(t *testing.T) {
	uniform := noise.PaperDefaults().Scale(10)
	extended := uniform
	extended.Crosstalk = &noise.Crosstalk{Strength: 0.05, ZZBias: 0.5}
	extended.Idle = &noise.IdleNoise{Damping: 0.01, Dephasing: 0.01}
	read := func() (c noise.ChannelCounts) {
		for l, name := range noise.Labels {
			c[l] = telemetry.NoiseChannelApplications.With(name).Value()
		}
		return c
	}
	for _, tc := range []struct {
		name  string
		model noise.Model
		kinds []int // labels that must have been counted
	}{
		{"uniform", uniform, []int{noise.LabelDepolarizing, noise.LabelDamping, noise.LabelPhaseFlip}},
		{"extended", extended, []int{noise.LabelCrosstalk, noise.LabelIdle}},
	} {
		var deltas [2]noise.ChannelCounts
		for i, f := range []sim.Factory{replayFactory(statevec.Factory()), statevec.Factory()} {
			before := read()
			if _, err := Run(forkCircuit(), f, tc.model, Options{Runs: 200, Seed: 4, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			after := read()
			for l := range after {
				deltas[i][l] = after[l] - before[l]
			}
		}
		if deltas[0] != deltas[1] {
			t.Errorf("%s: channel applications replayed %v, forked %v", tc.name, deltas[0], deltas[1])
		}
		for _, l := range tc.kinds {
			if deltas[0][l] == 0 {
				t.Errorf("%s: no %s applications counted: %v", tc.name, noise.Labels[l], deltas[0])
			}
		}
	}
}

// BenchmarkForkVsReplay isolates trajectory forking: the same
// perfect-device BV sampling job forked from the reference path and
// replaying it, on both forking backends. The gap is the cost of
// replaying the deterministic prefix M times.
func BenchmarkForkVsReplay(b *testing.B) {
	c := bvLike(15)
	for _, bk := range []struct {
		name    string
		factory sim.Factory
	}{{"dd", ddback.Factory()}, {"statevec", statevec.Factory()}} {
		for _, leg := range []struct {
			name    string
			factory sim.Factory
		}{{"replay", replayFactory(bk.factory)}, {"fork", bk.factory}} {
			b.Run(bk.name+"/"+leg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Run(c, leg.factory, noise.Model{}, Options{Runs: 100, Seed: 1, Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					if res.Runs != 100 || res.Checkpointed != (leg.name == "fork") {
						b.Fatalf("completed %d runs, checkpointed %v", res.Runs, res.Checkpointed)
					}
				}
			})
		}
	}
}
