package noise

// Stream equivalence of the draw/fire split. The stochastic engine's
// first-event scan performs a channel's draw without a backend and
// calls Fire itself, so for bit-identical trajectories draw-then-fire
// must make exactly the backend calls, and leave the rng exactly
// where, the one-piece Apply of before the split did. The reference
// below is that Apply, kept verbatim; the golden file pins what it
// produced at the commit before the split.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// recorder is a sim.Backend that logs the calls the noise layer makes
// and answers ProbOne from a fixed cycle covering both boundary cases
// (a qubit surely in |0⟩, surely in |1⟩) and the branch-drawing middle.
type recorder struct {
	sim.Backend // the noise layer calls nothing else
	log         []string
	probes      int
}

var probeCycle = []float64{0.3, 0, 0.7, 1, 0.5}

func (r *recorder) logf(format string, args ...interface{}) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *recorder) ApplyPauli(p sim.Pauli, q int) { r.logf("pauli %s q%d", p, q) }

func (r *recorder) ProbOne(q int) float64 {
	v := probeCycle[r.probes%len(probeCycle)]
	r.probes++
	r.logf("probone q%d = %v", q, v)
	return v
}

func (r *recorder) ApplyDamping(q int, p float64, fire bool, branchProb float64) {
	r.logf("damping q%d p=%.17g fire=%t branch=%.17g", q, p, fire, branchProb)
}

func (r *recorder) ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64) {
	for p0 := sim.PauliI; p0 <= sim.PauliZ; p0++ {
		for p1 := sim.PauliI; p1 <= sim.PauliZ; p1++ {
			if k == PauliPairMat(p0, p1) {
				r.logf("kraus2 %s%s q%d q%d branch=%v", p0, p1, q0, q1, branchProb)
				return
			}
		}
	}
	r.logf("kraus2 ? q%d q%d", q0, q1)
}

// legacyApply1 is Chan1.Apply as it stood before the draw/fire split.
func legacyApply1(ch *Chan1, b sim.Backend, rng *rand.Rand) {
	switch ch.Kind {
	case ChanDepolarizing:
		if rng.Float64() < ch.P {
			b.ApplyPauli(sim.Pauli(rng.Intn(4)), ch.Qubit)
		}
	case ChanDamping:
		q := ch.Qubit
		if ch.Event {
			if rng.Float64() >= ch.P {
				return
			}
			p1 := b.ProbOne(q)
			if p1 <= 0 {
				return
			}
			if p1 >= 1 || rng.Float64() < p1 {
				b.ApplyDamping(q, 1, true, p1)
			} else {
				b.ApplyDamping(q, 1, false, 1-p1)
			}
			return
		}
		p1 := b.ProbOne(q)
		pFire := ch.P * p1
		if pFire <= 0 {
			return
		}
		if rng.Float64() < pFire {
			b.ApplyDamping(q, ch.P, true, pFire)
		} else {
			b.ApplyDamping(q, ch.P, false, 1-pFire)
		}
	case ChanPhaseFlip:
		if rng.Float64() < ch.P {
			b.ApplyPauli(sim.PauliZ, ch.Qubit)
		}
	case ChanPauli:
		r := rng.Float64()
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
		acc += ch.Probs[3]
		if r < acc {
			b.ApplyPauli(sim.PauliZ, ch.Qubit)
		}
	}
}

// legacyApply2 is Chan2.Apply as it stood before the split.
func legacyApply2(ch *Chan2, b sim.Backend, rng *rand.Rand) {
	r := rng.Float64()
	acc := 0.0
	for _, t := range ch.Terms {
		acc += t.Prob
		if r < acc {
			b.ApplyKraus2(ch.Q0, ch.Q1, PauliPairMat(t.P0, t.P1), 1)
			return
		}
	}
}

// drawThenFire1 is what the engine's scan does with a channel: draw
// against the threshold, fire on a hit. Exact damping has no draw to
// split off and goes through Apply.
func drawThenFire1(ch *Chan1, b sim.Backend, rng *rand.Rand) {
	if !ch.StateIndependent() {
		ch.Apply(b, rng)
		return
	}
	if r := rng.Float64(); r < ch.Threshold() {
		ch.Fire(b, rng, r)
	}
}

func drawThenFire2(ch *Chan2, b sim.Backend, rng *rand.Rand) {
	if r := rng.Float64(); r < ch.Threshold() {
		ch.Fire(b, r)
	}
}

// streamChannels is one instance of every channel kind, at rates high
// enough that a few rounds hit every branch.
func streamChannels() ([]Chan1, Chan2) {
	xt := &Crosstalk{Strength: 0.5, ZZBias: 0.5}
	return []Chan1{
		newChan1(ChanDepolarizing, 0, 0.3, false, LabelDepolarizing),
		newChan1(ChanDamping, 1, 0.4, true, LabelDamping),
		newChan1(ChanDamping, 2, 0.4, false, LabelDamping),
		newChan1(ChanPhaseFlip, 3, 0.3, false, LabelPhaseFlip),
		newPauliChan1(0, [4]float64{0.5, 0.2, 0.1, 0.2}, LabelTwirled),
	}, xt.Channel(1, 2)
}

// streamLog samples five rounds of every channel from one seeded rng
// and returns the backend calls, closed by the rng's next value — its
// position in the stream.
func streamLog(seed int64, apply1 func(*Chan1, sim.Backend, *rand.Rand), apply2 func(*Chan2, sim.Backend, *rand.Rand)) []string {
	chans, pair := streamChannels()
	rng := rand.New(rand.NewSource(seed))
	rec := &recorder{}
	for round := 0; round < 5; round++ {
		for i := range chans {
			apply1(&chans[i], rec, rng)
		}
		apply2(&pair, rec, rng)
	}
	rec.logf("next %d", rng.Int63())
	return rec.log
}

func sameLog(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}

// TestDrawThenFireMatchesLegacyApply: for every channel kind and 1000
// seeds, both Apply and an explicit draw-then-fire make the backend
// calls of the pre-split Apply and leave the rng at the same position.
func TestDrawThenFireMatchesLegacyApply(t *testing.T) {
	apply1 := func(ch *Chan1, b sim.Backend, rng *rand.Rand) { ch.Apply(b, rng) }
	apply2 := func(ch *Chan2, b sim.Backend, rng *rand.Rand) { ch.Apply(b, rng) }
	kinds := map[string]bool{}
	for seed := int64(1); seed <= 1000; seed++ {
		want := streamLog(seed, legacyApply1, legacyApply2)
		if got := streamLog(seed, apply1, apply2); !sameLog(got, want) {
			t.Fatalf("seed %d: Apply diverges from the pre-split Apply:\n%s\nwant:\n%s", seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if got := streamLog(seed, drawThenFire1, drawThenFire2); !sameLog(got, want) {
			t.Fatalf("seed %d: draw-then-fire diverges from the pre-split Apply:\n%s\nwant:\n%s", seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		for _, line := range want {
			f := strings.Fields(line)
			kinds[f[0]+" "+f[1]] = true
		}
	}
	// The comparison is only as good as the branches it reached.
	for _, k := range []string{"pauli I", "pauli X", "pauli Y", "pauli Z", "kraus2 ZZ", "kraus2 IX", "damping q1", "damping q2"} {
		if !kinds[k] {
			t.Errorf("no seed produced a %q call", k)
		}
	}
}

// TestStreamGolden pins the logs of seeds 1 and 7 to the file written
// by the pre-split Apply itself, so the reference above cannot drift
// together with the code it checks.
func TestStreamGolden(t *testing.T) {
	var sb strings.Builder
	for _, seed := range []int64{1, 7} {
		fmt.Fprintf(&sb, "seed %d\n", seed)
		for _, line := range streamLog(seed, drawThenFire1, drawThenFire2) {
			sb.WriteString(line + "\n")
		}
	}
	want, err := os.ReadFile("testdata/stream_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("draw-then-fire log differs from testdata/stream_golden.txt:\n%s", sb.String())
	}
}

// opLog samples one operation's channels around its unitary and
// returns the backend calls, the per-label counts and the rng position.
// scan selects the engine's way: roll the op's Rolls without a backend
// until one fires, Fire it, and finish the op with the *From loops.
func opLog(on *OpNoise, rng *rand.Rand, scan bool) ([]string, ChannelCounts) {
	rec := &recorder{}
	var counts ChannelCounts
	if !scan {
		on.ApplyPre(rec, rng, &counts)
		rec.logf("unitary")
		on.ApplyPost(rec, rng, &counts)
		rec.logf("next %d", rng.Int63())
		return rec.log, counts
	}
	fired := false
	for k, roll := range on.Rolls(nil) {
		counts[roll.Label]++
		r := rng.Float64()
		if r >= roll.Threshold {
			continue
		}
		fired = true
		if k < len(on.Pre) {
			on.Fire(k, r, rec, rng)
			on.ApplyPreFrom(k+1, rec, rng, &counts)
			rec.logf("unitary")
			on.ApplyPostFrom(0, rec, rng, &counts)
		} else {
			rec.logf("unitary")
			on.Fire(k, r, rec, rng)
			on.ApplyPostFrom(k+1-len(on.Pre), rec, rng, &counts)
		}
		break
	}
	if !fired {
		rec.logf("unitary")
	}
	rec.logf("next %d", rng.Int63())
	return rec.log, counts
}

// TestOpNoiseScanMatchesApply: scanning an operation's rolls and
// resuming behind the fired one is ApplyPre, unitary, ApplyPost — same
// calls, same counts, same rng position — wherever the first hit lands.
func TestOpNoiseScanMatchesApply(t *testing.T) {
	chans, pair := streamChannels()
	on := &OpNoise{
		Pre:   []Chan1{chans[3], chans[0]},
		Post:  []Chan1{chans[0], chans[1], chans[3], chans[4]},
		Post2: []Chan2{pair},
	}
	if got := len(on.Rolls(nil)); got != on.Len() {
		t.Fatalf("%d rolls for %d state-independent channels", got, on.Len())
	}
	firedAt := map[string]bool{}
	for seed := int64(1); seed <= 1000; seed++ {
		want, wantCounts := opLog(on, rand.New(rand.NewSource(seed)), false)
		got, gotCounts := opLog(on, rand.New(rand.NewSource(seed)), true)
		if !sameLog(got, want) || gotCounts != wantCounts {
			t.Fatalf("seed %d: scan %v %v\napply %v %v", seed, got, gotCounts, want, wantCounts)
		}
		firedAt[want[0]] = true
	}
	if len(firedAt) < 6 {
		t.Errorf("first calls seen: %v — too few positions exercised", firedAt)
	}

	// An exact-damping channel cuts the roll list short, in either phase.
	exact := chans[2]
	for _, tc := range []struct {
		on   OpNoise
		want int
	}{
		{OpNoise{Pre: []Chan1{chans[3], exact}, Post: []Chan1{chans[0]}}, 1},
		{OpNoise{Pre: []Chan1{chans[3]}, Post: []Chan1{chans[0], exact, chans[3]}, Post2: []Chan2{pair}}, 2},
	} {
		if got := len(tc.on.Rolls(nil)); got != tc.want {
			t.Errorf("rolls before the exact-damping channel: %d, want %d", got, tc.want)
		}
	}
}

// scripted is a rand.Source whose k-th Float64 is script[k] (0.75 past
// the end, above every threshold used here).
type scripted struct {
	script []float64
	draws  int
}

func (s *scripted) Seed(int64) {}

func (s *scripted) Int63() int64 {
	f := 0.75
	if s.draws < len(s.script) {
		f = s.script[s.draws]
	}
	s.draws++
	return int64(f * (1 << 53)) // Float64 is (Int63 mod 2^53) / 2^53
}

// TestCompiledRollsAreApplyAfterGateDraws: the roll list of a compiled
// uniform plan is the draw sequence of Model.ApplyAfterGate — as many
// draws per gate, and a value placed just under roll j's threshold at
// draw j makes the reference loop fire exactly the channel the plan
// fires for roll j, with the same follow-up draws. Exact-channel damping
// cuts the roll list at the first qubit's T1 channel; the op's remaining
// channels replay through ApplyPostFrom from there.
func TestCompiledRollsAreApplyAfterGateDraws(t *testing.T) {
	exactT1 := PaperDefaults()
	exactT1.DampingAsEvent = false
	for name, m := range map[string]Model{
		"paper":      PaperDefaults(),
		"exact-t1":   exactT1,
		"depol-only": {Depolarizing: 0.01},
		"damp+flip":  {Damping: 0.02, PhaseFlip: 0.01, DampingAsEvent: true},
		"paper-x10":  PaperDefaults().Scale(10),
	} {
		perQubit, cut := 0, -1 // channels per touched qubit; position of exact damping among them
		if m.Depolarizing > 0 {
			perQubit++
		}
		if m.Damping > 0 {
			if !m.DampingAsEvent {
				cut = perQubit
			}
			perQubit++
		}
		if m.PhaseFlip > 0 {
			perQubit++
		}
		c := circuit.QFT(3)
		plan, err := m.Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Ops {
			op := &c.Ops[i]
			if op.Kind != circuit.KindGate {
				continue
			}
			on := plan.At(i)
			rolls := on.Rolls(nil)
			wantRolls := on.Len()
			if cut >= 0 {
				wantRolls = cut
			}
			if on.Len() != perQubit*len(op.Qubits()) || len(rolls) != wantRolls {
				t.Fatalf("%s op %d: %d rolls, %d channels for %d qubits", name, i, len(rolls), on.Len(), len(op.Qubits()))
			}
			for j := -1; j < len(rolls); j++ { // -1: nothing fires
				script := make([]float64, len(rolls))
				for k := range script {
					script[k] = 0.75
				}
				if j >= 0 {
					script[j] = rolls[j].Threshold / 2
				}
				legacySrc := &scripted{script: script}
				legacy := &recorder{}
				m.ApplyAfterGate(legacy, op.Qubits(), rand.New(legacySrc))

				planSrc := &scripted{script: script}
				rng := rand.New(planSrc)
				planned := &recorder{}
				var counts ChannelCounts
				k := 0
				for ; k < len(rolls); k++ {
					if r := rng.Float64(); r < rolls[k].Threshold {
						on.Fire(k, r, planned, rng)
						k++
						break
					}
				}
				on.ApplyPostFrom(k, planned, rng, &counts)
				if !sameLog(planned.log, legacy.log) || planSrc.draws != legacySrc.draws {
					t.Errorf("%s op %d roll %d: plan %v (%d draws), ApplyAfterGate %v (%d draws)",
						name, i, j, planned.log, planSrc.draws, legacy.log, legacySrc.draws)
				}
				if j >= 0 && len(legacy.log) == 0 {
					t.Errorf("%s op %d roll %d: a draw under the threshold fired nothing", name, i, j)
				}
			}
		}
	}
}
