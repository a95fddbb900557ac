package stochastic

import (
	"math"
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/statevec"
)

// This file proves that the inversion-sampled schedule of the reference
// path (refPath.nextFire, refPath.fire) samples what rolling every
// channel one by one samples, and pins what it draws.

// branchRecorder is a backend that records the one noise operation a
// fired channel applies, as a small code: 0–3 a Pauli, 4/5 a damping
// branch, 16+ a Pauli pair.
type branchRecorder struct {
	sim.Backend // nil: every method a channel's Fire may call is below
	code        int
}

var pauliPairs = func() (m [16][4][4]complex128) {
	for i := range m {
		m[i] = noise.PauliPairMat(sim.Pauli(i/4), sim.Pauli(i%4))
	}
	return m
}()

func (b *branchRecorder) ApplyPauli(p sim.Pauli, _ int) { b.code = int(p) }
func (b *branchRecorder) ProbOne(int) float64           { return 0.3 }
func (b *branchRecorder) ApplyDamping(_ int, _ float64, fire bool, _ float64) {
	b.code = 4
	if fire {
		b.code = 5
	}
}
func (b *branchRecorder) ApplyKraus2(_, _ int, k [4][4]complex128, _ float64) {
	b.code = -1
	for i := range pauliPairs {
		if k == pauliPairs[i] {
			b.code = 16 + i
		}
	}
}

const branchCodes = 32

// fireHist histograms, over many trajectories, where the first roll
// fires (bin len(rolls): nowhere), how far behind it the second one
// does (bin 0: nowhere), and which branch the first one took, per
// telemetry label of its channel.
type fireHist struct {
	first, gap []float64
	branch     [noise.LabelCount * branchCodes]float64
}

func newFireHist(rolls int) *fireHist {
	return &fireHist{first: make([]float64, rolls+1), gap: make([]float64, rolls)}
}

func (h *fireHist) add(p *refPath, labels []int, first, second int, rec *branchRecorder) {
	h.first[first]++
	if first == len(p.rolls) {
		return
	}
	h.branch[labels[first]*branchCodes+rec.code]++
	if second < len(p.rolls) {
		h.gap[second-first]++
	} else {
		h.gap[0]++
	}
}

// rollLabels returns the telemetry label of every roll's channel.
func rollLabels(p *refPath) []int {
	labels := make([]int, len(p.rolls))
	var buf []noise.Roll
	for j, ro := range p.rolls {
		buf = p.plan.At(int(ro.op)).Rolls(buf[:0])
		labels[j] = buf[ro.ch].Label
	}
	return labels
}

// scanPerRoll is stream v1's definition of a trajectory's walk along
// the path: one draw per roll, fire when it falls below the threshold,
// with that draw as the channel's own. rng draws from src; the scan
// reads src directly, which is what keeps 10⁹ rolls affordable.
func scanPerRoll(p *refPath, rng *rand.Rand, src *stream, from int, rec *branchRecorder) int {
	for j := from; j < len(p.rolls); j++ {
		if x := float64(src.Uint64()>>11) * 0x1p-53; x < p.rolls[j].thr {
			if rec != nil {
				ro := &p.rolls[j]
				p.plan.At(int(ro.op)).Fire(int(ro.ch), x, rec, rng)
			}
			return j
		}
	}
	return len(p.rolls)
}

// chiSquare is the two-sample statistic Σ(a−b)²/(a+b) of two histograms
// of equal totals, merging neighbouring bins until each holds 40
// samples, and its degrees of freedom.
func chiSquare(a, b []float64) (chi2 float64, dof int) {
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		if sa+sb >= 40 {
			chi2 += (sa - sb) * (sa - sb) / (sa + sb)
			dof++
			sa, sb = 0, 0
		}
	}
	if sa+sb > 0 {
		chi2 += (sa - sb) * (sa - sb) / (sa + sb)
		dof++
	}
	return chi2, dof - 1
}

func assertSameDistribution(t *testing.T, label string, a, b []float64) {
	t.Helper()
	chi2, dof := chiSquare(a, b)
	if dof < 1 {
		t.Errorf("%s: a single bin: nothing compared", label)
		return
	}
	// χ²(k) has mean k and variance 2k.
	if limit := float64(dof) + 5*math.Sqrt(2*float64(dof)); chi2 > limit {
		t.Errorf("%s: χ² = %.1f with %d degrees of freedom, want < %.1f", label, chi2, dof, limit)
	}
}

// TestScheduleSamplesWhatRollingSamples compares, on the roll lists of
// the benchmark workloads, the schedule against the per-roll scan over
// the same thresholds: where the first roll fires, how far behind it
// the second one does, and which branch the fired channel takes — the
// Pauli of a depolarising hit, the term of a twirled Pauli channel, the
// pair of a crosstalk channel, the branch of a damping event.
func TestScheduleSamplesWhatRollingSamples(t *testing.T) {
	n := 1 << 20
	if testing.Short() || raceEnabled {
		n = 1 << 16
	}
	xnoise := noise.PaperDefaults()
	xnoise.Crosstalk = &noise.Crosstalk{Strength: 0.002, ZZBias: 0.5}
	xnoise.Idle = &noise.IdleNoise{Damping: 0.0005, Dephasing: 0.0005}
	for _, tc := range []struct {
		name   string
		circ   *circuit.Circuit
		model  noise.Model
		labels []int // channel kinds whose branches must have been compared
	}{
		{"ghz64+paper", circuit.GHZ(64), noise.PaperDefaults(),
			[]int{noise.LabelDepolarizing, noise.LabelDamping}},
		{"ghz64+paper twirled", circuit.GHZ(64), noise.PaperDefaults().Twirl(),
			[]int{noise.LabelDepolarizing, noise.LabelTwirled}},
		{"qft24+xtalk+idle", circuit.QFT(24), xnoise,
			[]int{noise.LabelDepolarizing, noise.LabelDamping, noise.LabelCrosstalk}},
	} {
		p := pathOf(t, tc.circ, tc.model)
		if p.endOp != len(tc.circ.Ops) {
			t.Fatalf("%s: path ends at op %d of %d", tc.name, p.endOp, len(tc.circ.Ops))
		}
		labels := rollLabels(p)
		rec := new(branchRecorder)

		rolled := newFireHist(len(p.rolls))
		rng, src := newStream()
		src.seek(2, 0) // one long stream: the scan is not the engine's
		for i := 0; i < n; i++ {
			first := scanPerRoll(p, rng, src, 0, rec)
			rolled.add(p, labels, first, scanPerRoll(p, rng, src, first+1, nil), rec)
		}

		scheduled := newFireHist(len(p.rolls))
		for i := 0; i < n; i++ {
			src.seek(1, uint64(i))
			first, second := p.nextFire(rng, 0), len(p.rolls)
			if first < len(p.rolls) {
				p.fire(first, rec, rng)
				second = p.nextFire(rng, first+1)
			}
			scheduled.add(p, labels, first, second, rec)
		}

		assertSameDistribution(t, tc.name+": first fire", rolled.first, scheduled.first)
		assertSameDistribution(t, tc.name+": second-fire gap", rolled.gap, scheduled.gap)
		assertSameDistribution(t, tc.name+": branch", rolled.branch[:], scheduled.branch[:])
		for _, l := range tc.labels {
			kinds := 0
			for _, c := range scheduled.branch[l*branchCodes : (l+1)*branchCodes] {
				if c > 0 {
					kinds++
				}
			}
			if kinds < 2 {
				t.Errorf("%s: %d branches of %s channels seen, nothing to compare", tc.name, kinds, noise.Labels[l])
			}
		}
	}
}

// syntheticPath is a reference path over the given thresholds alone.
func syntheticPath(thr ...float64) *refPath {
	p := &refPath{rolls: make([]roll, len(thr))}
	for j, x := range thr {
		p.rolls[j].thr = x
	}
	p.hazard = hazardTable(p.rolls)
	return p
}

// TestScheduleThresholdEdges: thresholds of exactly 0 and exactly 1 are
// valid (Model.Validate). A zero roll never fires, a certain one always
// does, and the rolls behind a certain one still fire at their own
// rates.
func TestScheduleThresholdEdges(t *testing.T) {
	p := syntheticPath(0.5, 0, 1, 0.25, 0, 1, 0.5)
	for j, h := range p.hazard {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("hazard[%d] = %v", j, h)
		}
	}
	const n = 200000
	rng, src := newStream()
	src.seek(3, 0)
	for _, tc := range []struct {
		from int
		want map[int]float64 // position → probability
	}{
		{0, map[int]float64{0: 0.5, 2: 0.5}},
		{1, map[int]float64{2: 1}},
		{3, map[int]float64{3: 0.25, 5: 0.75}},
		{4, map[int]float64{5: 1}},
		{6, map[int]float64{6: 0.5, 7: 0.5}},
		{7, map[int]float64{7: 1}},
	} {
		got := map[int]float64{}
		for i := 0; i < n; i++ {
			got[p.nextFire(rng, tc.from)]++
		}
		for j, c := range got {
			pr := tc.want[j]
			if sigma := math.Sqrt(pr * (1 - pr) / n); math.Abs(c/n-pr) > 5*sigma {
				t.Errorf("from %d: roll %d fired next in %.4f of the draws, want %.4f", tc.from, j, c/n, pr)
			}
		}
	}
}

// TestScheduleLongPathDoesNotUnderflow: over 10⁶ rolls at 10⁻³ the
// survival product is e⁻¹⁰⁰⁰ = 0 in float64; the cumulative hazard is
// 1000 and the rolls at the far end still fire at their rate.
func TestScheduleLongPathDoesNotUnderflow(t *testing.T) {
	const rolls, thr = 1_000_000, 1e-3
	thrs := make([]float64, rolls)
	for j := range thrs {
		thrs[j] = thr
	}
	p := syntheticPath(thrs...)
	if total := p.hazard[rolls]; math.Abs(total-1000.5) > 0.01 {
		t.Fatalf("total hazard %v, want −10⁶·ln(1−10⁻³) ≈ 1000.5", total)
	}
	const n = 200000
	rng, src := newStream()
	src.seek(5, 0)
	for _, from := range []int{0, rolls / 2, rolls - 1000} {
		var sum, none float64
		for i := 0; i < n; i++ {
			j := p.nextFire(rng, from)
			if j < from || j > rolls {
				t.Fatalf("from %d: next fire at %d", from, j)
			}
			if j == rolls {
				none++
			}
			sum += float64(min(j-from, 1000))
		}
		// A geometric wait truncated at 1000 rolls: mean (1−q)/thr, and
		// it gets past them with probability q = (1−thr)^1000.
		q := math.Pow(1-thr, 1000)
		wantMean := (1 - thr) / thr * (1 - q)
		if sd := 1 / thr / math.Sqrt(n); math.Abs(sum/n-wantMean) > 5*sd {
			t.Errorf("from %d: next fire %.2f rolls ahead on average, want %.2f", from, sum/n, wantMean)
		}
		if from == rolls-1000 {
			if sd := math.Sqrt(q * (1 - q) / n); math.Abs(none/n-q) > 5*sd {
				t.Errorf("no fire in the last 1000 rolls in %.4f of the draws, want %.4f", none/n, q)
			}
		}
	}
}

// maxFloatSource is a rand.Source64 whose every Float64 is the largest
// one below 1.
type maxFloatSource struct{}

func (maxFloatSource) Uint64() uint64 { return math.MaxUint64 >> 11 << 11 }
func (maxFloatSource) Int63() int64   { return math.MaxInt64 >> 10 << 10 }
func (maxFloatSource) Seed(int64)     {}

// TestFiredChannelAlwaysSelectsABranch: the channel's own draw stays
// strictly below its threshold even for the largest uniform, so a fired
// crosstalk or twirled channel never falls through its terms to a
// silent identity.
func TestFiredChannelAlwaysSelectsABranch(t *testing.T) {
	rng := rand.New(maxFloatSource{})
	if x := rng.Float64(); x != 1-0x1p-53 {
		t.Fatalf("source draws %v, want the largest float below 1", x)
	}
	for _, thr := range []float64{1, 0.5, 0.25, 1e-3, 0.002, 0.0020000000000000005, 1.0 / 3, math.Nextafter(1, 0), 1e-12, 1e-300} {
		if v := rng.Float64() * thr; !(v < thr) {
			t.Errorf("selector %v for threshold %v", v, thr)
		}
	}
	m := noise.PaperDefaults().Twirl()
	m.Crosstalk = &noise.Crosstalk{Strength: 0.3, ZZBias: 0.2}
	c := circuit.QFT(5)
	p := pathOf(t, c, m)
	rec := new(branchRecorder)
	for j := range p.rolls {
		rec.code = -1
		p.fire(j, rec, rng)
		if rec.code < 0 || rec.code == int(sim.PauliI) || rec.code == 16 {
			t.Errorf("roll %d (op %d channel %d): fired into code %d, want a non-identity branch",
				j, p.rolls[j].op, p.rolls[j].ch, rec.code)
		}
	}
}

// drawCounter counts the draws made from a stream.
type drawCounter struct {
	stream
	n int
}

func (d *drawCounter) Uint64() uint64 { d.n++; return d.stream.Uint64() }
func (d *drawCounter) Int63() int64   { return int64(d.Uint64() >> 1) }

// probOneLog records what the trajectory's damping events saw.
type probOneLog struct {
	sim.Backend
	seen []float64
}

func (l *probOneLog) ProbOne(q int) float64 {
	p := l.Backend.ProbOne(q)
	l.seen = append(l.seen, p)
	return p
}

// TestTrajectoryDrawCounts pins what a trajectory draws along the path
// (stream.go): one position draw while rolls remain, and per event the
// channel's own draw plus what its Fire needs — one for the Pauli of a
// depolarising hit, one for the branch of a damping event on a qubit
// that is neither |0⟩ nor |1⟩, none for a phase flip. A GHZ-64
// trajectory without an event therefore makes exactly one draw, however
// it is run: forked and replayed trajectories make the same draws.
func TestTrajectoryDrawCounts(t *testing.T) {
	c := circuit.GHZ(64)
	p := pathOf(t, c, noise.PaperDefaults().Scale(3))
	labels := rollLabels(p)
	twin, twinSrc := newStream()
	events := map[int]int{} // events per trajectory → trajectories seen
	for _, fork := range []bool{true, false} {
		inner, err := ddback.Factory()(c)
		if err != nil {
			t.Fatal(err)
		}
		b := &probOneLog{Backend: inner}
		var forker sim.Forker
		if fork {
			forker = inner.(sim.Forker)
		}
		r, _ := newCkptRunner(b, forker, c, p)
		src := new(drawCounter)
		rng := rand.New(src)
		clbits := make([]uint64, 1)
		for seed := int64(0); seed < 400; seed++ {
			src.seek(seed, 0)
			src.n, b.seen = 0, b.seen[:0]
			r.run(rng, clbits, new(ckptStats), new(noise.ChannelCounts))

			// The same walk on a twin stream, counting.
			twinSrc.seek(seed, 0)
			want, k, seen := 0, 0, b.seen
			for j := 0; j < len(p.rolls); j++ {
				want++ // position
				if j = p.nextFire(twin, j); j == len(p.rolls) {
					break
				}
				k++
				want++ // the channel's own draw
				twin.Float64()
				switch labels[j] {
				case noise.LabelDepolarizing:
					want++
					twin.Int63()
				case noise.LabelDamping:
					if p1 := seen[0]; p1 > 0 && p1 < 1 {
						want++
						twin.Float64()
					}
					seen = seen[1:]
				}
			}
			if src.n != want {
				t.Fatalf("fork=%v seed %d: %d draws for %d events, want %d", fork, seed, src.n, k, want)
			}
			if k == 0 && src.n != 1 {
				t.Fatalf("fork=%v seed %d: %d draws without an event, want 1", fork, seed, src.n)
			}
			events[k]++
		}
		inner.(sim.Releaser).Release()
	}
	if events[0] == 0 || events[1] == 0 || events[2]+events[3]+events[4] == 0 {
		t.Errorf("trajectories by event count %v: want some with none, one and several", events)
	}
}

// TestReferenceTrajectoriesReuseTrackedProbabilities: a forked
// trajectory without an event ends in the restored final snapshot of
// the reference path, and the engine adds the tracked probabilities it
// read from that state once. The sums must be the ones of asking the
// backend after every trajectory.
func TestReferenceTrajectoriesReuseTrackedProbabilities(t *testing.T) {
	c := circuit.QFT(8)
	m := noise.PaperDefaults()
	for name, factory := range map[string]sim.Factory{"dd": ddback.Factory(), "statevec": statevec.Factory()} {
		opts := Options{Runs: 400, ChunkSize: 400, Seed: 9, Workers: 1, Checkpointing: CheckpointOn,
			TrackStates: []uint64{0, 1, 100, 255}}
		res, err := Run(c, factory, m, opts)
		if err != nil {
			t.Fatal(err)
		}

		b, err := factory(c)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := newCkptRunner(b, b.(sim.Forker), c, pathOf(t, c, m))
		rng, src := newStream()
		sums := make([]float64, len(opts.TrackStates))
		reused := 0
		for j := 0; j < opts.Runs; j++ {
			src.seek(opts.Seed, uint64(j))
			if r.run(rng, make([]uint64, 1), new(ckptStats), new(noise.ChannelCounts)) {
				reused++
			}
			for i, idx := range opts.TrackStates {
				sums[i] += b.Probability(idx)
			}
		}
		if reused == 0 || reused == opts.Runs {
			t.Errorf("%s: %d of %d trajectories ended in the reference state, want some but not all", name, reused, opts.Runs)
		}
		for i := range sums {
			if got, want := res.TrackedProbs[i], sums[i]/float64(opts.Runs); got != want {
				t.Errorf("%s: tracked[%d] = %v, asking after every trajectory gives %v", name, i, got, want)
			}
		}
	}
}
