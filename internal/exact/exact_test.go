package exact

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/ddensity"
	"ddsim/internal/density"
	"ddsim/internal/noise"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

func exactOpts(backend string) stochastic.Options {
	return stochastic.Options{Mode: stochastic.ModeExact, ExactBackend: backend}
}

var bothBackends = []string{stochastic.ExactDDensity, stochastic.ExactDensity}

func TestMatchesDenseReferenceGHZ(t *testing.T) {
	c := circuit.GHZ(8)
	model := noise.PaperDefaults()
	ref, err := density.RunCircuit(c, model)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Probabilities()
	for _, be := range bothBackends {
		res, err := Run(c, model, exactOpts(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if !res.Exact || res.Runs != 0 || res.ConfidenceRadius != 0 {
			t.Errorf("%s: exact=%v runs=%d radius=%v, want true/0/0", be, res.Exact, res.Runs, res.ConfidenceRadius)
		}
		if res.ExactBackend != be {
			t.Errorf("backend echo = %q, want %q", res.ExactBackend, be)
		}
		if len(res.Probabilities) != 1<<8 {
			t.Fatalf("%s: %d probabilities, want %d", be, len(res.Probabilities), 1<<8)
		}
		for i, p := range res.Probabilities {
			if d := math.Abs(p - want[i]); d > 1e-12 {
				t.Fatalf("%s: P(%d) differs from dense reference by %v", be, i, d)
			}
		}
		if d := math.Abs(res.Purity - ref.Purity()); d > 1e-9 {
			t.Errorf("%s: purity differs by %v", be, d)
		}
	}
}

func TestDefaultExactBackendIsDDensity(t *testing.T) {
	res, err := Run(circuit.GHZ(3), noise.Model{}, stochastic.Options{Mode: stochastic.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactBackend != stochastic.ExactDDensity {
		t.Errorf("default backend = %q, want %q", res.ExactBackend, stochastic.ExactDDensity)
	}
	if res.DDNodes == 0 {
		t.Error("ddensity result should report its DD node count")
	}
}

// dynamicCircuit builds a circuit exercising every branching site:
// a measurement feeding a classically conditioned gate, plus a reset.
func dynamicCircuit() *circuit.Circuit {
	c := circuit.New("dyn", 3)
	c.H(0).CX(0, 1)
	c.Measure(0, 0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 2,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	c.RY(1, 0.7)
	c.Reset(0)
	c.Measure(2, 2)
	return c
}

func TestBranchingSemantics(t *testing.T) {
	// H then measure then conditioned X: the exact outcome
	// distribution is computable by hand.
	c := circuit.New("cond", 2)
	c.H(0)
	c.Measure(0, 0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 1,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	for _, be := range bothBackends {
		res, err := Run(c, noise.Model{}, exactOpts(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if res.Branches != 2 {
			t.Errorf("%s: peak branches = %d, want 2", be, res.Branches)
		}
		want := []float64{0.5, 0, 0, 0.5} // |00⟩ or |11⟩
		for i, w := range want {
			if d := math.Abs(res.Probabilities[i] - w); d > 1e-12 {
				t.Errorf("%s: P(%d) = %v, want %v", be, i, res.Probabilities[i], w)
			}
		}
		if d := math.Abs(res.ClassicalProbs[0] - 0.5); d > 1e-12 {
			t.Errorf("%s: P(c=0) = %v, want 0.5", be, res.ClassicalProbs[0])
		}
		if d := math.Abs(res.ClassicalProbs[1] - 0.5); d > 1e-12 {
			t.Errorf("%s: P(c=1) = %v, want 0.5", be, res.ClassicalProbs[1])
		}
	}
}

func TestBackendsAgreeOnDynamicNoisyCircuit(t *testing.T) {
	model := noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01, DampingAsEvent: true}
	c := dynamicCircuit()
	var results [2]*stochastic.Result
	for i, be := range bothBackends {
		res, err := Run(c, model, exactOpts(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		results[i] = res
	}
	a, b := results[0], results[1]
	for i := range a.Probabilities {
		if d := math.Abs(a.Probabilities[i] - b.Probabilities[i]); d > 1e-9 {
			t.Errorf("P(%d): backends differ by %v", i, d)
		}
	}
	for k, v := range a.ClassicalProbs {
		if d := math.Abs(v - b.ClassicalProbs[k]); d > 1e-9 {
			t.Errorf("P(c=%d): backends differ by %v", k, d)
		}
	}
	sum := 0.0
	for _, v := range a.ClassicalProbs {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("classical probabilities sum to %v", sum)
	}
	sum = 0.0
	for _, p := range a.Probabilities {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestTrackedStatesAndFidelity(t *testing.T) {
	c := circuit.GHZ(4)
	model := noise.PaperDefaults()
	ref, err := density.RunCircuit(c, model)
	if err != nil {
		t.Fatal(err)
	}
	inv := complex(1/math.Sqrt2, 0)
	psi := make([]complex128, 16)
	psi[0], psi[15] = inv, inv
	opts := exactOpts(stochastic.ExactDDensity)
	opts.TrackStates = []uint64{0, 15}
	opts.TrackFidelity = true
	res, err := Run(c, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrackedProbs) != 2 {
		t.Fatalf("tracked %d states", len(res.TrackedProbs))
	}
	if d := math.Abs(res.TrackedProbs[0] - ref.Probability(0)); d > 1e-12 {
		t.Errorf("tracked P(0) off by %v", d)
	}
	if d := math.Abs(res.MeanFidelity - ref.FidelityWithPure(psi)); d > 1e-9 {
		t.Errorf("fidelity differs from dense reference by %v", d)
	}
	if res.Properties != 3 {
		t.Errorf("properties = %d, want 3", res.Properties)
	}
}

func TestFidelityRejectedOnMeasuringCircuit(t *testing.T) {
	opts := exactOpts(stochastic.ExactDensity)
	opts.TrackFidelity = true
	if _, err := Run(dynamicCircuit(), noise.Model{}, opts); err == nil {
		t.Fatal("track_fidelity on a measuring circuit must fail")
	}
}

func TestBranchBound(t *testing.T) {
	// 9 uniformly random measured bits → 512 distinct classical
	// histories, over the MaxBranches=256 bound.
	c := circuit.New("wide", 9)
	for q := 0; q < 9; q++ {
		c.H(q)
	}
	c.MeasureAll()
	_, err := Run(c, noise.Model{}, exactOpts(stochastic.ExactDDensity))
	if err == nil || !strings.Contains(err.Error(), "branches") {
		t.Fatalf("expected branch-bound error, got %v", err)
	}
}

func TestBranchCoalescing(t *testing.T) {
	// Measuring the same qubit of a GHZ state repeatedly yields the
	// same classical value: histories coalesce, so the branch
	// population stays at 2 no matter how many measurements run.
	c := circuit.GHZ(3)
	for i := 0; i < 6; i++ {
		c.Measure(0, 0)
	}
	res, err := Run(c, noise.Model{}, exactOpts(stochastic.ExactDDensity))
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 2 {
		t.Errorf("peak branches = %d, want 2", res.Branches)
	}
}

func TestQubitLimits(t *testing.T) {
	if _, err := Run(circuit.GHZ(density.MaxQubits+1), noise.Model{}, exactOpts(stochastic.ExactDensity)); err == nil {
		t.Error("dense backend accepted an oversized register")
	}
	if _, err := Run(circuit.GHZ(MaxDDQubits+1), noise.Model{}, exactOpts(stochastic.ExactDDensity)); err == nil {
		t.Error("ddensity backend accepted an oversized register")
	}
}

func TestModeValidation(t *testing.T) {
	if _, err := Run(circuit.GHZ(2), noise.Model{}, stochastic.Options{}); err == nil {
		t.Error("stochastic-mode options accepted by the exact engine")
	}
	if _, err := Run(circuit.GHZ(2), noise.Model{}, stochastic.Options{Mode: "bogus"}); err == nil {
		t.Error("unknown mode accepted")
	}
	bad := exactOpts("qutrit")
	if _, err := Run(circuit.GHZ(2), noise.Model{}, bad); err == nil {
		t.Error("unknown exact backend accepted")
	}
}

func TestStochasticEngineRejectsExactJobs(t *testing.T) {
	_, err := stochastic.RunContext(context.Background(), circuit.GHZ(2), nil, noise.Model{},
		stochastic.Options{Mode: stochastic.ModeExact})
	if err == nil {
		t.Fatal("the trajectory engine must reject exact-mode jobs")
	}
}

func TestTimeout(t *testing.T) {
	opts := exactOpts(stochastic.ExactDensity)
	opts.Timeout = time.Nanosecond
	res, err := Run(circuit.GHZ(8), noise.PaperDefaults(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || !res.Exact {
		t.Errorf("timed_out=%v exact=%v, want true/true", res.TimedOut, res.Exact)
	}
	if res.Probabilities != nil {
		t.Error("a timed-out exact pass must not report probabilities")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, circuit.GHZ(4), noise.Model{}, exactOpts(stochastic.ExactDensity)); err == nil {
		t.Fatal("cancelled context must fail the job")
	}
}

func TestRunBatchSweepWithProgress(t *testing.T) {
	base := noise.PaperDefaults()
	var mu sync.Mutex
	seen := make(map[int]bool)
	jobs := make([]stochastic.Job, 3)
	for i, scale := range []float64{0, 1, 10} {
		opts := exactOpts(stochastic.ExactDDensity)
		opts.ProgressEvery = 1
		opts.OnProgress = func(p stochastic.Progress) {
			mu.Lock()
			seen[p.Job] = true
			mu.Unlock()
		}
		jobs[i] = stochastic.Job{Circuit: circuit.GHZ(5), Model: base.Scale(scale), Opts: opts}
	}
	results, err := RunBatch(context.Background(), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// More noise, more mixing: purity decreases strictly along the sweep.
	for i := 1; i < len(results); i++ {
		if results[i].Purity >= results[i-1].Purity {
			t.Errorf("purity not decreasing along the sweep: %v then %v",
				results[i-1].Purity, results[i].Purity)
		}
	}
	if math.Abs(results[0].Purity-1) > 1e-9 {
		t.Errorf("noise-free purity = %v, want 1", results[0].Purity)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range jobs {
		if !seen[i] {
			t.Errorf("no progress delivered for job %d", i)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	good := stochastic.Job{Circuit: circuit.GHZ(3), Opts: exactOpts(stochastic.ExactDensity)}
	bad := stochastic.Job{Circuit: circuit.GHZ(density.MaxQubits + 1), Opts: exactOpts(stochastic.ExactDensity)}
	results, err := RunBatch(context.Background(), []stochastic.Job{good, bad}, 1)
	if err == nil {
		t.Fatal("batch with an invalid job must report an error")
	}
	if results[0] == nil || results[1] != nil {
		t.Errorf("results = [%v, %v], want [ok, nil]", results[0], results[1])
	}
}

func TestResetReleasesEntanglement(t *testing.T) {
	// Bell pair, then reset one half: the other must be a maximal
	// mixture (purity 1/2), identically on both backends.
	c := circuit.New("bellreset", 2)
	c.H(0).CX(0, 1).Reset(0)
	for _, be := range bothBackends {
		res, err := Run(c, noise.Model{}, exactOpts(be))
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if d := math.Abs(res.Purity - 0.5); d > 1e-12 {
			t.Errorf("%s: purity = %v, want 0.5", be, res.Purity)
		}
		want := []float64{0.5, 0.5, 0, 0} // q0 reset, q1 mixed
		for i, w := range want {
			if d := math.Abs(res.Probabilities[i] - w); d > 1e-12 {
				t.Errorf("%s: P(%d) = %v, want %v", be, i, res.Probabilities[i], w)
			}
		}
	}
}

// TestQFT10PurityReadout: at ten qubits of noisy QFT, squaring ρ to
// read its purity interned gigabytes of weights. The read-out must
// cost no more than a walk, and both backends must still agree.
func TestQFT10PurityReadout(t *testing.T) {
	if testing.Short() {
		t.Skip("QFT-10 exact evolution takes seconds")
	}
	c, model := circuit.QFT(10), noise.PaperDefaults()
	var results [2]*stochastic.Result
	for i, be := range bothBackends {
		opts := exactOpts(be)
		opts.TrackStates = []uint64{0}
		res, err := Run(c, model, opts)
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		results[i] = res
	}
	got, want := results[0], results[1]
	if d := math.Abs(got.Purity - want.Purity); d > 1e-9 {
		t.Errorf("purity: ddensity %v, dense %v", got.Purity, want.Purity)
	}
	if d := math.Abs(got.TrackedProbs[0] - want.TrackedProbs[0]); d > 1e-9 {
		t.Errorf("P(0): ddensity %v, dense %v", got.TrackedProbs[0], want.TrackedProbs[0])
	}

	s, err := ddensity.RunCircuit(c, model)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pu := s.Purity()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("Purity allocated %d MiB, want < 64", alloc>>20)
	}
	if d := math.Abs(pu - got.Purity); d > 1e-12 {
		t.Errorf("Purity on the evolved state = %v, exact.Run reported %v", pu, got.Purity)
	}
}

// TestChannelTelemetryCountsEveryChannel: the exact engine applies, and
// reports per kind, every channel of the compiled plan — for a uniform
// model one depolarising, one damping and one phase-flip channel per
// qubit a gate touched.
func TestChannelTelemetryCountsEveryChannel(t *testing.T) {
	c := circuit.QFT(4)
	touched := int64(0)
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindGate {
			touched += int64(len(c.Ops[i].Qubits()))
		}
	}
	kinds := []string{"depolarizing", "damping", "phaseflip"}
	for _, be := range bothBackends {
		var before [3]int64
		for i, k := range kinds {
			before[i] = telemetry.NoiseChannelApplications.With(k).Value()
		}
		if _, err := Run(c, noise.PaperDefaults().Scale(10), exactOpts(be)); err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		for i, k := range kinds {
			if got := telemetry.NoiseChannelApplications.With(k).Value() - before[i]; got != touched {
				t.Errorf("%s: %d %s applications, want %d (gates × touched qubits)", be, got, k, touched)
			}
		}
	}
}
