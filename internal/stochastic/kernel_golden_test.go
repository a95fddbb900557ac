package stochastic

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/qasm"
	"ddsim/internal/sim"
	"ddsim/internal/statevec"
)

// goldenJob is one pinned circuit of a golden file, the noise model it
// runs under and the worker counts it is recorded at.
type goldenJob struct {
	name    string
	c       *circuit.Circuit
	model   noise.Model
	tracked []uint64
	workers []int
}

// goldenNoise is the model of the kernel and statevec records.
var goldenNoise = noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}

// goldenLog runs the jobs a golden file pins, replayed (ckpt=off, on
// replayFactory) and on the plain factory (ckpt=on) at every worker
// count, and renders every deterministic field of their results, floats
// in hex so the comparison is bit-exact.
func goldenLog(t *testing.T, factory sim.Factory, jobs []goldenJob) string {
	t.Helper()
	var sb strings.Builder
	for _, j := range jobs {
		for _, w := range j.workers {
			for _, leg := range []struct {
				ck      string
				factory sim.Factory
			}{{"off", replayFactory(factory)}, {"on", factory}} {
				res, err := Run(j.c, leg.factory, j.model, Options{
					Runs: 400, Seed: 7, Shots: 2, ChunkSize: 16, Workers: w,
					TrackStates: j.tracked, TrackFidelity: true,
				})
				if err != nil {
					t.Fatalf("%s workers=%d ckpt=%s: %v", j.name, w, leg.ck, err)
				}
				fmt.Fprintf(&sb, "%s workers=%d ckpt=%s\n", j.name, w, leg.ck)
				fmt.Fprintf(&sb, "runs %d checkpointed %v\n", res.Runs, res.Checkpointed)
				fmt.Fprintf(&sb, "counts%s\n", histLine(res.Counts))
				fmt.Fprintf(&sb, "classical%s\n", histLine(res.ClassicalCounts))
				sb.WriteString("tracked")
				for _, p := range res.TrackedProbs {
					fmt.Fprintf(&sb, " %x", p)
				}
				fmt.Fprintf(&sb, "\nfidelity %x\n", res.MeanFidelity)
			}
		}
	}
	return sb.String()
}

// checkGolden compares got with the named golden file, whose leading
// '#' lines (the commit that recorded it) are not part of the record.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	for strings.HasPrefix(want, "#") {
		want = want[strings.IndexByte(want, '\n')+1:]
	}
	if got != want {
		t.Errorf("results differ from %s:\n%s", file, got)
	}
}

func histLine(h map[uint64]int) string {
	keys := make([]uint64, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %d:%d", k, h[k])
	}
	return sb.String()
}

// TestKernelGolden pins same-seed DD results to a recorded file, so a
// change to the DD kernel, the engine or the random stream that moves
// any number shows up across commits, not only against a second in-tree
// implementation. The file's header ('#' lines) names the change that
// recorded it; record again only with a change to the random stream's
// definition or to how the DD kernel rounds, and name it there.
func TestKernelGolden(t *testing.T) {
	checkGolden(t, "testdata/kernel_golden.txt", goldenLog(t, ddback.Factory(), []goldenJob{
		{"ghz4+measure", circuit.GHZ(4).MeasureAll(), goldenNoise, []uint64{0, 7, 15}, []int{1, 4}},
		// Non-Clifford phases: two DD workers do not reproduce their
		// own previous run here, so one worker only.
		{"qft6", circuit.QFT(6), goldenNoise, []uint64{0, 21, 63}, []int{1}},
	}))
}

// ctrlGeneralCircuit exercises what GHZ and QFT do not reach in the
// dense kernels: controlled general gates, a negative control, two
// controls of mixed polarity around the target, and controlled
// anti-diagonal and diagonal gates with the target above the control.
func ctrlGeneralCircuit() *circuit.Circuit {
	c := circuit.New("ctrl-general", 4)
	c.H(0).H(2).CGate("ry", 0, 1, 0.9)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "u3", Params: []float64{0.7, 0.3, -1.1}, Target: 3,
		Controls: []circuit.Control{{Qubit: 2, Negative: true}}})
	c.CGate("h", 1, 3)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "rx", Params: []float64{1.3}, Target: 1,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 3, Negative: true}}})
	c.CGate("y", 3, 0).CGate("rz", 2, 1, 0.4).CPhase(3, 2, 0.8)
	return c
}

// TestStatevecGolden is TestKernelGolden for the dense backend. Dense
// arithmetic is history-free, so every worker count belongs. The
// structure-aware kernels did not move the file, which was recorded
// through the generic 2×2 loop: a kernel may differ from that loop
// only in the sign of a zero, which no recorded field can see. It was
// recorded again when damping events went to one branch draw each.
func TestStatevecGolden(t *testing.T) {
	checkGolden(t, "testdata/statevec_golden.txt", goldenLog(t, statevec.Factory(), []goldenJob{
		{"ghz4+measure", circuit.GHZ(4).MeasureAll(), goldenNoise, []uint64{0, 7, 15}, []int{1, 4}},
		{"qft6", circuit.QFT(6), goldenNoise, []uint64{0, 21, 63}, []int{1, 4}},
		{"ctrl-general", ctrlGeneralCircuit(), goldenNoise, []uint64{0, 5, 10, 15}, []int{1, 4}},
	}))
}

// qasmNoiseSrc is the program of examples/qasm_noise: a measurement,
// a gate conditioned on its outcome, then two more measurements.
const qasmNoiseSrc = `
OPENQASM 2.0;
include "qelib1.inc";
gate entangle a,b { h a; cx a,b; }
qreg q[3];
creg c[3];
entangle q[0],q[1];
cu1(pi/2) q[1],q[2];
h q[2];
measure q[2] -> c[2];
if(c==4) x q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

// TestDynamicGolden pins noise-free dynamic circuits — measurements,
// resets and conditioned gates with gates behind the first of them —
// on both forking backends. Every trajectory of such a job continues
// past the reference path's end op by op, forked or replayed. The DD
// legs were recorded again when gate runs became block products; the
// statevec legs have not moved since the forked leg ran through an
// outcome-history segment cache. forkCircuit's T makes DD interning
// history-dependent, so its DD leg runs one worker only.
func TestDynamicGolden(t *testing.T) {
	qasmNoise, err := qasm.Parse("qasm_noise", qasmNoiseSrc)
	if err != nil {
		t.Fatal(err)
	}
	free := noise.Model{}
	got := goldenLog(t, ddback.Factory(), []goldenJob{
		{"dynamic", dynamicCircuit(), free, []uint64{0, 5, 15}, []int{1, 4}},
		{"fork", forkCircuit(), free, []uint64{0, 5, 15}, []int{1}},
		{"qasm_noise", qasmNoise, free, []uint64{0, 4, 7}, []int{1}},
	})
	got += goldenLog(t, statevec.Factory(), []goldenJob{
		{"dynamic", dynamicCircuit(), free, []uint64{0, 5, 15}, []int{1, 4}},
		{"fork", forkCircuit(), free, []uint64{0, 5, 15}, []int{1, 4}},
	})
	checkGolden(t, "testdata/dynamic_golden.txt", got)
}
