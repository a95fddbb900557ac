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
)

// kernelGoldenLog runs the DD jobs pinned by testdata/kernel_golden.txt
// and renders every deterministic field of their results, floats in
// hex so the comparison is bit-exact.
func kernelGoldenLog(t *testing.T) string {
	t.Helper()
	m := noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}
	jobs := []struct {
		name    string
		c       *circuit.Circuit
		tracked []uint64
		workers []int
	}{
		{"ghz4+measure", circuit.GHZ(4).MeasureAll(), []uint64{0, 7, 15}, []int{1, 4}},
		// Non-Clifford phases: two DD workers do not reproduce their
		// own previous run here, so one worker only.
		{"qft6", circuit.QFT(6), []uint64{0, 21, 63}, []int{1}},
	}
	var sb strings.Builder
	for _, j := range jobs {
		for _, w := range j.workers {
			for _, ck := range []string{CheckpointOff, CheckpointOn} {
				res, err := Run(j.c, ddback.Factory(), m, Options{
					Runs: 400, Seed: 7, Shots: 2, ChunkSize: 16, Workers: w,
					TrackStates: j.tracked, TrackFidelity: true,
					Checkpointing: ck,
				})
				if err != nil {
					t.Fatalf("%s workers=%d ckpt=%s: %v", j.name, w, ck, err)
				}
				fmt.Fprintf(&sb, "%s workers=%d ckpt=%s\n", j.name, w, ck)
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
// implementation. The file's header ('#' lines) names the commit that
// recorded it; record again only with a new stream version.
func TestKernelGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/kernel_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	for strings.HasPrefix(want, "#") {
		want = want[strings.IndexByte(want, '\n')+1:]
	}
	if got := kernelGoldenLog(t); got != want {
		t.Errorf("DD results differ from testdata/kernel_golden.txt:\n%s", got)
	}
}
