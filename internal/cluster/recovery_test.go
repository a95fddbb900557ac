package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// TestCoordinatorCrashRecovery kills a coordinator mid-job — after
// some parts journaled, with work still in flight — and resumes on
// the same data dir: the resumed job must complete bit-identically
// without recomputing the journaled parts (no lost chunks) and
// without merging any part twice (no double counting; the strict
// reducer would reject it).
func TestCoordinatorCrashRecovery(t *testing.T) {
	dataDir := t.TempDir()
	spec := benchSpec(t, circuit.GHZ(6).MeasureAll(), 96) // 12 chunks, 6 parts of 2
	want := singleNode(t, spec)

	// Incarnation 1: both workers share a gate that lets the first
	// two parts (chunks 0–3) through and stalls every later chunk.
	urls, workers, _ := startWorkers(t, 2)
	release := make(chan struct{})
	gateFn := func(_ Token, chunk int) {
		if chunk >= 4 {
			<-release
		}
	}
	workers[0].Gate = gateFn
	workers[1].Gate = gateFn
	t.Cleanup(func() { close(release) })

	partsBefore := telemetry.ClusterPartsCompleted.Value()
	coord1, err := New(Config{
		Workers:  urls,
		LeaseTTL: time.Minute, // no expiry noise in this test
		DataDir:  dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, crash := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord1.Run(ctx1, "recov", spec)
		done <- err
	}()
	deadline := time.After(30 * time.Second)
	for telemetry.ClusterPartsCompleted.Value() < partsBefore+4 {
		select {
		case err := <-done:
			t.Fatalf("job finished before the crash: %v", err)
		case <-deadline:
			t.Fatal("first incarnation never journaled 4 parts")
		case <-time.After(time.Millisecond):
		}
	}
	// Kill -9: the coordinator vanishes mid-job, no cleanup beyond
	// what was already durable.
	crash()
	if err := <-done; err == nil {
		t.Fatal("crashed run reported success")
	}
	journalPath := filepath.Join(dataDir, "cluster", "recov.wal")
	if _, err := os.Stat(journalPath); err != nil {
		t.Fatalf("journal missing after crash: %v", err)
	}

	// Incarnation 2: fresh coordinator and fresh (ungated) workers on
	// the same data dir. It must resume, not restart: the four
	// journaled parts (4 chunks) are restored, only the rest computes.
	urls2, _, _ := startWorkers(t, 2)
	chunksBefore := telemetry.ClusterChunksComputed.Value()
	coord2, err := New(Config{
		Workers:  urls2,
		LeaseTTL: time.Minute,
		DataDir:  dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord2.Run(ctx, "recov", spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "crash-recovery", want, res)
	if recomputed := telemetry.ClusterChunksComputed.Value() - chunksBefore; recomputed != 8 {
		t.Errorf("resumed run computed %d chunks, want exactly the 8 unjournaled ones", recomputed)
	}
	if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
		t.Errorf("journal not removed after the resumed job finished: %v", err)
	}
}

// TestJournalRejectsForeignSpec guards resume correctness: a journal
// written for one spec must not seed a differently-specced job.
func TestJournalRejectsForeignSpec(t *testing.T) {
	dataDir := t.TempDir()
	specA := benchSpec(t, circuit.GHZ(5), 32)
	jobA, err := specA.Job()
	if err != nil {
		t.Fatal(err)
	}
	planA, err := stochastic.PlanChunks(jobA)
	if err != nil {
		t.Fatal(err)
	}
	jr, prev, parts, err := openJournal(dataDir, "foreign")
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil || len(parts) != 0 {
		t.Fatalf("fresh journal not empty: %v %v", prev, parts)
	}
	if err := jr.plan(specA, planA); err != nil {
		t.Fatal(err)
	}
	jr.close()

	specB := specA
	specB.Options.Seed++ // different seed → different job
	urls, _, _ := startWorkers(t, 1)
	coord, err := New(Config{Workers: urls, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), "foreign", specB); err == nil {
		t.Fatal("coordinator resumed a journal belonging to a different spec")
	}
	// The matching spec still resumes fine.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, "foreign", specA)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "matching-resume", singleNode(t, specA), res)
}

// TestJournalPartReplayDeduped exercises the journal's replay dedup
// directly: duplicate part entries (a crash in the append window plus
// a re-run) restore once.
func TestJournalPartReplayDeduped(t *testing.T) {
	dataDir := t.TempDir()
	spec := benchSpec(t, circuit.GHZ(5), 32)
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		t.Fatal(err)
	}
	jr, _, _, err := openJournal(dataDir, "dedup")
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.plan(spec, plan); err != nil {
		t.Fatal(err)
	}
	sums := dummySums(0, 2)
	if err := jr.part(0, sums); err != nil {
		t.Fatal(err)
	}
	if err := jr.part(0, sums); err != nil {
		t.Fatal(err)
	}
	jr.close()
	jr2, prev, parts, err := openJournal(dataDir, "dedup")
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.close()
	if prev == nil {
		t.Fatal("plan entry lost")
	}
	if len(parts) != 1 || len(parts[0]) != 2 {
		t.Fatalf("replay = %v, want part 0 restored once with 2 sums", parts)
	}
}

// TestJournalLongPartLine journals a part whose line exceeds 2 MiB
// ahead of further parts: replay must restore every one of them.
func TestJournalLongPartLine(t *testing.T) {
	dataDir := t.TempDir()
	spec := benchSpec(t, circuit.GHZ(5), 32)
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		t.Fatal(err)
	}
	jr, _, _, err := openJournal(dataDir, "long")
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.plan(spec, plan); err != nil {
		t.Fatal(err)
	}
	big := dummySums(0, 1)
	big[0].Counts = make(map[uint64]int)
	for k := uint64(0); k < 1<<17; k++ {
		big[0].Counts[1<<40+k] = 1 // 18 bytes of JSON each: a line of 2.3 MiB
	}
	for i, sums := range [][]stochastic.ChunkSum{big, dummySums(1, 1), dummySums(2, 1)} {
		if err := jr.part(i, sums); err != nil {
			t.Fatal(err)
		}
	}
	jr.close()
	jr2, prev, parts, err := openJournal(dataDir, "long")
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.close()
	if prev == nil || len(parts) != 3 || len(parts[0][0].Counts) != 1<<17 {
		t.Fatalf("replay restored plan %v and %d parts, want the plan and 3 parts", prev != nil, len(parts))
	}
}

// TestJournalOfOtherPartsStartsOver resumes a job from a hand-written
// journal of an older build, which cut the job into leases of 2 chunks
// and recorded a plan without a part size. Its parts do not line up
// with the plan's parts of 1 chunk, so the coordinator must not restore
// them: the job starts over, computes every chunk exactly once, and
// matches the single-node result despite the journal's bogus sums.
func TestJournalOfOtherPartsStartsOver(t *testing.T) {
	dataDir := t.TempDir()
	spec := benchSpec(t, circuit.GHZ(6).MeasureAll(), 96) // 12 chunks, 12 parts
	want := singleNode(t, spec)
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stochastic.PlanChunks(job)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`{"type":"plan","spec":%s,"plan":{"target":%d,"chunk_size":%d,"num_chunks":%d,"properties":%d,"delta":%v}}
{"type":"part","part":0,"sums":[{"chunk":0,"runs":8,"counts":{"0":16}},{"chunk":1,"runs":8,"counts":{"0":16}}]}
{"type":"part","part":1,"sums":[{"chunk":2,"runs":8,"counts":{"0":16}},{"chunk":3,"runs":8,"counts":{"0":16}}]}
`, specJSON, plan.Target, plan.ChunkSize, plan.NumChunks, plan.Properties, plan.Delta)
	if err := os.MkdirAll(filepath.Join(dataDir, "cluster"), 0o755); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dataDir, "cluster", "old.wal")
	if err := os.WriteFile(journalPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	urls, _, _ := startWorkers(t, 2)
	chunksBefore := telemetry.ClusterChunksComputed.Value()
	coord, err := New(Config{Workers: urls, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.Run(ctx, "old", spec)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "old-plan journal", want, res)
	if computed := telemetry.ClusterChunksComputed.Value() - chunksBefore; computed != int64(plan.NumChunks) {
		t.Errorf("computed %d chunks, want each of the %d exactly once", computed, plan.NumChunks)
	}
	if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
		t.Errorf("journal not removed after the job finished: %v", err)
	}
}
