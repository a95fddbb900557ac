package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ddsim/internal/telemetry"
)

// assertOnlyWAL fails unless wal.log is the data directory's one
// entry: a job creates no file of its own.
func assertOnlyWAL(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(entries) != 1 || names[0] != "wal.log" || !entries[0].Type().IsRegular() {
		t.Fatalf("data dir holds %v, want only wal.log", names)
	}
}

// TestLifecycleIsTwoAppends guards the inline log: a job's durable
// life from accept to result is two synced appends, and the data dir
// holds nothing but the WAL, before and after the compaction at open.
func TestLifecycleIsTwoAppends(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	before := telemetry.WALAppends.Value()
	if err := s.PutJob(testRecord("j1")); err != nil {
		t.Fatal(err)
	}
	fin := Final{Status: "done", Results: json.RawMessage(`[{"runs":10}]`)}
	if err := s.PutFinal("j1", fin); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.WALAppends.Value() - before; got != 2 {
		t.Fatalf("PutJob+PutFinal made %d WAL appends, want 2", got)
	}
	assertOnlyWAL(t, dir)

	recs := reopen(t, dir).Recover()
	if len(recs) != 1 || recs[0].Status != "done" || recs[0].Final == nil ||
		string(recs[0].Final.Results) != `[{"runs":10}]` {
		t.Fatalf("recovered %+v, want j1 done with its payload", recs)
	}
	assertOnlyWAL(t, dir)
}

// TestTornFinalLineRequeues cuts the terminal line, which carries the
// Final inline, mid-write: the job must recover as queued with no
// payload, and the next terminal line must land intact after the cut.
func TestTornFinalLineRequeues(t *testing.T) {
	for _, keep := range []string{"half", "all but the newline"} {
		t.Run(keep, func(t *testing.T) {
			dir := t.TempDir()
			s := reopen(t, dir)
			if err := s.PutJob(testRecord("j1")); err != nil {
				t.Fatal(err)
			}
			fin := Final{Status: "done", Results: json.RawMessage(`[{"runs":10,"counts":{"0":4,"7":6}}]`)}
			if err := s.PutFinal("j1", fin); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "wal.log")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
			cut := len(data) - 1
			if keep == "half" {
				cut = last + (len(data)-last)/2
			}
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}

			s2 := reopen(t, dir)
			recs := s2.Recover()
			if len(recs) != 1 || recs[0].Status != "queued" || recs[0].Final != nil {
				t.Fatalf("recovered %+v, want j1 queued without a payload", recs)
			}
			if err := s2.PutFinal("j1", fin); err != nil {
				t.Fatal(err)
			}
			recs = reopen(t, dir).Recover()
			if len(recs) != 1 || recs[0].Status != "done" || recs[0].Final == nil {
				t.Fatalf("re-run's final lost after a torn tail: %+v", recs)
			}
		})
	}
}

// TestAppendAfterFragmentKeepsJob leaves an unterminated fragment at
// the end of the log while the store is open, as a write that failed
// part-way would. The next PutJob is acknowledged, so its job must come
// back as queued: its line must not be glued onto the fragment.
func TestAppendAfterFragmentKeepsJob(t *testing.T) {
	long := `{"id":"j0","status":"queued","record":{"id":"j0","spec":"` + strings.Repeat("x", 1000)
	for _, frag := range []string{`{"id":"j0","st`, long} {
		dir := t.TempDir()
		s := reopen(t, dir)
		if err := s.PutJob(testRecord("j1")); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(frag); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := s.PutJob(testRecord("j2")); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, r := range reopen(t, dir).Recover() {
			got[r.Record.ID] = r.Status
		}
		if len(got) != 2 || got["j1"] != "queued" || got["j2"] != "queued" {
			t.Fatalf("fragment of %d bytes: recovered %v, want j1 and j2 queued", len(frag), got)
		}
	}
}

// TestCompactCopiesSettledLines compacts twice: a job whose state is
// one compacted line must keep that line byte for byte (its timestamp
// included), while a job with new lines is folded into a fresh one.
func TestCompactCopiesSettledLines(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.PutJob(testRecord("j1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFinal("j1", Final{Status: "done", Results: json.RawMessage(`[{"runs":10}]`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	settled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(testRecord("j2")); err != nil {
		t.Fatal(err)
	}
	if err := s.setStatus("j2", "running"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // a re-encoded line would carry a later time
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != 3 || !bytes.Equal(lines[0], settled) {
		t.Fatalf("compacted log = %q, want j1's line %q kept and one line for j2", data, settled)
	}
	var e walEntry
	if err := json.Unmarshal(lines[1], &e); err != nil || e.ID != "j2" || e.Status != "running" || e.Record == nil {
		t.Fatalf("j2's compacted line = %q (%v), want it running with its record", lines[1], err)
	}
}

// TestCompactDuringAppends compacts over and over while jobs are
// submitted and finished from several goroutines: every job's lines
// must survive, whichever side of a compaction's read they land on.
func TestCompactDuringAppends(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				if err := s.PutJob(testRecord(id)); err != nil {
					t.Errorf("PutJob %s: %v", id, err)
					return
				}
				if err := s.PutFinal(id, Final{Status: "done", Results: json.RawMessage(`[1]`)}); err != nil {
					t.Errorf("PutFinal %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for compacting := true; compacting; {
		select {
		case <-done:
			compacting = false
		default:
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	recs := reopen(t, dir).Recover()
	if len(recs) != 100 {
		t.Fatalf("recovered %d jobs, want 100", len(recs))
	}
	for _, r := range recs {
		if r.Status != "done" || r.Final == nil {
			t.Errorf("job %s recovered as %q (final %v)", r.Record.ID, r.Status, r.Final)
		}
	}
}

// TestLongLineKeepsLaterJobs puts a 2 MiB result payload ahead of
// other jobs' lines: replay must keep every line after it, and so
// must the compaction at open.
func TestLongLineKeepsLaterJobs(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	big := json.RawMessage(`["` + strings.Repeat("x", 2<<20) + `"]`)
	for _, id := range []string{"j1", "j2", "j3"} {
		if err := s.PutJob(testRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutFinal("j1", Final{Status: "done", Results: big}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFinal("j2", Final{Status: "failed", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	for restart := 1; restart <= 2; restart++ {
		got := map[string]Recovered{}
		for _, r := range reopen(t, dir).Recover() {
			got[r.Record.ID] = r
		}
		if len(got) != 3 || got["j2"].Status != "failed" || got["j3"].Status != "queued" {
			t.Fatalf("restart %d recovered %+v, want j1 done, j2 failed, j3 queued", restart, got)
		}
		if f := got["j1"].Final; f == nil || !bytes.Equal(f.Results, big) {
			t.Fatalf("restart %d lost j1's 2 MiB payload", restart)
		}
	}
}

// TestOpenRefusesOlderLayout puts a jobs or results entry, as the
// older per-job-file layout kept, beside a WAL that ends in a torn
// line: Open must refuse the directory, name the builds that migrate
// it, and leave wal.log byte for byte as it was (the torn tail is not
// cut), or absent if there was none.
func TestOpenRefusesOlderLayout(t *testing.T) {
	wal := []byte(`{"id":"j1","status":"queued","t":"2024-01-01T00:00:00Z"}` + "\n" + `{"id":"j1","st`)
	for _, old := range []string{"jobs", "results"} {
		for _, walData := range [][]byte{wal, nil} {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal.log")
			if walData != nil {
				if err := os.WriteFile(path, walData, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Mkdir(filepath.Join(dir, old), 0o755); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted a directory holding %s/", old)
			}
			if msg := err.Error(); !strings.Contains(msg, old+"/") || !strings.Contains(msg, "7ff41e2") {
				t.Fatalf("refusal %q does not name %s/ and the migrating builds", msg, old)
			}
			got, err := os.ReadFile(path)
			if walData == nil {
				if !os.IsNotExist(err) {
					t.Fatalf("refused Open created wal.log: %q, %v", got, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, walData) {
				t.Fatalf("refused Open changed wal.log to %q (%v), want %q", got, err, walData)
			}
		}
	}
}
