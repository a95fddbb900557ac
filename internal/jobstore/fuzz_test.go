package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzWALReplay opens a data directory built from arbitrary wal.log
// bytes, optionally beside the older layout's record and result files
// for job j1. For every input:
//   - Open never panics;
//   - a directory holding a record or result file is refused, and its
//     wal.log is left byte for byte as it was;
//   - no id is recovered twice;
//   - every recovered job with a terminal status carries its Final,
//     and every Final carries the job's status;
//   - a successful Open leaves only wal.log, and opening again
//     recovers the same jobs (replay is idempotent).
//
// The seeds run as ordinary test cases on every `go test`; CI
// additionally fuzzes the target for ~30s per run.
func FuzzWALReplay(f *testing.F) {
	rec := testRecord("j1")
	rec.Submitted = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	fin := Final{Status: "done", Results: json.RawMessage(`[{"runs":10}]`)}
	line := func(e walEntry) string {
		data, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		return string(data) + "\n"
	}
	queued := line(walEntry{ID: "j1", Status: "queued", Record: &rec})
	done := line(walEntry{ID: "j1", Status: "done", Final: &fin})
	legacyRec, _ := json.Marshal(rec)
	legacyFin, _ := json.Marshal(fin)

	f.Add([]byte(queued+done), []byte{}, []byte{})
	f.Add([]byte(queued+done[:len(done)/2]), []byte{}, []byte{})                                     // torn terminal line
	f.Add([]byte(queued+line(walEntry{ID: "j1", Status: StatusDeleted})+queued), []byte{}, []byte{}) // id reused
	f.Add([]byte(`{"id":"j1","status":"queued"}`+"\n"+`{"id":"j1","status":"done"}`+"\n"), legacyRec, legacyFin)
	f.Add([]byte(`{"id":"j1","status":"done"}`+"\n"), legacyRec, []byte{}) // result file never landed
	f.Add([]byte("null\n[]\n{}\n\n"+queued+`{"id":"j1","status":"done","final":{"status":"running"}}`+"\n"), []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, wal, record, result []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		for sub, data := range map[string][]byte{"jobs": record, "results": result} {
			if len(data) == 0 {
				continue
			}
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sub, "j1.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if len(record) > 0 || len(result) > 0 {
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a directory in the older layout")
			}
			if got, rerr := os.ReadFile(filepath.Join(dir, "wal.log")); rerr != nil || !bytes.Equal(got, wal) {
				t.Fatalf("refused Open changed wal.log to %q (%v), want %q", got, rerr, wal)
			}
			return
		}
		if err != nil {
			return
		}
		first := checkRecovered(t, s.Recover())
		s.Close()
		assertOnlyWAL(t, dir)
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopening a compacted log: %v", err)
		}
		defer s.Close()
		if again := checkRecovered(t, s.Recover()); !bytes.Equal(first, again) {
			t.Fatalf("replay not idempotent:\n%s\n%s", first, again)
		}
	})
}

// checkRecovered asserts the recovery invariants and returns the
// snapshot marshalled, for comparison across opens.
func checkRecovered(t *testing.T, recs []Recovered) []byte {
	t.Helper()
	seen := make(map[string]bool)
	for _, r := range recs {
		id := r.Record.ID
		if seen[id] || !ValidID(id) {
			t.Fatalf("job %q recovered twice or under an invalid id", id)
		}
		seen[id] = true
		if terminal(r.Status) != (r.Final != nil) || (r.Final != nil && r.Final.Status != r.Status) {
			t.Fatalf("job %s recovered as %q with final %+v", id, r.Status, r.Final)
		}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
