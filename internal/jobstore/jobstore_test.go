package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testRecord(id string) Record {
	return Record{
		ID:        id,
		Spec:      json.RawMessage(`{"circuit":{"name":"ghz","n":3},"options":{"runs":10}}`),
		Priority:  2,
		Submitted: time.Now().UTC().Truncate(time.Microsecond),
		Circuit:   "ghz",
		Qubits:    3,
		Gates:     3,
		Backend:   "dd",
	}
}

// reopen simulates a crash-restart: the store is abandoned without
// Close (a kill -9 never closes files) and a fresh Store replays the
// directory.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return s
}

func TestRoundTripFinished(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	rec := testRecord("j1")
	if err := s.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.setStatus("j1", "running"); err != nil {
		t.Fatal(err)
	}
	fin := Final{
		Status:   "done",
		Results:  json.RawMessage(`[{"runs":10}]`),
		Started:  time.Now().UTC(),
		Finished: time.Now().UTC(),
	}
	if err := s.PutFinal("j1", fin); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dir)
	recs := s2.Recover()
	if len(recs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recs))
	}
	got := recs[0]
	if got.Status != "done" || got.Final == nil {
		t.Fatalf("recovered status %q final %v, want done with payload", got.Status, got.Final)
	}
	if got.Record.ID != "j1" || got.Record.Circuit != "ghz" || got.Record.Priority != 2 {
		t.Fatalf("record corrupted: %+v", got.Record)
	}
	if string(got.Final.Results) != `[{"runs":10}]` {
		t.Fatalf("results corrupted: %s", got.Final.Results)
	}
}

func TestInFlightJobsRecoverForRequeue(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.PutJob(testRecord("j1")); err != nil { // queued
		t.Fatal(err)
	}
	if err := s.PutJob(testRecord("j2")); err != nil {
		t.Fatal(err)
	}
	if err := s.setStatus("j2", "running"); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dir)
	statuses := map[string]string{}
	for _, r := range s2.Recover() {
		statuses[r.Record.ID] = r.Status
		if r.Final != nil {
			t.Errorf("in-flight job %s has a final payload", r.Record.ID)
		}
	}
	if statuses["j1"] != "queued" || statuses["j2"] != "running" {
		t.Fatalf("recovered statuses %v, want j1=queued j2=running", statuses)
	}
}

// TestTornWALTail appends garbage (a crash mid-append) after valid
// entries; replay must keep everything before the tear.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.PutJob(testRecord("j1")); err != nil {
		t.Fatal(err)
	}
	if err := s.setStatus("j1", "running"); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j1","status":"do`); err != nil { // torn line
		t.Fatal(err)
	}
	f.Close()

	s2 := reopen(t, dir)
	recs := s2.Recover()
	if len(recs) != 1 || recs[0].Status != "running" {
		t.Fatalf("recovered %+v, want j1 running (torn tail ignored)", recs)
	}
}

func TestDeleteDropsJob(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.PutJob(testRecord("j1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFinal("j1", Final{Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	assertOnlyWAL(t, dir)
	s2 := reopen(t, dir)
	if recs := s2.Recover(); len(recs) != 0 {
		t.Fatalf("deleted job recovered: %+v", recs)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
		t.Fatalf("compaction kept the deleted job's lines: %v, %v", st, err)
	}
}

// TestDeleteTombstoneWithoutFileRemoval tombstones a job that never
// reached a final: replay must still drop the job.
func TestDeleteTombstoneWithoutFileRemoval(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.PutJob(testRecord("j1")); err != nil {
		t.Fatal(err)
	}
	if err := s.setStatus("j1", StatusDeleted); err != nil { // tombstone only
		t.Fatal(err)
	}
	s2 := reopen(t, dir)
	if recs := s2.Recover(); len(recs) != 0 {
		t.Fatalf("tombstoned job recovered: %+v", recs)
	}
}

func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	// Many transitions for one job: compaction should collapse them.
	if err := s.PutJob(testRecord("j1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.setStatus("j1", "running"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutFinal("j1", Final{Status: "done"}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(filepath.Join(dir, "wal.log"))

	s2 := reopen(t, dir)
	after, _ := os.Stat(filepath.Join(dir, "wal.log"))
	if after.Size() >= before.Size() {
		t.Fatalf("WAL not compacted: %d -> %d bytes", before.Size(), after.Size())
	}
	recs := s2.Recover()
	if len(recs) != 1 || recs[0].Status != "done" {
		t.Fatalf("state lost by compaction: %+v", recs)
	}
}

func TestRecoverSortsBySubmissionTime(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	base := time.Now().UTC()
	for i, id := range []string{"j3", "j1", "j2"} {
		rec := testRecord(id)
		rec.Submitted = base.Add(time.Duration(3-i) * time.Second) // j3 newest last inserted first
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	s2 := reopen(t, dir)
	recs := s2.Recover()
	if len(recs) != 3 {
		t.Fatalf("recovered %d, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Record.Submitted.After(recs[i].Record.Submitted) {
			t.Fatalf("recover order not by submission time: %v then %v",
				recs[i-1].Record.Submitted, recs[i].Record.Submitted)
		}
	}
}

func TestInvalidIDsRejected(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	for _, id := range []string{"", "a/b", "../escape", "a b", "j\x00"} {
		if err := s.PutJob(testRecord(id)); err == nil {
			t.Errorf("PutJob accepted invalid id %q", id)
		}
		if err := s.setStatus(id, "running"); err == nil {
			t.Errorf("setStatus accepted invalid id %q", id)
		}
	}
	if !ValidID("j1.retry_2-x") {
		t.Error("ValidID rejected a legal id")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("j%d", g)
			if err := s.PutJob(testRecord(id)); err != nil {
				t.Errorf("PutJob %s: %v", id, err)
				return
			}
			for i := 0; i < 10; i++ {
				if err := s.setStatus(id, "running"); err != nil {
					t.Errorf("setStatus %s: %v", id, err)
				}
			}
			if err := s.PutFinal(id, Final{Status: "done"}); err != nil {
				t.Errorf("PutFinal %s: %v", id, err)
			}
		}(g)
	}
	wg.Wait()
	s2 := reopen(t, dir)
	recs := s2.Recover()
	if len(recs) != 8 {
		t.Fatalf("recovered %d jobs, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Status != "done" || r.Final == nil {
			t.Errorf("job %s recovered as %q (final %v)", r.Record.ID, r.Status, r.Final)
		}
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.setStatus("j1", "running"); err == nil {
		t.Fatal("closed store accepted a WAL append")
	}
}
