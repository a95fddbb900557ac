// Package jobstore persists ddsimd job submissions and final results
// on disk, so a service restart (graceful or kill -9) loses no work:
// finished jobs are served from disk, and jobs that were queued or
// running at the crash are re-queued and re-run.
//
// The store is dependency-free (standard library only) and built from
// three crash-safe pieces under one data directory:
//
//	dir/
//	  jobs/<id>.json     one Record per accepted submission
//	  results/<id>.json  one Final per job that reached a terminal state
//	  wal.log            append-only WAL of status transitions
//
// Record and Final files are written atomically (temp file, fsync,
// rename, directory fsync). The WAL is a sequence of JSON lines, one
// per status transition, fsync'd after every append; a torn final
// line (the signature of a crash mid-append) is tolerated and ignored
// on replay. Opening the store replays the WAL to reconstruct the
// last known status of every job, drops entries for deleted jobs, and
// rewrites the WAL compacted to one entry per live job.
//
// The write ordering gives recovery its meaning: a Final file is
// written and synced *before* the terminal WAL entry, so a WAL that
// says "done" implies the result bytes are durable. Conversely a job
// whose last durable status is "queued" or "running" (or whose
// terminal entry has no result file, which only a crash in the window
// between the two writes can produce) was in flight and must be
// re-queued by the caller.
//
// A Store is safe for concurrent use by multiple goroutines.
package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is the durable form of one accepted submission: the opaque
// request body plus the summary fields the service needs to list the
// job without re-parsing the circuit.
type Record struct {
	// ID is the job identifier; it doubles as the record's file name
	// and therefore must match ValidID.
	ID string `json:"id"`
	// Spec is the submission body, stored verbatim so a re-queued job
	// re-enters the exact submit path.
	Spec json.RawMessage `json:"spec"`
	// Priority is the job's dispatch priority (higher runs sooner).
	Priority int `json:"priority,omitempty"`
	// Submitted is the original submission time.
	Submitted time.Time `json:"submitted_at"`
	// Circuit, Qubits, Gates and Backend summarise the compiled
	// submission for listings served from disk.
	Circuit string `json:"circuit"`
	Qubits  int    `json:"qubits"`
	Gates   int    `json:"gates"`
	Backend string `json:"backend"`
}

// Final is the durable terminal state of a job: its status, error
// text and the marshalled result payload.
type Final struct {
	// Status is the terminal status (done, cancelled or failed).
	Status string `json:"status"`
	// Error is the job's error text, if any.
	Error string `json:"error,omitempty"`
	// Results is the marshalled []*ddsim.Result payload, stored
	// verbatim.
	Results json.RawMessage `json:"results,omitempty"`
	// Started and Finished bracket the job's execution.
	Started  time.Time `json:"started_at"`
	Finished time.Time `json:"finished_at"`
}

// Recovered is one job reconstructed by Open: its submission record,
// the last durable status from the WAL, and — for jobs that reached a
// terminal state before the restart — the Final payload.
type Recovered struct {
	// Record is the persisted submission.
	Record Record
	// Status is the last durable status ("queued" when the WAL had no
	// entry for the job, which a crash between the record write and
	// the WAL append can produce).
	Status string
	// Final is the terminal payload, or nil for jobs that were still
	// in flight. A terminal Status with a nil Final means the crash
	// hit the window between the two writes; callers should re-queue.
	Final *Final
}

// walEntry is one WAL line: job id, new status, transition time.
type walEntry struct {
	ID     string    `json:"id"`
	Status string    `json:"status"`
	Time   time.Time `json:"t"`
}

// StatusDeleted is the WAL status recorded by Delete; jobs whose last
// entry is StatusDeleted are dropped on replay.
const StatusDeleted = "deleted"

// Store is the on-disk job store. All methods are safe for concurrent
// use.
type Store struct {
	dir string
	wal *WAL

	mu        sync.Mutex
	recovered []Recovered
}

// ValidID reports whether id is acceptable as a job identifier: non-
// empty, at most 128 bytes, and built only from letters, digits, '.',
// '_' and '-' (ids become file names).
func ValidID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Open opens (creating if necessary) the store rooted at dir, replays
// the WAL, loads every surviving record and final state, compacts the
// WAL, and returns the store with the recovery snapshot available via
// Recover.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs"), filepath.Join(dir, "results")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobstore: %w", err)
		}
	}
	s := &Store{dir: dir}
	wal, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	s.wal = wal
	status := make(map[string]string)
	if err := wal.Replay(func(line []byte) error {
		applyStatusLine(status, line)
		return nil
	}); err != nil {
		wal.Close()
		return nil, err
	}
	if err := s.loadRecords(status); err != nil {
		wal.Close()
		return nil, err
	}
	if err := wal.Compact(compactStatuses); err != nil {
		wal.Close()
		return nil, err
	}
	return s, nil
}

// Recover returns the jobs reconstructed when the store was opened,
// sorted by submission time (ties broken by id). The slice is shared;
// callers must not modify it.
func (s *Store) Recover() []Recovered {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// PutJob durably records an accepted submission: the record file is
// written atomically, then a "queued" transition is appended to the
// WAL. After PutJob returns, a restart recovers the job.
func (s *Store) PutJob(rec Record) error {
	if !ValidID(rec.ID) {
		return fmt.Errorf("jobstore: invalid job id %q", rec.ID)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: marshal record %s: %w", rec.ID, err)
	}
	if err := atomicWrite(s.jobPath(rec.ID), data); err != nil {
		return err
	}
	return s.SetStatus(rec.ID, "queued")
}

// SetStatus appends a status transition to the WAL and syncs it.
func (s *Store) SetStatus(id, status string) error {
	if !ValidID(id) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	return s.appendWAL(walEntry{ID: id, Status: status, Time: time.Now().UTC()})
}

// PutFinal durably records a job's terminal state: the Final file is
// written atomically and synced *before* the terminal status reaches
// the WAL, so a durable terminal status always has its payload.
func (s *Store) PutFinal(id string, f Final) error {
	if !ValidID(id) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("jobstore: marshal final %s: %w", id, err)
	}
	if err := atomicWrite(s.resultPath(id), data); err != nil {
		return err
	}
	return s.SetStatus(id, f.Status)
}

// Delete removes a job from the store: a tombstone transition is
// appended to the WAL first (so replay drops the job even if the file
// removals are lost), then the record and result files are removed.
// The file removals are attempted even when the tombstone append
// fails (e.g. a sick disk): recovery is driven by the record files,
// so removing them is sufficient to keep the job dead.
func (s *Store) Delete(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	walErr := s.SetStatus(id, StatusDeleted)
	if err := os.Remove(s.jobPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Remove(s.resultPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("jobstore: %w", err)
	}
	return walErr
}

// Close closes the WAL handle. The store must not be used afterwards.
func (s *Store) Close() error { return s.wal.Close() }

// Compact rewrites the WAL down to one entry per live job, dropping
// the status-transition history (and delete tombstones) accumulated
// since the last open or Compact. Open does this once at startup; a
// long-running server calls Compact periodically (ddsimd runs it on a
// ticker, -compact-every) so weeks of churn cannot grow the WAL without
// bound. Crash-safe: WAL.Compact rewrites atomically under the append
// lock, so no concurrent transition can fall between replay and
// rewrite.
func (s *Store) Compact() error { return s.wal.Compact(compactStatuses) }

func (s *Store) jobPath(id string) string { return filepath.Join(s.dir, "jobs", id+".json") }
func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

func (s *Store) appendWAL(e walEntry) error { return s.wal.Append(e) }

// applyStatusLine folds one WAL line into the last-status map.
// Tombstones stay in the map (dropped at compaction) so a record file
// whose removal was lost in a crash is not resurrected by the
// no-WAL-entry fallback in loadRecords. Lines that are valid JSON but
// not walEntries are skipped.
func applyStatusLine(status map[string]string, line []byte) {
	var e walEntry
	if err := json.Unmarshal(line, &e); err == nil && e.ID != "" {
		status[e.ID] = e.Status
	}
}

// compactStatuses is the WAL.Compact transform: the surviving log is
// one entry per live job carrying its last durable status, sorted by
// id; tombstones die here.
func compactStatuses(lines [][]byte) ([][]byte, error) {
	status := make(map[string]string)
	for _, line := range lines {
		applyStatusLine(status, line)
	}
	var ids []string
	for id, st := range status {
		if st == StatusDeleted {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([][]byte, 0, len(ids))
	now := time.Now().UTC()
	for _, id := range ids {
		line, err := json.Marshal(walEntry{ID: id, Status: status[id], Time: now})
		if err != nil {
			return nil, fmt.Errorf("jobstore: compact wal: %w", err)
		}
		out = append(out, line)
	}
	return out, nil
}

// loadRecords builds the recovery snapshot from the job files and the
// replayed statuses. Records without a WAL entry (a crash between the
// record write and the WAL append) recover as "queued"; result files
// without a record are orphans and are ignored.
func (s *Store) loadRecords(status map[string]string) error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	var out []Recovered
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(s.jobPath(id))
		if err != nil {
			continue // racing deletion; skip
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id {
			continue // corrupt or mismatched record: unrecoverable, skip
		}
		st, ok := status[id]
		if st == StatusDeleted {
			// Tombstoned: the job is gone even though its files
			// survived a crash; finish the removal now.
			_ = os.Remove(s.jobPath(id))
			_ = os.Remove(s.resultPath(id))
			continue
		}
		if !ok {
			st = "queued"
			status[id] = st
		}
		r := Recovered{Record: rec, Status: st}
		if fin := s.loadFinal(id); fin != nil && fin.Status == st {
			r.Final = fin
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Record, out[j].Record
		if !a.Submitted.Equal(b.Submitted) {
			return a.Submitted.Before(b.Submitted)
		}
		return a.ID < b.ID
	})
	s.recovered = out
	return nil
}

// loadFinal reads a job's Final file, or nil when absent or corrupt.
func (s *Store) loadFinal(id string) *Final {
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return nil
	}
	var f Final
	if err := json.Unmarshal(data, &f); err != nil {
		return nil
	}
	return &f
}
