// Package jobstore persists ddsimd job submissions and final results
// on disk, so a service restart (graceful or kill -9) loses no work:
// finished jobs are served from disk, and jobs that were queued or
// running at the crash are re-queued and re-run.
//
// The store is dependency-free (standard library only) and is one
// file under its data directory:
//
//	dir/
//	  wal.log   append-only WAL of JSON lines, fsync'd per append
//
// Each line names a job and its status after the line. PutJob appends
// a "queued" line that carries the job's Record inline; PutFinal
// appends a terminal line that carries its Final inline; Delete
// appends a status-only tombstone. A job therefore costs two synced
// appends and creates no file. A torn final line (the
// signature of a crash mid-append) is tolerated and ignored on
// replay. Opening the store replays the WAL to reconstruct every
// job's record, last status and final state, drops deleted jobs, and
// rewrites the WAL compacted to one line per live job with its record
// and final inline.
//
// Because a terminal status and its payload are one line, a WAL that
// says "done" implies the result bytes are durable. A job whose last
// durable line is "queued" or "running" was in flight and must be
// re-queued by the caller.
//
// Open refuses a data directory in the older layout, which kept a
// jobs/<id>.json Record per submission and a results/<id>.json Final
// per finished job beside a WAL of status lines only. Running any
// build from commit 14fd899 to 7ff41e2 on it once moves their
// contents into the WAL and removes the two directories.
//
// A Store is safe for concurrent use by multiple goroutines.
package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Record is the durable form of one accepted submission: the opaque
// request body plus the summary fields the service needs to list the
// job without re-parsing the circuit.
type Record struct {
	// ID is the job identifier; it must match ValidID.
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
	// Status is the last durable status. A job whose last durable
	// status is terminal but whose Final is not durable — which only a
	// WAL the store did not write can hold — recovers as "queued", so
	// a terminal Status always comes with its Final.
	Status string
	// Final is the terminal payload, or nil for jobs that were still
	// in flight and must be re-queued.
	Final *Final
}

// walEntry is one WAL line: job id, new status, transition time, and
// the record (PutJob, compaction) or final (PutFinal, compaction)
// the line makes durable.
type walEntry struct {
	ID     string    `json:"id"`
	Status string    `json:"status"`
	Time   time.Time `json:"t"`
	Record *Record   `json:"record,omitempty"`
	Final  *Final    `json:"final,omitempty"`
}

// StatusDeleted is the WAL status recorded by Delete; jobs whose last
// entry is StatusDeleted are dropped on replay.
const StatusDeleted = "deleted"

// statusQueued is the status PutJob records.
const statusQueued = "queued"

// terminal reports whether status ends a job; only a Final carries
// one.
func terminal(status string) bool {
	return status == "done" || status == "cancelled" || status == "failed"
}

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
// '_' and '-' (ids name files: the cluster journals).
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
// and compacts the WAL, and returns the store with the recovery
// snapshot available via Recover. A directory holding a jobs or
// results entry is in the older layout and is refused before its WAL
// is opened, so wal.log stays as it was.
func Open(dir string) (*Store, error) {
	for _, old := range []string{"jobs", "results"} {
		if _, err := os.Lstat(filepath.Join(dir, old)); !os.IsNotExist(err) {
			if err != nil {
				return nil, fmt.Errorf("jobstore: %w", err)
			}
			return nil, fmt.Errorf("jobstore: %s holds %s/, the older per-job-file layout, which this build does not read; "+
				"run any build from commit 14fd899 to 7ff41e2 on it once to migrate it into wal.log", dir, old)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	wal, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, wal: wal}
	var jobs map[string]*jobState
	// One read of the log serves both recovery and compaction.
	err = wal.Compact(func(lines [][]byte) ([][]byte, error) {
		jobs = replay(lines)
		return compactLines(jobs)
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	s.recovered = recoveredJobs(jobs)
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

// PutJob durably records an accepted submission: one synced "queued"
// WAL line carries the record. After PutJob returns, a restart
// recovers the job.
func (s *Store) PutJob(rec Record) error {
	if !ValidID(rec.ID) {
		return fmt.Errorf("jobstore: invalid job id %q", rec.ID)
	}
	return s.wal.Append(walEntry{ID: rec.ID, Status: statusQueued, Time: time.Now().UTC(), Record: &rec})
}

// setStatus appends a status-only line to the WAL and syncs it.
func (s *Store) setStatus(id, status string) error {
	if !ValidID(id) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	return s.wal.Append(walEntry{ID: id, Status: status, Time: time.Now().UTC()})
}

// PutFinal durably records a job's terminal state: one synced WAL
// line carries the terminal status and the Final together, so a
// durable terminal status always has its payload.
func (s *Store) PutFinal(id string, f Final) error {
	if !ValidID(id) {
		return fmt.Errorf("jobstore: invalid job id %q", id)
	}
	if !terminal(f.Status) {
		return fmt.Errorf("jobstore: final state of %s has non-terminal status %q", id, f.Status)
	}
	return s.wal.Append(walEntry{ID: id, Status: f.Status, Time: time.Now().UTC(), Final: &f})
}

// Delete removes a job from the store by appending a tombstone to the
// WAL; replay drops the job, and the next compaction drops its lines.
func (s *Store) Delete(id string) error {
	return s.setStatus(id, StatusDeleted)
}

// Close closes the WAL handle. The store must not be used afterwards.
func (s *Store) Close() error { return s.wal.Close() }

// Compact rewrites the WAL down to one line per live job, carrying
// its record, last durable status and final state, and drops the
// transition history (and delete tombstones) accumulated since the
// last open or Compact. Open does this once at startup; a
// long-running server calls Compact periodically (ddsimd runs it on a
// ticker, -compact-every) so weeks of churn cannot grow the WAL
// without bound. A job whose state is already one compacted line is
// copied verbatim; only jobs that changed are re-encoded. Crash-safe:
// WAL.Compact rewrites atomically and carries over the transitions
// appended while it ran, which wait only for the swap.
func (s *Store) Compact() error {
	return s.wal.Compact(func(lines [][]byte) ([][]byte, error) {
		return compactLines(replay(lines))
	})
}

// jobState is one job as the WAL describes it. Tombstoned jobs stay
// in the map until compaction drops them.
type jobState struct {
	rec    *Record
	status string
	final  *Final
	// line is the job's one WAL line while that line is all there is
	// to the job: it carries the record, and no later line moved the
	// job on. Compaction copies it verbatim if it already says what a
	// compacted line would.
	line []byte
}

// replay folds WAL lines into per-job state. A line carrying a record
// starts the job afresh (an id reused after a delete); a status-only
// line moves the status and keeps the final, which resolve attaches
// only while the status is still the final's. Lines that do not parse
// as a walEntry (a tear that kept its newline), name an invalid id, or
// carry another job's record are skipped.
func replay(lines [][]byte) map[string]*jobState {
	jobs := make(map[string]*jobState)
	for _, line := range lines {
		var e walEntry
		if err := json.Unmarshal(line, &e); err != nil || !ValidID(e.ID) ||
			(e.Record != nil && e.Record.ID != e.ID) {
			continue
		}
		j := jobs[e.ID]
		if j == nil || e.Record != nil {
			j = &jobState{rec: e.Record}
			jobs[e.ID] = j
		}
		j.line = nil
		if e.Record != nil {
			j.line = line
		}
		j.status = e.Status
		if e.Final != nil {
			j.final = e.Final
		}
	}
	return jobs
}

// resolve returns the job's recovered status and final: the final
// only while the status is still the final's, and a terminal status
// without its final read as queued.
func (j *jobState) resolve() (string, *Final) {
	switch {
	case !terminal(j.status):
		return j.status, nil
	case j.final != nil && j.final.Status == j.status:
		return j.status, j.final
	default:
		return statusQueued, nil
	}
}

// live reports whether the job survives compaction: it has a record
// and no tombstone.
func (j *jobState) live() bool { return j.rec != nil && j.status != StatusDeleted }

// compactLines is the compacted log: one line per live job carrying
// its record, resolved status and final, sorted by id. A job's one
// line is reused as it is when resolving changes nothing.
func compactLines(jobs map[string]*jobState) ([][]byte, error) {
	ids := make([]string, 0, len(jobs))
	for id, j := range jobs {
		if j.live() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([][]byte, 0, len(ids))
	now := time.Now().UTC()
	for _, id := range ids {
		j := jobs[id]
		status, fin := j.resolve()
		if j.line != nil && status == j.status && fin == j.final {
			out = append(out, j.line)
			continue
		}
		line, err := json.Marshal(walEntry{ID: id, Status: status, Time: now, Record: j.rec, Final: fin})
		if err != nil {
			return nil, fmt.Errorf("jobstore: compact wal: %w", err)
		}
		out = append(out, line)
	}
	return out, nil
}

// recoveredJobs is the recovery snapshot: every live job, sorted by
// submission time (ties broken by id).
func recoveredJobs(jobs map[string]*jobState) []Recovered {
	var out []Recovered
	for _, j := range jobs {
		if !j.live() {
			continue
		}
		status, fin := j.resolve()
		out = append(out, Recovered{Record: *j.rec, Status: status, Final: fin})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Record, out[j].Record
		if !a.Submitted.Equal(b.Submitted) {
			return a.Submitted.Before(b.Submitted)
		}
		return a.ID < b.ID
	})
	return out
}
