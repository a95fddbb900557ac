package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ddsim/internal/jobstore"
	"ddsim/internal/stochastic"
)

// The coordinator journals per-job progress through a jobstore.WAL at
// <dataDir>/cluster/<jobID>.wal. Two entry kinds:
//
//	{"type":"plan", ...}  written once before any lease is granted,
//	                      carrying the job spec and its chunk plan; a
//	                      journal of another plan is started over
//	{"type":"part", ...}  appended after the lease table accepts a
//	                      part's sums
//
// Ordering gives recovery its meaning: a part entry is appended only
// *after* the in-memory accept, and the table accepts each part
// exactly once, so the journal never holds two entries for one part
// from one coordinator incarnation — and replay dedups by part index
// anyway, making a re-run after a crash-in-the-window idempotent. A
// part whose completion was accepted but not yet journaled when the
// coordinator died is simply re-simulated: determinism makes the sums
// identical, so resuming cannot double-count or diverge.

// journalEntry is one WAL line of the coordinator journal.
type journalEntry struct {
	Type string `json:"type"` // "plan" | "part"
	// Plan entries:
	Spec *JobSpec              `json:"spec,omitempty"`
	Plan *stochastic.ChunkPlan `json:"plan,omitempty"`
	// Part entries:
	Part int                   `json:"part,omitempty"`
	Sums []stochastic.ChunkSum `json:"sums,omitempty"`
}

// journal is the durable per-job coordinator state.
type journal struct {
	wal *jobstore.WAL
}

// openJournal opens (creating directories as needed) the journal for
// one job and replays it: the plan entry (nil on a fresh journal) and
// the sums of every durably completed part, deduped by part index.
func openJournal(dataDir, jobID string) (*journal, *journalEntry, map[int][]stochastic.ChunkSum, error) {
	dir := filepath.Join(dataDir, "cluster")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("cluster: %w", err)
	}
	if !jobstore.ValidID(jobID) {
		return nil, nil, nil, fmt.Errorf("cluster: invalid job id %q", jobID)
	}
	wal, err := jobstore.OpenWAL(filepath.Join(dir, jobID+".wal"))
	if err != nil {
		return nil, nil, nil, err
	}
	var head *journalEntry
	parts := make(map[int][]stochastic.ChunkSum)
	err = wal.Replay(func(line []byte) error {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil // skip foreign lines
		}
		switch e.Type {
		case "plan":
			if e.Spec != nil {
				head = &e
			}
		case "part":
			if _, dup := parts[e.Part]; !dup {
				parts[e.Part] = e.Sums
			}
		}
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, nil, nil, err
	}
	return &journal{wal: wal}, head, parts, nil
}

// plan starts the journal over with the job spec and plan as its only
// entry, atomically dropping whatever it held; must precede any lease.
func (j *journal) plan(spec JobSpec, plan stochastic.ChunkPlan) error {
	line, err := json.Marshal(journalEntry{Type: "plan", Spec: &spec, Plan: &plan})
	if err != nil {
		return err
	}
	return j.wal.Compact(func([][]byte) ([][]byte, error) { return [][]byte{line}, nil })
}

// part journals an accepted part's sums; called only after the lease
// table accepted them.
func (j *journal) part(idx int, sums []stochastic.ChunkSum) error {
	return j.wal.Append(journalEntry{Type: "part", Part: idx, Sums: sums})
}

// close closes the WAL handle.
func (j *journal) close() error { return j.wal.Close() }

// remove deletes a finished job's journal file.
func (j *journal) remove() error { return os.Remove(j.wal.Path()) }
