package jobstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type walRec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func openTestWAL(t *testing.T) (*WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

func replayAll(t *testing.T, w *WAL) []walRec {
	t.Helper()
	var out []walRec
	if err := w.Replay(func(line []byte) error {
		var r walRec
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWALAppendReplay(t *testing.T) {
	w, path := openTestWAL(t)
	for i := 0; i < 5; i++ {
		if err := w.Append(walRec{N: i, S: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, w)
	if len(got) != 5 {
		t.Fatalf("replayed %d entries, want 5", len(got))
	}
	for i, r := range got {
		if r.N != i {
			t.Errorf("entry %d = %+v", i, r)
		}
	}
	// A second WAL on the same file sees the same entries.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2); len(got) != 5 {
		t.Errorf("reopened replay = %d entries, want 5", len(got))
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	w, path := openTestWAL(t)
	if err := w.Append(walRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 2}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n": 3, "s": "torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := replayAll(t, w)
	if len(got) != 2 || got[1].N != 2 {
		t.Fatalf("replay after torn tail = %+v, want the 2 intact entries", got)
	}
}

func TestWALCompact(t *testing.T) {
	w, path := openTestWAL(t)
	for i := 0; i < 10; i++ {
		if err := w.Append(walRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	err := w.Compact(func(lines [][]byte) ([][]byte, error) {
		if len(lines) != 10 {
			t.Errorf("transform saw %d lines, want 10", len(lines))
		}
		return lines[8:], nil // keep the last two
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, w); len(got) != 2 || got[0].N != 8 {
		t.Fatalf("post-compaction replay = %+v", got)
	}
	// Appends keep working against the swapped handle and land after
	// the surviving entries.
	if err := w.Append(walRec{N: 99}); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, w)
	if len(got) != 3 || got[2].N != 99 {
		t.Fatalf("replay after post-compaction append = %+v", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("log does not end with a newline")
	}
}

func TestWALClosed(t *testing.T) {
	w, _ := openTestWAL(t)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 1}); err == nil {
		t.Error("append on closed wal succeeded")
	}
	if err := w.Compact(func(l [][]byte) ([][]byte, error) { return l, nil }); err == nil {
		t.Error("compact on closed wal succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestWALLongLineKeepsLaterEntries puts a 2 MiB line ahead of others:
// replay must return it and every entry after it.
func TestWALLongLineKeepsLaterEntries(t *testing.T) {
	w, _ := openTestWAL(t)
	big := strings.Repeat("x", 2<<20)
	for i, s := range []string{big, "", "y"} {
		if err := w.Append(walRec{N: i, S: s}); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, w)
	if len(got) != 3 || got[0].S != big || got[2].N != 2 {
		t.Fatalf("replay after a 2 MiB line returned %d entries, want 3 intact", len(got))
	}
}

// TestWALAppendAfterTornTail replays over a torn tail and appends: the
// new entry must start a line of its own, not extend the torn one, so
// a later replay sees it.
func TestWALAppendAfterTornTail(t *testing.T) {
	w, path := openTestWAL(t)
	if err := w.Append(walRec{N: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":2}`); err != nil { // valid JSON, but its newline never landed
		t.Fatal(err)
	}
	f.Close()
	if got := replayAll(t, w); len(got) != 1 {
		t.Fatalf("replay over a torn tail = %+v, want only the intact entry", got)
	}
	if err := w.Append(walRec{N: 3}); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, w); len(got) != 2 || got[1].N != 3 {
		t.Fatalf("replay after appending past a torn tail = %+v, want entries 1 and 3", got)
	}
}

// TestWALFailedAppendIsCut leaves what a failed append can leave past
// the last good line, a fragment or a whole line whose sync failed,
// and runs the undo an append error takes: the log must end at the
// last good line, and the next append must land as a line of its own.
func TestWALFailedAppendIsCut(t *testing.T) {
	for _, junk := range []string{`{"n":2,"s":"par`, "{\"n\":2}\n"} {
		w, path := openTestWAL(t)
		if err := w.Append(walRec{N: 1}); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		if _, err := w.f.WriteAt([]byte(junk), w.end); err != nil {
			t.Fatal(err)
		}
		err := w.undo(errors.New("injected"))
		w.mu.Unlock()
		if err == nil || w.broken != nil {
			t.Fatalf("undo = %v, broken = %v; want the append error and a usable WAL", err, w.broken)
		}
		if err := w.Append(walRec{N: 3}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := "{\"n\":1}\n{\"n\":3}\n"; string(data) != want {
			t.Fatalf("log after a cut append = %q, want %q", data, want)
		}
	}
}

// TestWALFailsClosed appends to a log whose writes and truncations
// both fail: the append errors, and so does every later Append and
// Compact, instead of writing after a fragment it could not cut.
func TestWALFailsClosed(t *testing.T) {
	w, err := OpenWAL("/dev/full")
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer w.Close()
	if err := w.Append(walRec{N: 1}); err == nil {
		t.Fatal("append to a full device succeeded")
	}
	if w.broken == nil {
		t.Fatal("WAL still open after a failed append it could not cut")
	}
	if err := w.Append(walRec{N: 2}); err != w.broken {
		t.Errorf("later append = %v, want the fail-closed error", err)
	}
	if err := w.Compact(func(l [][]byte) ([][]byte, error) { return l, nil }); err != w.broken {
		t.Errorf("compact = %v, want the fail-closed error", err)
	}
}

// TestWALCompactCarriesConcurrentAppends appends while transform runs:
// the append must not wait for the compaction, and its entry must
// land after transform's output in the new log, as must later ones.
func TestWALCompactCarriesConcurrentAppends(t *testing.T) {
	w, _ := openTestWAL(t)
	for i := 0; i < 3; i++ {
		if err := w.Append(walRec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	err := w.Compact(func(lines [][]byte) ([][]byte, error) {
		done := make(chan error, 1)
		go func() { done <- w.Append(walRec{N: 99}) }()
		select {
		case err := <-done:
			if err != nil {
				return nil, err
			}
		case <-time.After(10 * time.Second):
			t.Error("append waited for the compaction's transform")
		}
		return lines[2:], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRec{N: 100}); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, w)
	if len(got) != 3 || got[0].N != 2 || got[1].N != 99 || got[2].N != 100 {
		t.Fatalf("replay after a compaction with a concurrent append = %+v, want entries 2, 99, 100", got)
	}
}
