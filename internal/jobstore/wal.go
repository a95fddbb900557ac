package jobstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ddsim/internal/telemetry"
)

// WAL is a reusable crash-safe append-only log of JSON lines: one
// marshalled value per line, fsync'd after every append, tolerant of a
// torn final line on replay (the signature of a crash mid-append), and
// compactable by atomic rewrite. It is the durability primitive behind
// both the job store and the cluster coordinator's lease journal.
//
// A WAL is safe for concurrent use; Compact carries over what is
// appended while it runs, so no entry can fall between the replay and
// the rewrite. One WAL handle owns its file: appends write at the end
// of the last line the handle knows of, not at whatever end another
// writer left.
type WAL struct {
	path string

	compactMu sync.Mutex // serialises Compact

	mu sync.Mutex // guards the fields below
	f  *os.File
	// end is the offset just past the last complete line: the next
	// append writes there, and a failed append is cut back to it.
	end int64
	// broken is the error that made Append fail closed, or nil.
	broken error
}

// OpenWAL opens (creating if necessary) the WAL at path for appending.
// Appends go after the file's current end; Replay or Compact first
// cuts a torn tail, so appends after either start a line of their own.
func OpenWAL(path string) (*WAL, error) {
	f, err := openAppend(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobstore: open wal: %w", err)
	}
	return &WAL{path: path, f: f, end: st.Size()}, nil
}

// openAppend opens path for writing at explicit offsets; WriteAt is
// refused on an O_APPEND handle.
func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: open wal: %w", err)
	}
	return f, nil
}

// Path returns the WAL's file path.
func (w *WAL) Path() string { return w.path }

// Append marshals v, appends it as one line and syncs the file. After
// Append returns nil, the entry survives kill -9. After it returns an
// error, the entry is not in the log: a write or sync that fails is
// cut back to the previous line's end, so no fragment is left for a
// later entry to be glued onto. If the cut itself fails, the WAL fails
// closed and every later Append returns that error.
func (w *WAL) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jobstore: marshal wal entry: %w", err)
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usable(); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(data, w.end); err != nil {
		return w.undo(fmt.Errorf("jobstore: append wal: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.undo(fmt.Errorf("jobstore: sync wal: %w", err))
	}
	w.end += int64(len(data))
	telemetry.WALAppends.Inc()
	return nil
}

// undo cuts a failed append back to w.end and returns err. If the cut
// does not reach the disk, the log may hold a fragment or an entry
// its caller was told failed, so the WAL closes for good. Callers
// hold w.mu.
func (w *WAL) undo(err error) error {
	cerr := w.f.Truncate(w.end)
	if cerr == nil {
		cerr = w.f.Sync()
	}
	if cerr != nil {
		w.f.Close()
		w.f = nil
		w.broken = fmt.Errorf("jobstore: wal failed closed: cut of a failed append: %v (after %w)", cerr, err)
	}
	return err
}

// Replay reads the log from the start and calls fn with every
// newline-terminated line, in order. Append writes a line and its
// newline in one synced write, so only a crash mid-append leaves an
// unterminated tail; Replay ignores it and cuts it from the file, so
// the next append starts a line of its own instead of extending the
// torn one. Lines are handed on unparsed: fn skips one it cannot
// parse, which is how a tear that kept its newline ends replay too.
// An error from fn aborts the replay and is returned. The lines share
// one buffer; fn must copy what it keeps past the call.
func (w *WAL) Replay(fn func(line []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	lines, err := w.readLines()
	if err != nil {
		return err
	}
	for _, line := range lines {
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// Compact atomically rewrites the log: transform receives every
// newline-terminated line in the log and returns the lines (without
// trailing newlines) the new log should start with. Appends wait only
// while the log is read and while the new one is swapped in, not
// while transform runs and the new log is written: lines appended in
// between are carried over verbatim after transform's output, in
// order, so no entry is lost and each still replays after the state
// transform saw. Compactions run one at a time.
func (w *WAL) Compact(transform func(lines [][]byte) ([][]byte, error)) error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()

	// Appends only ever write at or past w.end, and cuts never go
	// below it, so the bytes read here stay as they are until the swap.
	w.mu.Lock()
	err := w.usable()
	var lines [][]byte
	if err == nil {
		lines, err = w.readLines()
	}
	end := w.end
	w.mu.Unlock()
	if err != nil {
		return err
	}
	out, err := transform(lines)
	if err != nil {
		return err
	}
	size := 0
	for _, line := range out {
		size += len(line) + 1
	}
	buf := make([]byte, 0, size)
	for _, line := range out {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	tmp, err := createTemp(w.path)
	if err != nil {
		return err
	}
	// Sync the bulk now, so the swap below syncs only the carried tail.
	if _, err := tmp.Write(buf); err != nil {
		discard(tmp)
		return fmt.Errorf("jobstore: write %s: %w", w.path, err)
	}
	if err := tmp.Sync(); err != nil {
		discard(tmp)
		return fmt.Errorf("jobstore: sync %s: %w", w.path, err)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usable(); err != nil {
		discard(tmp)
		return err
	}
	tail, err := w.readFrom(end)
	if err != nil {
		discard(tmp)
		return err
	}
	if _, err := tmp.Write(tail); err != nil {
		discard(tmp)
		return fmt.Errorf("jobstore: write %s: %w", w.path, err)
	}
	if err := commitTemp(tmp, w.path); err != nil {
		return err
	}
	// The old handle now points at the unlinked pre-compaction inode;
	// switch appends to the new file.
	old := w.f
	f, err := openAppend(w.path)
	if err != nil {
		// Writes to the unlinked inode would not be durable: fail
		// closed so Append errors instead of lying.
		w.f = nil
		old.Close()
		return fmt.Errorf("jobstore: reopen wal after compaction: %w", err)
	}
	old.Close()
	w.f = f
	w.end = int64(len(buf) + len(tail))
	telemetry.WALCompactions.Inc()
	return nil
}

// usable returns why the WAL cannot be written, or nil. Callers hold
// w.mu.
func (w *WAL) usable() error {
	if w.broken != nil {
		return w.broken
	}
	if w.f == nil {
		return fmt.Errorf("jobstore: wal is closed")
	}
	return nil
}

// readFrom returns the log's bytes from off to w.end. Callers hold
// w.mu.
func (w *WAL) readFrom(off int64) ([]byte, error) {
	if off >= w.end {
		return nil, nil
	}
	f, err := os.Open(w.path)
	if err != nil {
		return nil, fmt.Errorf("jobstore: read wal: %w", err)
	}
	defer f.Close()
	data := make([]byte, w.end-off)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, fmt.Errorf("jobstore: read wal: %w", err)
	}
	return data, nil
}

// Close closes the append handle. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// readLines returns every newline-terminated line, cuts an
// unterminated tail from the file, and moves w.end past the last
// line. Lines have no length cap: one may carry a job's whole result
// payload. Callers hold w.mu.
func (w *WAL) readLines() ([][]byte, error) {
	data, err := os.ReadFile(w.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobstore: read wal: %w", err)
	}
	var lines [][]byte
	off := 0
	for {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			break
		}
		lines = append(lines, data[off:off+n])
		off += n + 1
	}
	if w.f == nil {
		return lines, nil
	}
	if off < len(data) {
		if err := w.f.Truncate(int64(off)); err != nil {
			return nil, fmt.Errorf("jobstore: cut torn wal tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return nil, fmt.Errorf("jobstore: sync wal: %w", err)
		}
	}
	w.end = int64(off)
	return lines, nil
}

// createTemp creates a temporary file beside path, creating the
// directory if it is missing, for commitTemp to rename over path.
func createTemp(path string) (*os.File, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	return tmp, nil
}

// commitTemp makes tmp durable and renames it over path: fsync, close,
// rename, fsync the directory. tmp is removed if it never reaches path.
func commitTemp(tmp *os.File, path string) error {
	name := tmp.Name()
	if err := tmp.Sync(); err != nil {
		discard(tmp)
		return fmt.Errorf("jobstore: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("jobstore: close %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("jobstore: rename %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// discard closes and removes a temporary file that will not be
// committed.
func discard(tmp *os.File) {
	tmp.Close()
	os.Remove(tmp.Name())
}

// syncDir fsyncs a directory, making the creations, renames and
// removals in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("jobstore: sync %s: %w", dir, err)
	}
	return nil
}
