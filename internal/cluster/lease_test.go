package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ddsim/internal/clusterid"
	"ddsim/internal/stochastic"
)

// manualClock is a test clock that only moves when Advance is called.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock(start time.Time) *manualClock { return &manualClock{now: start} }

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// testTable builds a table on a manual clock so expiry is driven by
// Advance, never by wall time.
func testTable(t *testing.T, numChunks, leaseChunks int, ttl time.Duration) (*table, *manualClock) {
	t.Helper()
	clk := newManualClock(time.Unix(0, 0))
	gen, err := clusterid.NewWithClock(1, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	return newTable(numChunks, leaseChunks, ttl, clk.Now, gen), clk
}

func dummySums(first, count int) []stochastic.ChunkSum {
	out := make([]stochastic.ChunkSum, count)
	for i := range out {
		out[i] = stochastic.ChunkSum{Chunk: first + i, Runs: 1}
	}
	return out
}

func TestTablePartition(t *testing.T) {
	tb, _ := testTable(t, 10, 4, time.Second)
	if len(tb.parts) != 3 {
		t.Fatalf("10 chunks by 4 = %d parts, want 3", len(tb.parts))
	}
	if p := tb.parts[2]; p.first != 8 || p.count != 2 {
		t.Errorf("last part = %+v, want first 8 count 2", p)
	}
	if done, total := tb.Progress(); done != 0 || total != 10 {
		t.Errorf("progress = %d/%d, want 0/10", done, total)
	}
}

func TestTableLeaseLifecycle(t *testing.T) {
	tb, _ := testTable(t, 8, 4, time.Second)
	l1, ok := tb.Acquire("w1")
	if !ok || l1.First != 0 || l1.Count != 4 {
		t.Fatalf("first acquire = %+v ok=%v", l1, ok)
	}
	l2, ok := tb.Acquire("w2")
	if !ok || l2.First != 4 {
		t.Fatalf("second acquire = %+v ok=%v", l2, ok)
	}
	if l2.ID <= l1.ID {
		t.Errorf("fence tokens not monotonic: %v then %v", l1.ID, l2.ID)
	}
	if _, ok := tb.Acquire("w3"); ok {
		t.Error("third acquire succeeded with every part leased")
	}
	if _, err := tb.Renew(l1); err != nil {
		t.Errorf("renew live lease: %v", err)
	}
	if err := tb.Complete(l1, dummySums(0, 4)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := tb.Complete(l1, dummySums(0, 4)); !errors.Is(err, ErrDone) {
		t.Errorf("duplicate complete = %v, want ErrDone", err)
	}
	if _, err := tb.Renew(l1); !errors.Is(err, ErrDone) {
		t.Errorf("renew after done = %v, want ErrDone", err)
	}
	if tb.Done() {
		t.Error("done with one part outstanding")
	}
	if err := tb.Complete(l2, dummySums(4, 4)); err != nil {
		t.Fatal(err)
	}
	if !tb.Done() {
		t.Error("not done with every part completed")
	}
	sums, err := tb.Sums()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s.Chunk != i {
			t.Fatalf("sums[%d].Chunk = %d: not in chunk order", i, s.Chunk)
		}
	}
}

// TestTableExpiryFencing is the dlock state machine under clock
// advance: an expired lease is reclaimed with a newer fence, the old
// token can neither renew nor complete, and the chunk is counted
// exactly once.
func TestTableExpiryFencing(t *testing.T) {
	tb, w := testTable(t, 4, 4, time.Second)
	l1, ok := tb.Acquire("w1")
	if !ok {
		t.Fatal("acquire failed")
	}
	// Not yet expired: nothing to reclaim.
	w.Advance(500 * time.Millisecond)
	if _, ok := tb.Acquire("w2"); ok {
		t.Fatal("reclaimed a live lease")
	}
	// A renewal pushes the deadline out; the part stays unreclaimable
	// one full TTL later.
	if _, err := tb.Renew(l1); err != nil {
		t.Fatal(err)
	}
	w.Advance(900 * time.Millisecond)
	if _, ok := tb.Acquire("w2"); ok {
		t.Fatal("reclaimed a renewed lease before its deadline")
	}
	// Past the renewed deadline: reclaim mints a newer fence.
	w.Advance(200 * time.Millisecond)
	l2, ok := tb.Acquire("w2")
	if !ok {
		t.Fatal("expired lease not reclaimed")
	}
	if l2.Part != l1.Part || l2.ID <= l1.ID {
		t.Fatalf("reclaim lease %+v does not fence %+v", l2, l1)
	}
	// The old token is dead for every verb.
	if _, err := tb.Renew(l1); !errors.Is(err, ErrFenced) {
		t.Errorf("renew with stale token = %v, want ErrFenced", err)
	}
	if err := tb.Complete(l1, dummySums(0, 4)); !errors.Is(err, ErrFenced) {
		t.Errorf("complete with stale token = %v, want ErrFenced", err)
	}
	// The current token completes; the part is counted exactly once.
	if err := tb.Complete(l2, dummySums(0, 4)); err != nil {
		t.Fatal(err)
	}
	if done, total := tb.Progress(); done != 4 || total != 4 {
		t.Errorf("progress = %d/%d, want 4/4", done, total)
	}
	// And the stale token keeps bouncing even after completion.
	if err := tb.Complete(l1, dummySums(0, 4)); !errors.Is(err, ErrDone) {
		t.Errorf("stale complete after done = %v, want ErrDone", err)
	}
}

// A completion bearing the *current* token lands even past the
// deadline: expiry gates reclaim, not truth.
func TestTableLateCompletionWithCurrentToken(t *testing.T) {
	tb, w := testTable(t, 2, 2, time.Second)
	l, _ := tb.Acquire("w1")
	w.Advance(5 * time.Second)
	if err := tb.Complete(l, dummySums(0, 2)); err != nil {
		t.Fatalf("late completion with current token rejected: %v", err)
	}
}

func TestTableReleaseAndMalformedSums(t *testing.T) {
	tb, _ := testTable(t, 4, 2, time.Second)
	l, _ := tb.Acquire("w1")
	if err := tb.Complete(l, dummySums(0, 1)); err == nil {
		t.Error("short completion accepted")
	}
	if err := tb.Complete(l, dummySums(1, 2)); err == nil {
		t.Error("misaligned completion accepted")
	}
	if err := tb.Release(l); err != nil {
		t.Fatal(err)
	}
	if err := tb.Release(l); !errors.Is(err, ErrFenced) {
		t.Errorf("double release = %v, want ErrFenced", err)
	}
	l2, ok := tb.Acquire("w2")
	if !ok || l2.Part != 0 || l2.ID <= l.ID {
		t.Fatalf("re-acquire after release = %+v ok=%v", l2, ok)
	}
}

func TestTableRestore(t *testing.T) {
	tb, _ := testTable(t, 6, 2, time.Second)
	if err := tb.restore(1, dummySums(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tb.restore(1, dummySums(2, 2)); err != nil {
		t.Errorf("idempotent restore errored: %v", err)
	}
	if err := tb.restore(5, nil); err == nil {
		t.Error("restore outside table accepted")
	}
	if err := tb.restore(0, dummySums(0, 1)); err == nil {
		t.Error("restore with short sums accepted")
	}
	// A restored part is never leased out again.
	seen := map[int]bool{}
	for {
		l, ok := tb.Acquire("w")
		if !ok {
			break
		}
		seen[l.Part] = true
	}
	if seen[1] {
		t.Error("restored part was leased")
	}
	if len(seen) != 2 {
		t.Errorf("leased %d parts, want the 2 unrestored ones", len(seen))
	}
}
