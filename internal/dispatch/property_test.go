// Property/invariant tests for the dispatcher, in the style of
// internal/dd/property_test.go: generate adversarial concurrent
// schedules and assert the structural invariants — slot conservation,
// counters that never lag a grant, priority order, and no slot lost to
// a cancellation racing a grant — all meaningful only under -race (the
// CI test job runs them so).
package dispatch

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// producerCounts mirrors the repo's determinism matrix: 1, 4 and
// GOMAXPROCS producers.
func producerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestDispatcherConservation drives P producers × jobs through the
// full acquire/release cycle with random priorities and asserts slot
// conservation: every acquisition granted exactly once, never more
// than `slots` held at a time, and a drained dispatcher at the end.
func TestDispatcherConservation(t *testing.T) {
	const perProducer = 200
	for _, producers := range producerCounts() {
		for _, slots := range []int{1, 3} {
			t.Run(fmt.Sprintf("producers=%d/slots=%d", producers, slots), func(t *testing.T) {
				d := NewDispatcher(slots)
				var held, maxHeld, grants atomic.Int64
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(p)))
						for i := 0; i < perProducer; i++ {
							if err := d.Acquire(context.Background(), rng.Intn(7)-3, int64(p*perProducer+i)); err != nil {
								t.Errorf("acquire: %v", err)
								return
							}
							h := held.Add(1)
							for {
								m := maxHeld.Load()
								if h <= m || maxHeld.CompareAndSwap(m, h) {
									break
								}
							}
							grants.Add(1)
							held.Add(-1)
							d.Release()
						}
					}(p)
				}
				wg.Wait()
				want := int64(producers * perProducer)
				if g := grants.Load(); g != want {
					t.Fatalf("granted %d acquisitions, want %d", g, want)
				}
				if m := maxHeld.Load(); m > int64(slots) {
					t.Fatalf("%d slots held concurrently, limit %d", m, slots)
				}
				if w := d.Waiting(); w != 0 {
					t.Fatalf("%d acquisitions still waiting after drain", w)
				}
				if g := d.Granted(); g != want {
					t.Fatalf("dispatcher counted %d grants, want %d", g, want)
				}
			})
		}
	}
}

// TestDispatcherCountsBeforeGrant checks that the counters feeding
// the service's gauges and status view never lag a grant: the moment a
// waiter wakes, Granted already includes its grant and Waiting no
// longer includes it. A second goroutine holds the slot on every other
// cycle, so half the grants go through the wake path, not the fast one.
func TestDispatcherCountsBeforeGrant(t *testing.T) {
	d := NewDispatcher(1)
	for i := int64(0); i < 5000; i += 2 {
		if err := d.Acquire(context.Background(), 0, i); err != nil {
			t.Fatal(err)
		}
		woken := make(chan error, 1)
		go func() { woken <- d.Acquire(context.Background(), 0, i+1) }()
		waitFor(t, "the second acquisition queued", func() bool { return d.Waiting() == 1 })
		d.Release()
		if err := <-woken; err != nil {
			t.Fatal(err)
		}
		if g, w := d.Granted(), d.Waiting(); g != i+2 || w != 0 {
			t.Fatalf("cycle %d: woken waiter reads Granted %d, Waiting %d; want %d, 0", i, g, w, i+2)
		}
		d.Release()
	}
}

// TestDispatcherPriorityOrder holds the single slot, queues waiters
// with known priorities, then releases one slot at a time: grants
// must come back in (priority desc, seq asc) order — including the
// FIFO tiebreak among equal priorities.
func TestDispatcherPriorityOrder(t *testing.T) {
	d := NewDispatcher(1)
	if err := d.Acquire(context.Background(), 1000, 0); err != nil {
		t.Fatal(err)
	}

	//                    seq:  1   2  3   4  5  6
	priorities := []int{0, 5, -2, 5, 0, 3}
	wantOrder := []int64{2, 4, 6, 1, 5, 3} // 5,5,3,0,0,-2 with seq tiebreaks
	grants := make(chan int64, len(priorities))
	var wg sync.WaitGroup
	for i, pr := range priorities {
		seq := int64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Acquire(context.Background(), pr, seq); err != nil {
				t.Errorf("acquire seq %d: %v", seq, err)
				return
			}
			// One slot ⇒ grants are serialised through Release, so the
			// buffered sends below arrive in grant order.
			grants <- seq
			d.Release()
		}()
	}
	waitFor(t, "all six acquisitions queued", func() bool { return d.Waiting() == int64(len(priorities)) })
	var got []int64
	d.Release() // release the holder's slot
	for range priorities {
		select {
		case seq := <-grants:
			got = append(got, seq)
		case <-time.After(5 * time.Second):
			t.Fatalf("grant order so far %v: next grant never arrived", got)
		}
	}
	for i, want := range wantOrder {
		if got[i] != want {
			t.Fatalf("grant order %v, want %v", got, wantOrder)
		}
	}
	wg.Wait()
}

// TestDispatcherCancelWhileQueued cancels a queued waiter and proves
// the slot accounting survives: the cancelled acquisition is never
// granted, and the next one still gets the slot. An acquisition whose
// context is already done is refused even while a slot is free.
func TestDispatcherCancelWhileQueued(t *testing.T) {
	d := NewDispatcher(1)
	if err := d.Acquire(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- d.Acquire(ctx, 10, 2) }()
	waitFor(t, "the acquisition queued", func() bool { return d.Waiting() == 1 })
	cancel()
	if err := <-queued; err != context.Canceled {
		t.Fatalf("Acquire on a cancelled context = %v, want context.Canceled", err)
	}
	if w := d.Waiting(); w != 0 {
		t.Fatalf("%d waiting after the cancellation, want 0", w)
	}

	after := make(chan error, 1)
	go func() { after <- d.Acquire(context.Background(), 0, 3) }()
	waitFor(t, "the next acquisition queued", func() bool { return d.Waiting() == 1 })
	d.Release()
	if err := <-after; err != nil {
		t.Fatalf("acquisition after a cancellation never granted: %v", err)
	}
	d.Release()
	if err := d.Acquire(ctx, 0, 4); err != context.Canceled {
		t.Fatalf("Acquire with a done context on a free slot = %v, want context.Canceled", err)
	}
	if g, w := d.Granted(), d.Waiting(); g != 2 || w != 0 {
		t.Fatalf("after drain: Granted %d, Waiting %d; want 2, 0 (the cancelled acquisitions were granted)", g, w)
	}
}

// TestDispatcherCancelGrantRace hammers the grant/cancel race: many
// waiters whose contexts are cancelled at random around the moment
// the slot frees, first one queued waiter at a time (the cancel and
// the release land together, so some grants reach a waiter that has
// already seen its cancellation and must hand the slot on), then all
// at once. Whatever the interleaving, the slot must be conserved —
// proven by a sentinel acquisition that must still be granted after
// the storm.
func TestDispatcherCancelGrantRace(t *testing.T) {
	d := NewDispatcher(1)
	const rounds = 300
	for i := 0; i < rounds; i++ {
		if err := d.Acquire(context.Background(), 0, int64(i)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- d.Acquire(ctx, 0, int64(i)) }()
		waitFor(t, "the acquisition queued", func() bool { return d.Waiting() == 1 })
		cancel()
		d.Release()
		if err := <-done; err == nil {
			d.Release()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(2)
		go func() {
			defer wg.Done()
			runtime.Gosched()
			cancel()
		}()
		go func() {
			defer wg.Done()
			if err := d.Acquire(ctx, i%5, int64(i)); err == nil {
				d.Release()
			}
		}()
	}
	wg.Wait()
	if w := d.Waiting(); w != 0 {
		t.Fatalf("%d waiting after the storm, want 0", w)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Acquire(waitCtx, -100, 1<<40); err != nil {
		t.Fatalf("slot leaked: sentinel never granted (%v)", err)
	}
	d.Release()
}

// waitFor polls cond for up to 10s and fails the test with what it
// was waiting for if cond never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}
