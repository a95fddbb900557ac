// Property/invariant tests for the dispatch plane, in the style of
// internal/dd/property_test.go: generate adversarial concurrent
// schedules and assert the structural invariants — no submission lost
// or duplicated, per-producer FIFO through the ring, priority order
// at the consumer, and slot conservation under cancellation races —
// all meaningful only under -race (the CI test job runs them so).
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

// item tags a publication with its producer and per-producer sequence
// so the consumer can check loss, duplication and FIFO in one pass.
type item struct {
	producer int
	seq      int
}

// TestRingNoLossNoDupFIFO publishes from P concurrent producers
// through rings small enough to wrap around thousands of times and
// asserts every item arrives exactly once and in per-producer order.
func TestRingNoLossNoDupFIFO(t *testing.T) {
	const perProducer = 5000
	for _, producers := range producerCounts() {
		for _, ringCap := range []int{2, 8, 64} {
			name := fmt.Sprintf("producers=%d/cap=%d", producers, ringCap)
			t.Run(name, func(t *testing.T) {
				r := NewRing[item](ringCap)
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for i := 0; i < perProducer; i++ {
							for !r.TryPublish(item{p, i}) {
								runtime.Gosched() // ring full: wait for the consumer
							}
						}
					}(p)
				}

				total := producers * perProducer
				lastSeq := make([]int, producers)
				for i := range lastSeq {
					lastSeq[i] = -1
				}
				received := 0
				for received < total {
					v, ok := r.Poll()
					if !ok {
						select {
						case <-r.Wake():
						case <-time.After(5 * time.Second):
							t.Fatalf("consumer stalled at %d/%d items", received, total)
						}
						continue
					}
					if v.producer < 0 || v.producer >= producers {
						t.Fatalf("corrupt item: %+v", v)
					}
					if v.seq != lastSeq[v.producer]+1 {
						t.Fatalf("producer %d: received seq %d after %d (FIFO violated or item lost/duplicated)",
							v.producer, v.seq, lastSeq[v.producer])
					}
					lastSeq[v.producer] = v.seq
					received++
				}
				if v, ok := r.Poll(); ok {
					t.Fatalf("ring held an extra item after all %d were consumed: %+v", total, v)
				}
				wg.Wait()
			})
		}
	}
}

// TestRingFull pins the backpressure signal: a ring at capacity
// refuses the next publish, and one Poll reopens exactly one slot.
func TestRingFull(t *testing.T) {
	r := NewRing[int](4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	for i := 0; i < 4; i++ {
		if !r.TryPublish(i) {
			t.Fatalf("publish %d refused below capacity", i)
		}
	}
	if r.TryPublish(99) {
		t.Fatal("publish accepted on a full ring")
	}
	if v, ok := r.Poll(); !ok || v != 0 {
		t.Fatalf("Poll = %d,%v, want 0,true", v, ok)
	}
	if !r.TryPublish(4) {
		t.Fatal("publish refused after a Poll freed a slot")
	}
}

// TestDispatcherConservation drives P producers × jobs through the
// full submit/wait/release cycle with random priorities and asserts
// slot conservation: every ticket granted exactly once, never more
// than `slots` held at a time, and a drained dispatcher at the end.
func TestDispatcherConservation(t *testing.T) {
	const perProducer = 200
	for _, producers := range producerCounts() {
		for _, slots := range []int{1, 3} {
			t.Run(fmt.Sprintf("producers=%d/slots=%d", producers, slots), func(t *testing.T) {
				d := NewDispatcher(slots, 8) // tiny ring: force wrap + backoff
				defer d.Stop()
				var held, maxHeld, grants atomic.Int64
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(p)))
						for i := 0; i < perProducer; i++ {
							tk, err := d.Submit(context.Background(), rng.Intn(7)-3, int64(p*perProducer+i))
							if err != nil {
								t.Errorf("submit: %v", err)
								return
							}
							if err := d.Wait(context.Background(), tk); err != nil {
								t.Errorf("wait: %v", err)
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
					t.Fatalf("granted %d tickets, want %d", g, want)
				}
				if m := maxHeld.Load(); m > int64(slots) {
					t.Fatalf("%d slots held concurrently, limit %d", m, slots)
				}
				if w := d.Waiting(); w != 0 {
					t.Fatalf("%d tickets still waiting after drain", w)
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
// longer includes its ticket.
func TestDispatcherCountsBeforeGrant(t *testing.T) {
	d := NewDispatcher(1, 8)
	defer d.Stop()
	for i := int64(0); i < 5000; i++ {
		tk, err := d.Submit(context.Background(), 0, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Wait(context.Background(), tk); err != nil {
			t.Fatal(err)
		}
		if g, w := d.Granted(), d.Waiting(); g != i+1 || w != 0 {
			t.Fatalf("cycle %d: woken waiter reads Granted %d, Waiting %d; want %d, 0", i, g, w, i+1)
		}
		d.Release()
	}
}

// TestDispatcherPriorityOrder holds the single slot, queues waiters
// with known priorities, then releases one slot at a time: grants
// must come back in (priority desc, seq asc) order — including the
// FIFO tiebreak among equal priorities.
func TestDispatcherPriorityOrder(t *testing.T) {
	d := NewDispatcher(1, 64)
	defer d.Stop()

	holder, err := d.Submit(context.Background(), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(context.Background(), holder); err != nil {
		t.Fatal(err)
	}

	//                    seq:  1   2  3   4  5  6
	priorities := []int{0, 5, -2, 5, 0, 3}
	wantOrder := []int64{2, 4, 6, 1, 5, 3} // 5,5,3,0,0,-2 with seq tiebreaks
	grants := make(chan int64, len(priorities))
	var wg sync.WaitGroup
	for i, pr := range priorities {
		seq := int64(i + 1)
		tk, err := d.Submit(context.Background(), pr, seq)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(tk *Ticket, seq int64) {
			defer wg.Done()
			if err := d.Wait(context.Background(), tk); err != nil {
				t.Errorf("wait seq %d: %v", seq, err)
				return
			}
			// One slot ⇒ grants are serialised through Release, so the
			// buffered sends below arrive in grant order.
			grants <- seq
			d.Release()
		}(tk, seq)
	}
	// All six tickets are published (Submit returned), so the consumer
	// sees the full set before the first release below reaches it:
	// each grant decision drains the ring before popping the heap.
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
// the slot accounting survives: the cancelled ticket is never
// granted, and the next submission still gets the slot.
func TestDispatcherCancelWhileQueued(t *testing.T) {
	d := NewDispatcher(1, 8)
	defer d.Stop()

	holder, _ := d.Submit(context.Background(), 0, 1)
	if err := d.Wait(context.Background(), holder); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queued, _ := d.Submit(ctx, 10, 2)
	cancel()
	if err := d.Wait(ctx, queued); err != context.Canceled {
		t.Fatalf("Wait on cancelled ticket = %v, want context.Canceled", err)
	}

	after, _ := d.Submit(context.Background(), 0, 3)
	d.Release()
	if err := d.Wait(context.Background(), after); err != nil {
		t.Fatalf("ticket after a cancellation never granted: %v", err)
	}
	d.Release()
	select {
	case <-queued.Ready():
		t.Fatal("cancelled ticket was granted")
	default:
	}
	if w := d.Waiting(); w != 0 {
		t.Fatalf("%d waiting after drain, want 0", w)
	}
}

// TestDispatcherCancelGrantRace hammers the grant/cancel race: many
// waiters whose contexts are cancelled at random around the moment
// the slot frees. Whatever the interleaving, the slot must be
// conserved — proven by a sentinel submission that must still be
// granted after the storm.
func TestDispatcherCancelGrantRace(t *testing.T) {
	d := NewDispatcher(1, 256)
	defer d.Stop()
	const rounds = 300
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		tk, err := d.Submit(ctx, i%5, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			runtime.Gosched()
			cancel()
		}()
		go func() {
			defer wg.Done()
			if err := d.Wait(ctx, tk); err == nil {
				d.Release()
			}
		}()
	}
	wg.Wait()
	sentinel, err := d.Submit(context.Background(), -100, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Wait(waitCtx, sentinel); err != nil {
		t.Fatalf("slot leaked: sentinel never granted (%v)", err)
	}
	d.Release()
}
