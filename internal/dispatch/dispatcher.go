// Package dispatch grants the ddsimd service's execution slots: a
// fixed number of slots, handed to waiting jobs in (priority desc,
// submission order asc) order. One mutex guards the free-slot count
// and the waiters' heap; a grant happens inside Acquire or Release,
// under that mutex, so there is no goroutine to start or stop.
package dispatch

import (
	"container/heap"
	"context"
	"sync"
)

// Dispatcher grants a fixed number of concurrently held execution
// slots. The zero value is not usable; call NewDispatcher.
type Dispatcher struct {
	mu      sync.Mutex
	free    int        // slots not held by anyone
	waiters waiterHeap // blocked Acquire calls, best first
	granted int64      // slots granted since creation
}

// waiter is one Acquire blocked on a slot.
type waiter struct {
	priority int
	seq      int64
	index    int           // heap position; -1 once granted
	ready    chan struct{} // closed on grant
}

// NewDispatcher creates a dispatcher with the given number of
// execution slots (minimum 1).
func NewDispatcher(slots int) *Dispatcher {
	return &Dispatcher{free: max(slots, 1)}
}

// Waiting returns the number of Acquire calls blocked on a slot.
func (d *Dispatcher) Waiting() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.waiters.Len())
}

// Granted returns the total number of slots granted since creation.
func (d *Dispatcher) Granted() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.granted
}

// Acquire blocks until the caller is granted a slot (nil) or ctx is
// done (ctx.Err()). Higher priority is granted first; among equal
// priorities, lower seq (older) first. On nil the caller owns one slot
// and must Release it; on error it owns nothing.
func (d *Dispatcher) Acquire(ctx context.Context, priority int, seq int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	if d.free > 0 && d.waiters.Len() == 0 {
		d.free--
		d.granted++
		d.mu.Unlock()
		return nil
	}
	w := &waiter{priority: priority, seq: seq, ready: make(chan struct{})}
	heap.Push(&d.waiters, w)
	d.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if w.index < 0 {
		// Granted while the cancellation was in flight: the slot is
		// ours to hand on.
		d.free++
		d.grantLocked()
	} else {
		heap.Remove(&d.waiters, w.index)
	}
	return ctx.Err()
}

// Release returns a slot, granting it to the best waiter if there is
// one. Call exactly once per successful Acquire.
func (d *Dispatcher) Release() {
	d.mu.Lock()
	d.free++
	d.grantLocked()
	d.mu.Unlock()
}

// grantLocked hands free slots to the best waiters. The counters move
// before the waiter is woken, so a woken waiter already reads its own
// grant in Granted and Waiting.
func (d *Dispatcher) grantLocked() {
	for d.free > 0 && d.waiters.Len() > 0 {
		w := heap.Pop(&d.waiters).(*waiter)
		d.free--
		d.granted++
		close(w.ready)
	}
}

// waiterHeap orders waiters by descending priority, then ascending
// submission sequence (older first).
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }

func (h waiterHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}

func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}

func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}
