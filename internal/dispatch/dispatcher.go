package dispatch

import (
	"container/heap"
	"context"
	"sync/atomic"
	"time"
)

// Ticket states. A ticket moves waiting→granted (consumer won) or
// waiting→abandoned (canceller won); the CAS decides races between a
// grant and a cancellation exactly once.
const (
	ticketWaiting int32 = iota
	ticketGranted
	ticketAbandoned
)

// Ticket is one submission waiting for an execution slot.
type Ticket struct {
	// Priority orders grants (higher first); Seq breaks ties (lower —
	// older — first).
	Priority int
	Seq      int64

	state atomic.Int32
	ready chan struct{}
	index int // heap position, maintained by ticketHeap
}

// Ready is closed when the ticket has been granted a slot.
func (t *Ticket) Ready() <-chan struct{} { return t.ready }

// Dispatcher grants a fixed number of concurrently-held execution
// slots to submitted tickets in (priority desc, seq asc) order.
// Submissions travel through a lock-free MPSC ring to a single
// consumer goroutine that owns the priority heap, so the submit path
// takes no lock anywhere.
type Dispatcher struct {
	ring     *Ring[*Ticket]
	releases chan struct{}
	stop     chan struct{}
	stopped  chan struct{}

	waiting atomic.Int64 // tickets in ring+heap, for observability
	granted atomic.Int64 // slots handed out since creation

	slots int
}

// NewDispatcher creates a dispatcher with the given number of
// execution slots (minimum 1) and ring capacity (rounded up to a
// power of two; sized so it exceeds the maximum number of submissions
// that can be in flight at once — the service's admission bound).
// Call Stop to terminate its consumer goroutine.
func NewDispatcher(slots, ringCap int) *Dispatcher {
	if slots < 1 {
		slots = 1
	}
	d := &Dispatcher{
		ring:     NewRing[*Ticket](ringCap),
		releases: make(chan struct{}, slots),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
		slots:    slots,
	}
	go d.consume()
	return d
}

// Slots returns the number of concurrently grantable slots.
func (d *Dispatcher) Slots() int { return d.slots }

// Waiting returns the number of tickets submitted but not yet granted
// or abandoned (includes tickets still in the ring).
func (d *Dispatcher) Waiting() int64 { return d.waiting.Load() }

// Granted returns the total number of slots granted since creation.
func (d *Dispatcher) Granted() int64 { return d.granted.Load() }

// Stop terminates the consumer goroutine. Tickets not yet granted
// will never be granted; their waiters must be released by their own
// context cancellation (the service cancels every job context on
// shutdown).
func (d *Dispatcher) Stop() {
	close(d.stop)
	<-d.stopped
}

// Submit enqueues a ticket for one slot. The publish is lock-free;
// when the ring is momentarily full (the consumer drains it
// continuously, so this only happens when submissions outrun the
// consumer's ability to pop them into the heap) Submit backs off in
// 50µs steps until space frees or ctx is done.
func (d *Dispatcher) Submit(ctx context.Context, priority int, seq int64) (*Ticket, error) {
	t := &Ticket{Priority: priority, Seq: seq, ready: make(chan struct{})}
	// Counted before publishing: once published the ticket can be
	// granted, and the grant's decrement must never precede this
	// increment (Waiting would dip below the true count).
	d.waiting.Add(1)
	for !d.ring.TryPublish(t) {
		select {
		case <-ctx.Done():
			d.waiting.Add(-1)
			return nil, ctx.Err()
		case <-time.After(50 * time.Microsecond):
		}
	}
	return t, nil
}

// Wait blocks until the ticket is granted a slot (nil) or ctx is done
// (ctx.Err()). On nil the caller owns one slot and must Release it.
// On error the caller owns nothing: a grant that raced the
// cancellation is detected and the slot is handed straight back.
func (d *Dispatcher) Wait(ctx context.Context, t *Ticket) error {
	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
		if !t.state.CompareAndSwap(ticketWaiting, ticketAbandoned) {
			// The consumer granted concurrently: the slot is ours to
			// give back.
			<-t.ready
			d.Release()
		} else {
			d.waiting.Add(-1)
		}
		return ctx.Err()
	}
}

// Release returns a slot to the pool, waking the best waiter. Must be
// called exactly once per successful Wait.
func (d *Dispatcher) Release() {
	select {
	case d.releases <- struct{}{}:
	case <-d.stop:
	}
}

// consume is the single consumer: it drains the ring into a private
// priority heap (no lock — single writer) and grants free slots to
// the best waiters.
func (d *Dispatcher) consume() {
	defer close(d.stopped)
	free := d.slots
	var waiters ticketHeap
	for {
		for {
			t, ok := d.ring.Poll()
			if !ok {
				break
			}
			heap.Push(&waiters, t)
		}
		for free > 0 && waiters.Len() > 0 {
			t := heap.Pop(&waiters).(*Ticket)
			if t.state.CompareAndSwap(ticketWaiting, ticketGranted) {
				free--
				// Counters first: a waiter woken by the close must
				// already read its own grant in Granted and Waiting.
				d.granted.Add(1)
				d.waiting.Add(-1)
				close(t.ready)
			}
			// else: abandoned while queued; the canceller already
			// decremented waiting.
		}
		select {
		case <-d.ring.Wake():
		case <-d.releases:
			free++
		case <-d.stop:
			return
		}
	}
}

// ticketHeap orders tickets by descending priority, then ascending
// submission sequence (older first).
type ticketHeap []*Ticket

func (h ticketHeap) Len() int { return len(h) }

func (h ticketHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].Seq < h[j].Seq
}

func (h ticketHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *ticketHeap) Push(x any) {
	t := x.(*Ticket)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *ticketHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
