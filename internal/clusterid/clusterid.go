// Package clusterid generates snowflake-style cluster-unique 64-bit
// IDs for leases, chunks, and jobs in the distributed coordinator.
//
// Layout (63 usable bits, sign bit always zero):
//
//	| 41 bits millisecond timestamp | 10 bits node | 12 bits sequence |
//
// The timestamp counts milliseconds since a fixed custom epoch, giving
// ~69 years of range; 10 node bits allow 1024 coordinators/workers to
// mint IDs concurrently without coordination; 12 sequence bits allow
// 4096 IDs per node per millisecond. IDs minted by one generator are
// strictly monotonic, which the cluster lease table relies on for
// fencing: a newer lease always carries a numerically larger token.
//
// The clock is injectable so tests (and a coordinator running on a
// manual test clock) stay deterministic. When a node mints
// more than 4096 IDs within one millisecond the generator borrows from
// the future — it advances its internal timestamp by one millisecond
// instead of sleeping — preserving monotonicity without blocking.
// Backwards clock jumps are absorbed the same way: the internal
// timestamp never decreases.
package clusterid

import (
	"fmt"
	"sync"
	"time"
)

const (
	timestampBits = 41
	nodeBits      = 10
	sequenceBits  = 12

	// MaxNode is the largest valid node ID (inclusive).
	MaxNode = 1<<nodeBits - 1

	sequenceMask = 1<<sequenceBits - 1
	maxTimestamp = 1<<timestampBits - 1
)

// Epoch is the custom epoch IDs count from: 2021-02-01 UTC, the month
// the source paper appeared at DATE 2021.
var Epoch = time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)

// ID is a cluster-unique 64-bit identifier. The zero value is never
// minted, so 0 can mean "no ID" (e.g. an unleased chunk).
type ID uint64

// Time returns the millisecond timestamp embedded in the ID, as a
// time.Time in UTC.
func (id ID) Time() time.Time {
	ms := int64(id >> (nodeBits + sequenceBits) & maxTimestamp)
	return Epoch.Add(time.Duration(ms) * time.Millisecond).UTC()
}

// Node returns the node ID embedded in the ID.
func (id ID) Node() int { return int(id >> sequenceBits & MaxNode) }

// Seq returns the intra-millisecond sequence number embedded in the ID.
func (id ID) Seq() int { return int(id & sequenceMask) }

func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Generator mints monotonically increasing IDs for one node. It is
// safe for concurrent use.
type Generator struct {
	mu   sync.Mutex
	now  func() time.Time
	node uint64
	last uint64 // last embedded timestamp (ms since Epoch)
	seq  uint64
}

// New returns a generator for the given node ID using the real clock.
func New(node int) (*Generator, error) { return NewWithClock(node, time.Now) }

// NewWithClock returns a generator with an injectable clock; the
// coordinator passes its own clock so IDs stay deterministic under a
// manual test clock.
func NewWithClock(node int, now func() time.Time) (*Generator, error) {
	if node < 0 || node > MaxNode {
		return nil, fmt.Errorf("clusterid: node %d outside [0,%d]", node, MaxNode)
	}
	if now == nil {
		now = time.Now
	}
	return &Generator{now: now, node: uint64(node)}, nil
}

// Next mints the next ID. It never blocks and never returns a value
// less than or equal to a previously minted one.
func (g *Generator) Next() ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	ts := uint64(0)
	if ms := g.now().Sub(Epoch).Milliseconds(); ms > 0 {
		ts = uint64(ms) & maxTimestamp
	}
	if ts < g.last {
		ts = g.last // clock went backwards: hold the line
	}
	if ts == g.last {
		g.seq = (g.seq + 1) & sequenceMask
		if g.seq == 0 {
			// Sequence exhausted this millisecond: borrow from the
			// future instead of sleeping.
			ts++
		}
	} else {
		g.seq = 0
	}
	g.last = ts
	return ID(ts<<(nodeBits+sequenceBits) | g.node<<sequenceBits | g.seq)
}
