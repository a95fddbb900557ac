package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ddsim/internal/stochastic"
	"ddsim/internal/telemetry"
)

// The lease table is the coordinator's exactly-once ledger: the job's
// chunk space is split into the parts of its stochastic.ChunkPlan, and
// every part walks the dlock-style state machine
//
//	pending ──Acquire──▶ leased ──Complete──▶ done
//	   ▲                    │
//	   └────Release──────────┘        (expiry: reclaimed by a later
//	                                   Acquire, which mints a new fence)
//
// Each Acquire mints a fresh fencing token from one process-wide
// counter, so tokens strictly increase in mint order. Complete and Renew
// succeed only while their token is the part's *current* lease; after
// a reclaim the old token can never be current again, so a stale
// worker's sums (or a duplicate delivery) are rejected no matter when
// they arrive. Expiry gates only reclaim eligibility: a completion
// bearing the current token is accepted even past its deadline,
// because with no newer lease outstanding the sums are the
// deterministic truth for those chunks.

var (
	// ErrFenced rejects an operation whose lease token is not the
	// part's current lease (expired and reclaimed, or never granted).
	ErrFenced = errors.New("cluster: lease fenced (stale or unknown token)")
	// ErrDone rejects an operation on a part that already completed.
	ErrDone = errors.New("cluster: part already completed")
)

// Token is a lease's fencing token. The zero value is never minted,
// so 0 can mean "no lease"; on the wire a token is 16 hex digits.
type Token uint64

func (t Token) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// lastToken is the most recently minted token. It starts at the wall
// clock in nanoseconds, so a restarted coordinator mints above every
// token of its previous incarnation (unless that one averaged more
// than one mint per nanosecond), and a token a worker sees names one
// lease only.
var lastToken atomic.Uint64

func init() { lastToken.Store(uint64(time.Now().UnixNano())) }

// mintToken returns a token above every token minted before it.
func mintToken() Token { return Token(lastToken.Add(1)) }

// Lease is one granted work assignment.
type Lease struct {
	// ID is the fencing token.
	ID Token
	// Part is the part index within the table.
	Part int
	// First and Count delimit the chunk range [First, First+Count).
	First, Count int
	// Expires is the deadline on the coordinator's clock after which
	// the part may be reclaimed.
	Expires time.Time
}

type partState int

const (
	partPending partState = iota
	partLeased
	partDone
)

type part struct {
	first, count int
	state        partState
	lease        Token  // current fence; 0 before the first grant
	holder       string // worker URL, diagnostics only
	granted      time.Time
	expires      time.Time
	sums         []stochastic.ChunkSum
}

// table is the coordinator's in-memory lease state for one job. Safe
// for concurrent use by the per-worker drivers.
type table struct {
	mu    sync.Mutex
	now   func() time.Time
	ttl   time.Duration
	parts []part
	done  int // parts completed
}

// newTable makes one part per part of the job's plan.
func newTable(plan stochastic.ChunkPlan, ttl time.Duration, now func() time.Time) *table {
	t := &table{now: now, ttl: ttl, parts: make([]part, plan.NumParts())}
	for i := range t.parts {
		t.parts[i].first, t.parts[i].count = plan.Part(i)
	}
	return t
}

// restore marks a part done with the given sums, without a lease —
// used when replaying the journal on coordinator restart. Duplicate
// restores of the same part are idempotent.
func (t *table) restore(idx int, sums []stochastic.ChunkSum) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.parts) {
		return fmt.Errorf("cluster: restore part %d outside table of %d parts", idx, len(t.parts))
	}
	p := &t.parts[idx]
	if p.state == partDone {
		return nil
	}
	if len(sums) != p.count {
		return fmt.Errorf("cluster: restore part %d with %d sums, part spans %d chunks", idx, len(sums), p.count)
	}
	p.state = partDone
	p.sums = sums
	t.done++
	return nil
}

// Acquire grants a lease on the first available part: pending, or
// leased but expired (a reclaim — the old fence dies here). The second
// return is false when no part is currently available, which callers
// disambiguate with Done (all finished) or retry (all leased and
// live).
func (t *table) Acquire(holder string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for i := range t.parts {
		p := &t.parts[i]
		switch p.state {
		case partPending:
		case partLeased:
			if now.Before(p.expires) {
				continue
			}
			telemetry.ClusterLeasesExpired.Inc()
			telemetry.ClusterReassignments.Inc()
		default:
			continue
		}
		p.state = partLeased
		p.lease = mintToken()
		p.holder = holder
		p.granted = now
		p.expires = now.Add(t.ttl)
		telemetry.ClusterLeasesGranted.Inc()
		return Lease{ID: p.lease, Part: i, First: p.first, Count: p.count, Expires: p.expires}, true
	}
	return Lease{}, false
}

// Renew extends a live lease's deadline by one TTL. A token that is
// not the part's current lease gets ErrFenced; a completed part gets
// ErrDone.
func (t *table) Renew(l Lease) (time.Time, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.current(l)
	if err != nil {
		return time.Time{}, err
	}
	p.expires = t.now().Add(t.ttl)
	telemetry.ClusterLeaseRenewals.Inc()
	return p.expires, nil
}

// Complete accepts the sums for a leased part. Strict fencing: the
// token must be the part's current lease. The sums must cover exactly
// the part's chunk range in order — the table is the exactly-once
// ledger, so malformed sums are an error, never absorbed.
func (t *table) Complete(l Lease, sums []stochastic.ChunkSum) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.current(l)
	if err != nil {
		return err
	}
	if len(sums) != p.count {
		return fmt.Errorf("cluster: part %d completion has %d sums, lease spans %d chunks", l.Part, len(sums), p.count)
	}
	for i := range sums {
		if sums[i].Chunk != p.first+i {
			return fmt.Errorf("cluster: part %d completion sum %d is for chunk %d, want %d", l.Part, i, sums[i].Chunk, p.first+i)
		}
	}
	p.state = partDone
	p.sums = sums
	t.done++
	telemetry.ClusterPartsCompleted.Inc()
	telemetry.ClusterLeaseSeconds.Observe(t.now().Sub(p.granted).Seconds())
	return nil
}

// Release returns a leased part to pending (a worker refused or
// failed the work). The fence stays burned: the next Acquire mints a
// newer token.
func (t *table) Release(l Lease) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.current(l)
	if err != nil {
		return err
	}
	p.state = partPending
	p.holder = ""
	return nil
}

// current resolves a lease to its part iff the token is current.
// Callers hold t.mu.
func (t *table) current(l Lease) (*part, error) {
	if l.Part < 0 || l.Part >= len(t.parts) {
		return nil, ErrFenced
	}
	p := &t.parts[l.Part]
	if p.state == partDone {
		return nil, ErrDone
	}
	if p.state != partLeased || p.lease != l.ID {
		return nil, ErrFenced
	}
	return p, nil
}

// Done reports whether every part has completed.
func (t *table) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done == len(t.parts)
}

// Progress returns completed and total chunk counts.
func (t *table) Progress() (doneChunks, totalChunks int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.parts {
		totalChunks += t.parts[i].count
		if t.parts[i].state == partDone {
			doneChunks += t.parts[i].count
		}
	}
	return doneChunks, totalChunks
}

// Sums returns every chunk sum in strict chunk order. Only valid once
// Done.
func (t *table) Sums() ([]stochastic.ChunkSum, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done != len(t.parts) {
		return nil, fmt.Errorf("cluster: job incomplete (%d of %d parts)", t.done, len(t.parts))
	}
	var out []stochastic.ChunkSum
	for i := range t.parts {
		out = append(out, t.parts[i].sums...)
	}
	return out, nil
}
