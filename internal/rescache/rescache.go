// Package rescache is the content-addressed result cache of the
// ddsimd service. A stochastic simulation is a pure function of its
// canonical job key (circuit text, backend, noise points, seed-
// relevant options — see ddsim.JobKey), so finished results can be
// served byte-for-byte from memory when the same job is submitted
// again, and N identical *in-flight* submissions can run the
// simulation once and fan the result out to all N (singleflight
// deduplication).
//
// The cache is bounded twice — by entry count and by total payload
// bytes — with least-recently-used eviction, and reports hits,
// misses, dedup joins, evictions, live entries and live bytes to
// internal/telemetry (the ddsim_rescache_* instruments on /metrics).
//
// Usage protocol: every prospective computation calls GetOrJoin.
//
//   - Hit: the value is returned; nothing else to do.
//   - Join: another caller is already computing this key; wait on the
//     returned channel (a closed channel without a value means the
//     leader aborted — call GetOrJoin again to retry or take over).
//     Callers that stop waiting early must call Leave.
//   - Lead: the caller owns the computation and MUST settle it with
//     exactly one Complete (store + fan out) or Abort (fan out
//     failure, store nothing).
//
// A Cache is safe for concurrent use by multiple goroutines.
package rescache

import (
	"container/list"
	"sync"
	"time"

	"ddsim/internal/telemetry"
)

// Outcome classifies a GetOrJoin call.
type Outcome int

const (
	// Hit means the value was served from the cache.
	Hit Outcome = iota
	// Join means the key is being computed by another caller; wait on
	// the channel returned alongside.
	Join
	// Lead means the caller owns the computation for this key and
	// must call Complete or Abort.
	Lead
)

// String names the outcome for logs and tests.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Join:
		return "join"
	case Lead:
		return "lead"
	default:
		return "unknown"
	}
}

// Stats is a snapshot of one cache's counters (the telemetry
// instruments aggregate across all caches in the process; Stats is
// per instance).
type Stats struct {
	// Hits counts GetOrJoin calls served from the cache.
	Hits int64
	// Misses counts GetOrJoin calls that found neither a cached value
	// nor an in-flight computation (the caller became the leader).
	Misses int64
	// Joins counts GetOrJoin calls deduplicated onto an in-flight
	// computation.
	Joins int64
	// Evictions counts entries dropped by the LRU bounds.
	Evictions int64
	// TTLEvictions counts entries dropped because they outlived the
	// TTL (Sweep plus lazy expiry on lookup).
	TTLEvictions int64
	// Entries and Bytes are the live cache population.
	Entries int
	Bytes   int64
}

// entry is one cached key/value pair; it lives in the LRU list.
type entry struct {
	key    string
	val    []byte
	stored time.Time // when the value entered the cache (TTL anchor)
}

// flight is one in-flight computation and its subscribers.
type flight struct {
	subs []chan []byte
}

// Cache is a bounded, LRU-evicting, singleflight-deduplicating map
// from canonical job keys to marshalled result payloads.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ttl        time.Duration // 0 = entries never age out
	now        func() time.Time
	bytes      int64
	ll         *list.List // front = most recently used
	entries    map[string]*list.Element
	flights    map[string]*flight
	stats      Stats
}

// New creates a cache bounded to maxEntries entries and maxBytes
// total payload bytes; a non-positive bound leaves that axis
// unbounded. When both bounds are non-positive the cache stores
// nothing but still deduplicates in-flight computations (dedup-only
// mode).
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		now:        time.Now,
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*flight),
	}
}

// SetTTL bounds the age of cached entries: values older than ttl are
// treated as absent on lookup and removed by Sweep. A zero or
// negative ttl disables aging (the default). Call before serving
// traffic.
func (c *Cache) SetTTL(ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ttl = ttl
}

// SetNow injects the clock used for TTL decisions (tests only).
func (c *Cache) SetNow(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Sweep removes every entry older than the TTL, returning how many it
// evicted. The service runs Sweep periodically on a ticker so an idle
// cache does not pin stale payloads until the next lookup happens to
// touch them. A no-op without a TTL.
func (c *Cache) Sweep(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ttl <= 0 {
		return 0
	}
	evicted := 0
	// Age order is insertion order, not LRU order (hits refresh
	// recency, not stored time), so scan the whole list.
	for el := c.ll.Back(); el != nil; {
		prev := el.Prev()
		if e := el.Value.(*entry); now.Sub(e.stored) > c.ttl {
			c.removeLocked(el, e)
			evicted++
		}
		el = prev
	}
	if evicted > 0 {
		telemetry.ResCacheEntries.Set(int64(len(c.entries)))
		telemetry.ResCacheBytes.Set(c.bytes)
	}
	return evicted
}

// removeLocked drops one expired entry and counts it as a TTL
// eviction. Caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element, e *entry) {
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.val))
	c.stats.TTLEvictions++
	telemetry.ResCacheTTLEvictions.Inc()
}

// GetOrJoin resolves a key per the package protocol. The returned
// value (on Hit) and any value received from the channel (on Join)
// are shared read-only buffers: callers must not modify them. The
// channel is non-nil only for Join; it delivers at most one value and
// is then closed (a close without a value means the leader aborted).
func (c *Cache) GetOrJoin(key string) (val []byte, wait <-chan []byte, outcome Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry)
		if c.ttl > 0 && c.now().Sub(e.stored) > c.ttl {
			// Lazy expiry: an aged-out value must not be served even
			// if the periodic sweep hasn't reached it yet.
			c.removeLocked(el, e)
			telemetry.ResCacheEntries.Set(int64(len(c.entries)))
			telemetry.ResCacheBytes.Set(c.bytes)
		} else {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			telemetry.ResCacheHits.Inc()
			return e.val, nil, Hit
		}
	}
	if f, ok := c.flights[key]; ok {
		ch := make(chan []byte, 1)
		f.subs = append(f.subs, ch)
		c.stats.Joins++
		telemetry.ResCacheJoins.Inc()
		return nil, ch, Join
	}
	c.flights[key] = &flight{}
	c.stats.Misses++
	telemetry.ResCacheMisses.Inc()
	return nil, nil, Lead
}

// Complete settles a computation the caller leads: the value is
// stored (subject to the bounds) and fanned out to every subscriber.
// val is retained by the cache and handed to subscribers; the caller
// must not modify it afterwards.
func (c *Cache) Complete(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.flights[key]
	delete(c.flights, key)
	c.storeLocked(key, val)
	if f != nil {
		for _, ch := range f.subs {
			ch <- val
			close(ch)
		}
	}
}

// Abort settles a computation the caller leads without a value: every
// subscriber's channel is closed empty, signalling them to retry (the
// next GetOrJoin elects a new leader). Nothing is stored.
func (c *Cache) Abort(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.flights[key]
	delete(c.flights, key)
	if f != nil {
		for _, ch := range f.subs {
			close(ch)
		}
	}
}

// Leave unsubscribes a Join channel whose owner stopped waiting
// (e.g. its job was cancelled), so the eventual Complete does not
// retain the channel. Safe to call even if the flight already
// settled.
func (c *Cache) Leave(key string, wait <-chan []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flights[key]
	if !ok {
		return
	}
	for i, ch := range f.subs {
		if ch == wait {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			return
		}
	}
}

// Stats returns a snapshot of this cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	return s
}

// storeLocked inserts a value and evicts from the LRU tail until both
// bounds hold again. Values that can never fit (larger than maxBytes
// by themselves) are not stored. Caller holds c.mu.
func (c *Cache) storeLocked(key string, val []byte) {
	if c.maxEntries <= 0 && c.maxBytes <= 0 {
		return // storage disabled; dedup-only mode
	}
	if c.maxBytes > 0 && int64(len(val)) > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok { // racing leaders cannot happen, but be safe
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.stored = c.now()
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry{key: key, val: val, stored: c.now()})
		c.bytes += int64(len(val))
	}
	for (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val))
		c.stats.Evictions++
		telemetry.ResCacheEvictions.Inc()
	}
	telemetry.ResCacheEntries.Set(int64(len(c.entries)))
	telemetry.ResCacheBytes.Set(c.bytes)
}
