package main

import (
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"ddsim/internal/telemetry"
)

// rateLimiter is per-client token-bucket admission control for job
// submissions: each client (keyed by remote address) has a bucket of
// up to burst tokens; a submission spends one token or is rejected
// with the time until the next one.
//
// Refills run on a maintenance ticker instead of being computed on
// every request: the server calls refill every refillEvery, topping
// up every bucket by rate×refillEvery in one O(buckets) pass. That
// keeps the request path to one map lookup and one subtraction, makes
// the Retry-After hint an exact statement about the refill schedule
// ("tokens arrive at the next tick, and every refillEvery after"),
// and gives idle buckets a natural reclamation point — the same pass
// evicts entries that have been full and untouched for idleAfter, so
// a client-ID scan cannot grow the map without bound (satellite of
// the dispatch-plane issue; maxBuckets backstops rotation faster than
// the sweep cadence).
type rateLimiter struct {
	rate        float64       // tokens per second
	burst       float64       // bucket capacity
	refillEvery time.Duration // refill ticker cadence
	idleAfter   time.Duration // evict buckets full and untouched this long

	mu         sync.Mutex
	buckets    map[string]*bucket
	nextRefill time.Time // when the ticker will next top up (zero until first refill)
}

// bucket is one client's token balance.
type bucket struct {
	tokens   float64
	lastUsed time.Time
}

// Limiter tuning. refillEvery is also the granularity of Retry-After
// honesty: a client told to wait is never more than one cadence away
// from the promised token.
const (
	maxBuckets         = 4096
	defaultRefillEvery = 250 * time.Millisecond
	defaultIdleAfter   = 5 * time.Minute
)

// newRateLimiter creates a limiter admitting rate submissions per
// second per client with the given burst capacity (minimum 1). The
// server's maintenance ticker calls refill every refillEvery.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:        rate,
		burst:       float64(burst),
		refillEvery: defaultRefillEvery,
		idleAfter:   defaultIdleAfter,
		buckets:     make(map[string]*bucket),
	}
}

// allow spends one token from key's bucket. When the bucket is empty
// it returns false and how long until the refill schedule will have
// delivered a full token.
func (rl *rateLimiter) allow(key string, now time.Time) (bool, time.Duration) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b, ok := rl.buckets[key]
	if !ok {
		if len(rl.buckets) >= maxBuckets {
			rl.pruneLocked(now)
		}
		b = &bucket{tokens: rl.burst}
		rl.buckets[key] = b
	}
	b.lastUsed = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, rl.waitLocked(b, now)
}

// waitLocked computes the time until b will hold ≥1 token under the
// refill schedule: the next refill tick, plus however many full
// cadences beyond it the deficit needs. Before the first refill (or
// without a running ticker, in tests) it falls back to the
// continuous-rate estimate. Caller holds rl.mu.
func (rl *rateLimiter) waitLocked(b *bucket, now time.Time) time.Duration {
	need := 1 - b.tokens
	if rl.nextRefill.IsZero() || rl.rate <= 0 {
		return time.Duration(need / rl.rate * float64(time.Second))
	}
	perTick := rl.rate * rl.refillEvery.Seconds()
	ticks := math.Ceil(need / perTick)
	wait := rl.nextRefill.Sub(now) + time.Duration(ticks-1)*rl.refillEvery
	if wait < 0 {
		wait = 0
	}
	return wait
}

// refill tops up every bucket by one cadence of tokens and evicts
// buckets that are full and idle — the server's ticker calls this
// every refillEvery. One O(buckets) pass per cadence replaces per-request
// clock math and per-entry cleanup timers.
func (rl *rateLimiter) refill(now time.Time) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	add := rl.rate * rl.refillEvery.Seconds()
	evicted := int64(0)
	for k, b := range rl.buckets {
		b.tokens = math.Min(rl.burst, b.tokens+add)
		if b.tokens >= rl.burst && now.Sub(b.lastUsed) > rl.idleAfter {
			delete(rl.buckets, k)
			evicted++
		}
	}
	rl.nextRefill = now.Add(rl.refillEvery)
	if evicted > 0 {
		telemetry.RateBucketsEvicted.Add(evicted)
	}
	telemetry.RateBuckets.Set(int64(len(rl.buckets)))
}

// pruneLocked bounds the bucket table at maxBuckets between refill
// sweeps. First pass: drop full (idle) buckets — those clients lose
// nothing by being forgotten. If hostile address rotation keeps the
// table full of part-empty buckets anyway, evict the least-recently-
// used entry so the insert that triggered the prune cannot grow the
// map; the evicted client merely gets a fresh full bucket on its next
// request. Caller holds rl.mu.
func (rl *rateLimiter) pruneLocked(now time.Time) {
	for k, b := range rl.buckets {
		if b.tokens >= rl.burst {
			delete(rl.buckets, k)
		}
	}
	if len(rl.buckets) < maxBuckets {
		return
	}
	var lruKey string
	var lruTime time.Time
	for k, b := range rl.buckets {
		if lruKey == "" || b.lastUsed.Before(lruTime) {
			lruKey, lruTime = k, b.lastUsed
		}
	}
	delete(rl.buckets, lruKey)
}

// size reports the tracked-bucket count (tests and health).
func (rl *rateLimiter) size() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.buckets)
}

// clientKey identifies the submitting client for rate limiting: the
// remote IP (ignoring the ephemeral port), falling back to the whole
// RemoteAddr string when it does not parse.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
