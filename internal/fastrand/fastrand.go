// Package fastrand provides a rand.Source64 that reproduces
// math/rand's additive lagged-Fibonacci generator (Mitchell & Reeds,
// x[n] = x[n-273] + x[n-607] over uint64) bit for bit, with a Seed
// that is several times cheaper than the standard library's.
//
// Why it exists: the stochastic engine's determinism contract says
// trajectory j draws from an RNG seeded with Seed+j, independent of
// which worker runs it. That means one full reseed per trajectory,
// and for decision-diagram trajectories the stdlib Seed — 1841 calls
// of a Schrage-form LCG step costing two integer divisions each — was
// over a fifth of total CPU. The LCG modulus 2^31-1 is a Mersenne
// prime, so the step reduces with a shift, a mask and a conditional
// subtract instead of dividing; and the LCG has no increment, so its
// k-th value is seed·48271^k — Seed multiplies the seed by a table of
// precomputed powers, 1821 independent products instead of a chain of
// 1841 dependent steps. The output stream is unchanged.
//
// The seeding procedure XORs the LCG stream against math/rand's
// unexported rngCooked table. Rather than copying those 607 constants
// here, init recovers them from math/rand itself: the first 607
// outputs of a known-seed source determine its initial feedback
// register (each initial entry is a difference of at most two
// outputs), and XORing the register against the known LCG stream
// yields the table. An accidental divergence from the stdlib
// algorithm therefore fails loudly in tests rather than silently
// shifting every trajectory.
package fastrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// cooked is math/rand's rngCooked table, recovered at init.
var cooked [rngLen]uint64

// seedMul[i] holds the multipliers 48271^k mod 2^31-1 of the three LCG
// values the seeding procedure packs into register entry i: after 20
// discarded steps, entry i consumes steps 21+3i, 22+3i and 23+3i.
var seedMul [rngLen][3]uint32

func init() {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen]uint64
	for i := range o {
		o[i] = src.Uint64()
	}
	// With x[0..606] the initial register in consumption order and
	// outputs o[n] = x[607+n] = x[n] + x[n+334], entries from the tap
	// onward are differences of two outputs, and the rest close over
	// those.
	const feed0 = rngLen - rngTap // 334
	var x [rngLen]uint64
	for i := rngTap; i < rngLen; i++ {
		x[i] = o[i] - o[i-rngTap]
	}
	for i := 0; i < rngTap; i++ {
		x[i] = o[i] - x[i+feed0]
	}
	// Map consumption order back to register indices: the feed pointer
	// walks vec[333]..vec[0], then vec[606]..vec[334].
	var vec [rngLen]uint64
	for j := 0; j < feed0; j++ {
		vec[j] = x[feed0-1-j]
	}
	for j := feed0; j < rngLen; j++ {
		vec[j] = x[rngLen+feed0-1-j]
	}
	// Replay the seed-1 LCG chain and peel it off. Started from 1, the
	// chain's values are the powers of the multiplier themselves.
	lcg := int32(1)
	for i := -20; i < rngLen; i++ {
		lcg = seedrand(lcg)
		if i >= 0 {
			m := &seedMul[i]
			m[0] = uint32(lcg)
			lcg = seedrand(lcg)
			m[1] = uint32(lcg)
			lcg = seedrand(lcg)
			m[2] = uint32(lcg)
			cooked[i] = vec[i] ^ (uint64(m[0])<<40 ^ uint64(m[1])<<20 ^ uint64(m[2]))
		}
	}
}

// seedrand advances the seeding LCG: x[n+1] = 48271·x[n] mod 2^31-1.
// The modulus is a Mersenne prime, so 2^31 ≡ 1 and the product folds
// with shift/mask instead of the stdlib's two divisions. Inputs stay
// in [1, 2^31-2], so the fold never lands on the modulus itself.
func seedrand(x int32) int32 {
	p := uint64(uint32(x)) * 48271
	p = (p & int32max) + (p >> 31)
	if p >= int32max {
		p -= int32max
	}
	return int32(p)
}

// mulmod returns x·m mod 2^31-1 for x, m in [1, 2^31-2]: the 62-bit
// product folds twice (2^31 ≡ 1) into [0, 2^31], and is non-zero
// modulo the prime, so one conditional subtract lands on the value the
// chained seedrand steps reach.
func mulmod(x, m uint32) uint64 {
	p := uint64(x) * uint64(m)
	p = (p & int32max) + (p >> 31)
	p = (p & int32max) + (p >> 31)
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Source is a reseedable drop-in for the source behind
// math/rand.NewSource: identical stream, cheap Seed. It implements
// rand.Source64, so rand.New(src) draws (Float64, Intn, Uint64, ...)
// match the stdlib bit for bit. Not safe for concurrent use, exactly
// like the stdlib source.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]uint64
}

// New returns a Source in the same state as rand.NewSource(seed).
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts
// in. Mirrors the stdlib seeding exactly, LCG values, cooked XOR and
// all — only each value is computed directly instead of by stepping.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint32(seed)
	for i := range s.vec {
		m := &seedMul[i]
		s.vec[i] = mulmod(x, m[0])<<40 ^ mulmod(x, m[1])<<20 ^ mulmod(x, m[2]) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit value of the lagged-Fibonacci
// stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with the top bit cleared, as the
// stdlib source does.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
