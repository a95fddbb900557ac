package stochastic

import "math/rand"

// The trajectory random stream, version 2. Run j of a job draws from a
// SplitMix64 generator (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014) whose state is derived
// from all 64 bits of Options.Seed and of j through the generator's own
// full-avalanche mixer — the paper's split: trajectory j's state is
// output j+1 of a parent generator seeded mix64(Seed). Seeding is two
// mixes, so a trajectory that fires no event costs a handful of
// nanoseconds of randomness, and jobs at neighbouring seeds share no
// trajectory.
//
// What a trajectory draws, in order — the definition fork and replay
// share (checkpoint.go):
//
//  1. While rolls of the reference path remain: one Float64 u, turned by
//     inversion into the position of the next roll that fires (none: the
//     path's remainder is noise-free). A fired roll draws one Float64 v;
//     v·threshold is the draw the channel's Fire receives, and Fire
//     draws what its event needs (the Pauli of a depolarising hit, the
//     branch of a damping event).
//  2. Behind the path's end, one draw per roll, measurement and reset in
//     operation order (runRange), plus what a fired event needs.
//
// A damping branch is one Float64 whatever the qubit's P(1), as is a
// measurement: a P(1) that rounds to exactly 0 or 1 in one package and
// not in another must not change how many draws the rest of the
// trajectory starts from.
//  3. Options.Shots calls of Backend.SampleBasis.
//
// Changing any of this changes every sampled number of every job, so it
// goes with re-recorded goldens. Job keys need no stream tag: a key is
// only ever compared within the same build.

const splitMixGamma = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output function (Stafford's variant 13 of the
// MurmurHash3 finaliser): a bijection in which every input bit flips
// every output bit with probability close to one half.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// stream is a SplitMix64 generator as a rand.Source64, so everything
// that samples keeps taking a *rand.Rand.
type stream struct{ x uint64 }

// newStream returns a reusable trajectory RNG and the source behind it;
// seek positions it.
func newStream() (*rand.Rand, *stream) {
	s := new(stream)
	return rand.New(s), s
}

// seek puts the stream at the start of run j of a job with the given
// seed.
func (s *stream) seek(seed int64, j uint64) {
	s.x = mix64(mix64(uint64(seed)) + (j+1)*splitMixGamma)
}

func (s *stream) Uint64() uint64 {
	s.x += splitMixGamma
	return mix64(s.x)
}

func (s *stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source: run 0 of the job with that seed.
func (s *stream) Seed(seed int64) { s.seek(seed, 0) }
