// Package rng is the simulator's one small deterministic generator and
// the mixer its stateless coins share.
//
// Rand is SplitMix64 (Steele, Lea and Flood, "Fast splittable
// pseudorandom number generators", OOPSLA 2014): one 64-bit word of
// state, advanced by the golden gamma and finalized by a variant-13
// avalanche on every draw. It is small enough to live by value inside
// each node, so a protocol's per-slot coin touches only the node's own
// memory, and it is a pure function of its seed, so every engine and
// worker count sees the same stream.
package rng

import (
	"math"
	"math/bits"
)

// Gamma is SplitMix64's increment, 2^64 divided by the golden ratio.
const Gamma = 0x9E3779B97F4A7C15

// finalize is SplitMix64's output function.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix is one SplitMix64 step on x: add Gamma, then finalize. The fault
// layer and the reception media hash (seed, slot, node) keys with it
// into stateless coins; Rand applies it to its running state.
func Mix(x uint64) uint64 { return finalize(x + Gamma) }

// Rand is a SplitMix64 generator. The zero value is a valid stream
// (state 0); copying a Rand forks an identical stream.
type Rand struct{ s uint64 }

// Derive returns stream number stream of seed: the state is the
// finalized seed + Gamma·(stream+1), so adjacent streams of one seed
// start from decorrelated states.
func Derive(seed int64, stream uint32) Rand {
	return Rand{s: finalize(uint64(seed) + Gamma*uint64(stream+1))}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.s += Gamma
	return finalize(r.s)
}

// Int63 returns a uniform int64 in [0, 2^63).
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1): the draw's top 53 bits
// scaled by 2^-53, so every value is a multiple of 2^-53.
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) * 0x1p-53 }

// CoinThreshold returns the integer form of a coin with probability p:
// r.Float64() < p holds exactly when r.Uint64()>>11 < CoinThreshold(p).
// Float64 is the 53-bit draw m scaled by 2^-53, and both that scaling
// and p·2^53 are exact in float64, so m·2^-53 < p ⟺ m < p·2^53 ⟺
// m < ⌈p·2^53⌉. Probabilities ≤ 0 (and NaN) give 0, never true; ≥ 1
// give 2^53, always true.
func CoinThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * 0x1p53))
}

// Coin draws once and reports whether the draw falls below the
// threshold t of CoinThreshold: the same outcome, from the same state,
// as r.Float64() < p, without floating point.
func (r *Rand) Coin(t uint64) bool { return r.Uint64()>>11 < t }

// Skip advances the stream by k draws in O(1): the k-th draw from
// state s is finalize(s + k·Gamma), so k draws move the state by
// k·Gamma (mod 2^64, which also holds for k past 2^64 draws).
func (r *Rand) Skip(k uint64) { r.s += k * Gamma }

// Scan looks ahead without advancing r: it returns the index of the
// first of the next limit draws whose Coin(t) succeeds, or limit when
// none does. Index j names the draw after j failing ones, so
// r.Skip(j); r.Coin(t) is that success.
func (r *Rand) Scan(t uint64, limit int64) int64 {
	s := r.s
	for j := int64(0); j < limit; j++ {
		s += Gamma
		if finalize(s)>>11 < t {
			return j
		}
	}
	return limit
}

// Int63n returns a uniform int64 in [0, n) by Lemire's multiply-shift
// with rejection ("Fast random integer generation in an interval",
// 2019), which is unbiased for every n. It panics if n <= 0, like
// math/rand.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: invalid argument to Int63n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int64(hi)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, like
// math/rand.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	return int(r.Int63n(int64(n)))
}
