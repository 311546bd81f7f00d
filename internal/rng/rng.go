// Package rng provides small, fast, deterministic pseudo-random number
// generators for simulation.
//
// The simulator must produce bit-identical results for a given seed across
// platforms and Go releases, so it does not use math/rand. The generators
// here are xoshiro256** (state scrambled by splitmix64), which is the
// combination recommended by Blackman & Vigna for seeding.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic 64-bit PRNG (xoshiro256**).
//
// The zero value is not usable; construct with New. A Source is not safe
// for concurrent use; the simulator gives each simulated thread its own
// Source.
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// only to expand seeds into full xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give statistically
// independent streams; seed 0 is valid.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator to the state produced by seed, as if freshly
// constructed by New(seed).
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro256** requires a non-zero state; splitmix64 of any seed cannot
	// produce all-zero words, but guard anyway so Reseed is total.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias,
// with his early exit: the threshold -n % n is below n, so a low half of
// at least n is accepted without computing it.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		// Rejection sampling on the top bits.
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed float64 with the given mean.
// It panics if mean < 0. Exp(0) returns 0.
func (r *Source) Exp(mean float64) float64 {
	if mean < 0 {
		panic("rng: Exp called with negative mean")
	}
	if mean == 0 {
		return 0
	}
	u := r.Float64()
	// Float64 is in [0,1); 1-u is in (0,1], so Log is finite.
	return -mean * math.Log(1-u)
}

// ZipfCDF is the normalised cumulative distribution of a bounded
// Zipf-like law over [0, n). It is immutable once built, so one table can
// back any number of samplers, concurrently.
type ZipfCDF []float64

// NewZipfCDF builds the CDF over [0, n) with exponent s >= 0; s == 0
// degenerates to uniform. Panics if n <= 0.
func NewZipfCDF(n int, s float64) ZipfCDF {
	if n <= 0 {
		panic("rng: NewZipfCDF called with non-positive n")
	}
	cdf := make(ZipfCDF, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// Zipf draws from a ZipfCDF by inverse-CDF lookup, taking randomness
// from its own source.
type Zipf struct {
	cdf ZipfCDF
	src *Source
}

// Sampler returns a sampler over c drawing randomness from src.
func (c ZipfCDF) Sampler(src *Source) *Zipf { return &Zipf{cdf: c, src: src} }

// Next returns the next sample in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm fills p with a uniform random permutation of [0, len(p)).
func (r *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
