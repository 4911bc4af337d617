// Package rng provides the suite's deterministic pseudo-random number
// generator. Every workload generator is seeded from its variant definition,
// so inputs — gene strings, network flows, point clouds, mazes, graphs — are
// bit-reproducible across runs and across TM systems, mirroring STAMP's
// random.c (a Mersenne twister). We use splitmix64, which is far smaller,
// passes the statistical tests that matter at benchmark scale, and needs no
// state array.
package rng

import "math"

// Rand is a deterministic splitmix64 generator. It is not safe for
// concurrent use; each thread derives its own stream with Split.
type Rand struct {
	state uint64
	// cached spare gaussian value (Box–Muller produces pairs)
	spare    float64
	hasSpare bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent stream (for per-thread generators) from r.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// gamma is splitmix64's state increment: each draw adds it once.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Jump advances r past k draws of Uint64 in O(1): the state is a counter
// stepped by gamma, so k steps are one multiply-add (mod 2^64). It leaves
// NormFloat64's cached spare alone. Stagers use it to hand each table of
// one logical stream its own starting point, so the tables can be filled
// apart and still hold the values one stream drawn in order gives.
func (r *Rand) Jump(k uint64) { r.state += k * gamma }

// Uint32 returns 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate via Box–Muller.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
