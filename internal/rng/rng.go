// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Reproducibility is a hard requirement for this project: every table and
// figure reproduction must regenerate identical numbers on every run. The
// global generators in math/rand are therefore avoided entirely; instead
// each component receives an explicit *rng.Source seeded from a campaign
// seed, and parallel components derive independent streams with Split.
//
// The core generator is splitmix64 (Steele, Lea, Flood 2014), which has a
// 64-bit state, passes BigCrush, and is trivially splittable by deriving a
// new state from the current stream. It is not cryptographically secure,
// which is irrelevant here.
package rng

import "math"

// Source is a deterministic splitmix64 random number source.
// The zero value is a valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from s. The child's sequence
// does not overlap with s's subsequent outputs in practice, because the
// child is seeded from a full 64-bit draw pushed through an extra mix.
func (s *Source) Split() *Source {
	v := s.Uint64()
	// Extra avalanche so Split(New(k)) differs from New(k).Uint64() streams.
	v ^= 0x9e3779b97f4a7c15
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 31
	return &Source{state: v}
}

// SplitNamed derives a child stream whose identity also depends on a string
// label, so independently named subsystems get decorrelated streams even if
// they split in the same order.
func (s *Source) SplitNamed(name string) *Source {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	v := s.Uint64() ^ h
	v *= 0x94d049bb133111eb
	v ^= v >> 29
	return &Source{state: v}
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo bias at n << 2^64 is negligible and simplicity wins here.
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate using the Marsaglia polar
// method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Gamma returns a gamma deviate with the given shape k > 0 and scale theta,
// using the Marsaglia-Tsang method (with Johnk boost for k < 1).
func (s *Source) Gamma(k, theta float64) float64 {
	if k <= 0 || theta <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if k < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.Gamma(k+1, theta) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * theta
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * theta
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes n elements using the provided swap
// function (Fisher-Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a pseudo-random index in [0, len(weights)) with probability
// proportional to weights[i]. All weights must be non-negative and at least
// one must be positive.
func (s *Source) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	r := s.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Poisson returns a Poisson deviate with mean lambda (Knuth's algorithm for
// small lambda, normal approximation above 30).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*s.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
