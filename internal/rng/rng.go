// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Reproducibility is a hard requirement for this project: every table and
// figure reproduction must regenerate identical numbers on every run. The
// global generators in math/rand are therefore avoided entirely; instead
// each component draws from its own Source, derived from a campaign seed
// with New and split into independent streams with Split or SplitNamed.
// New returns a *Source; the splits return Source values, so a hot path
// that derives several streams per task keeps them all on its stack.
//
// The core generator is splitmix64 (Steele, Lea, Flood 2014), which has a
// 64-bit state, passes BigCrush, and is trivially splittable by deriving a
// new state from the current stream. It is not cryptographically secure,
// which is irrelevant here.
//
// Normal deviates come from one of two samplers, chosen per stream.
// ZigguratNormal serves the inference draws, the three streams a target's
// models share in fold.Engine.Infer ("pairs", "field", "estimator"), which
// are most of a campaign's normals; its exp and log are internal/fmath's,
// so those draws have the same bits on every host. NormFloat64, the polar
// method, serves the streams that build the world: proteome lengths
// through Gamma, the CASP set, topologies, complexes and the per-model
// jitter. Those draws are a small share of the cost, and moving them would
// re-draw the published world (the CASP set among it) for no gain in wall
// time. NormFloat64, Gamma and Poisson stay on math's Log, Sqrt, Exp and
// Pow.
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
func (s *Source) Split() Source {
	v := s.Uint64()
	// Extra avalanche so Split(New(k)) differs from New(k).Uint64() streams.
	v ^= 0x9e3779b97f4a7c15
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 31
	return Source{state: v}
}

// SplitNamed derives a child stream whose identity also depends on a string
// label, so independently named subsystems get decorrelated streams even if
// they split in the same order.
func (s *Source) SplitNamed(name string) Source {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	v := s.Uint64() ^ h
	v *= 0x94d049bb133111eb
	v ^= v >> 29
	return Source{state: v}
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
// method. It draws the world's streams (see the package comment): a change
// of sampler here re-draws every generated proteome and the CASP set.
// Inference draws through ZigguratNormal instead.
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

// Choice draws indices with probability proportional to a fixed set of
// weights. A Choice is read-only once made, so one can serve any number of
// goroutines.
//
// Draw is exact: for every 53-bit uniform m (the bits behind Float64) it
// returns the index the sequential float scan returns, r := m/2⁵³·total
// and then r -= weights[i] until r < 0. Every step of that scan is monotone
// in m, so the index is a non-decreasing step function of m. NewChoice
// finds each step's integer threshold once, by binary search with the scan
// as the predicate (about 12 µs for 20 weights on a 2.1 GHz Xeon; the cost
// grows as n²), and Draw maps m to its index with a guide table on m's top
// bits and integer compares.
type Choice struct {
	// thresh[i] is the least m the scan maps past index i. The last entry
	// is 2⁵³, which no m reaches, so a scan up thresh always stops.
	thresh []uint64
	// guide[j] is the index of the least m whose top guideBits bits are j.
	guide [1 << guideBits]uint32
}

const (
	uniformBits = 53
	guideBits   = 8
)

// NewChoice returns a Choice over weights. All weights must be
// non-negative and at least one must be positive.
func NewChoice(weights []float64) *Choice {
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
	n := len(weights)
	c := &Choice{thresh: make([]uint64, n)}
	var lo uint64
	for i := 0; i < n-1; i++ {
		// The least m with scan(m) > i, found above the previous threshold.
		hi := uint64(1) << uniformBits
		for lo < hi {
			mid := lo + (hi-lo)/2
			if scan(weights, total, mid) > i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c.thresh[i] = lo
	}
	c.thresh[n-1] = 1 << uniformBits
	i := uint32(0)
	for j := range c.guide {
		m := uint64(j) << (uniformBits - guideBits)
		for m >= c.thresh[i] {
			i++
		}
		c.guide[j] = i
	}
	return c
}

// scan is the float draw Choice reproduces: the index of uniform m.
func scan(weights []float64, total float64, m uint64) int {
	r := float64(m) / (1 << uniformBits) * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Draw returns a pseudo-random index in [0, len(weights)), drawn from s,
// with probability proportional to weights[i]. It consumes one Uint64.
func (c *Choice) Draw(s *Source) int {
	u := s.Uint64()
	m := u >> (64 - uniformBits)
	i := c.guide[u>>(64-guideBits)]
	for m >= c.thresh[i] {
		i++
	}
	return int(i)
}

// Bernoulli is a coin that lands true with a fixed probability p. Its Draw
// is exactly s.Float64() < p, on the same one Uint64, as an integer
// compare: m/2⁵³ < p holds exactly when m < ⌈p·2⁵³⌉, and scaling by a power
// of two is exact.
type Bernoulli uint64

// NewBernoulli returns the coin that lands true with probability p.
func NewBernoulli(p float64) Bernoulli {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << uniformBits
	}
	return Bernoulli(math.Ceil(p * (1 << uniformBits)))
}

// Draw reports whether the coin lands true.
func (b Bernoulli) Draw(s *Source) bool {
	return s.Uint64()>>(64-uniformBits) < uint64(b)
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
