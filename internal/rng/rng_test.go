package rng

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must differ from the parent's continuing stream.
	matches := 0
	for i := 0; i < 256; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("split child collided with parent %d times", matches)
	}
}

func TestSplitNamedDecorrelates(t *testing.T) {
	a := New(7).SplitNamed("alpha")
	b := New(7).SplitNamed("beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("differently named splits produced identical first draw")
	}
}

// TestSplitGolden pins the first outputs of the derivations every stream in
// the repository comes from, so no change to how a split is returned or
// stored can move a derived stream.
func TestSplitGolden(t *testing.T) {
	for _, c := range []struct {
		seed         uint64
		split, named [3]uint64
	}{
		{20220125,
			[3]uint64{0xc3ec5a433a3cdfa7, 0xeffd3dbdc2a68670, 0x7d76807ed6bfa980},
			[3]uint64{0x5bfc201992eadd42, 0x6ea410f0555bff58, 0xca3b65d557a27ea0}},
		{7,
			[3]uint64{0x25ee1e8ebe65ffcb, 0x97e259b040244717, 0x8025887048db90dd},
			[3]uint64{0x97fdd27f6c59e57a, 0xf79a122ca05ba692, 0x06847616c3804f27}},
	} {
		split := New(c.seed).Split()
		named := New(c.seed).SplitNamed("infer:DVU_00001")
		for i := range 3 {
			if got := split.Uint64(); got != c.split[i] {
				t.Errorf("New(%d).Split() output %d = %#x, want %#x", c.seed, i, got, c.split[i])
			}
			if got := named.Uint64(); got != c.named[i] {
				t.Errorf("New(%d).SplitNamed(%q) output %d = %#x, want %#x", c.seed, "infer:DVU_00001", i, got, c.named[i])
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(4)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	s := New(8)
	const n = 100000
	for _, tc := range []struct{ k, theta float64 }{{2, 3}, {0.5, 1}, {9, 0.5}} {
		var sum float64
		for i := 0; i < n; i++ {
			sum += s.Gamma(tc.k, tc.theta)
		}
		mean := sum / n
		want := tc.k * tc.theta
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ~%v", tc.k, tc.theta, mean, want)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(9)
	for _, lambda := range []float64{0.5, 4, 50} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda)/lambda > 0.06 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(10)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	s := New(11)
	counts := make([]int, 3)
	const n = 100000
	w := []float64{1, 2, 7}
	c := NewChoice(w)
	for i := 0; i < n; i++ {
		counts[c.Draw(s)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		want := w[i] / 10
		if math.Abs(frac-want) > 0.01 {
			t.Errorf("choice %d frequency %v, want ~%v", i, frac, want)
		}
	}
}

func TestChoicePanicsOnZeroWeights(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {}, {1, -0.5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewChoice(%v) did not panic", w)
				}
			}()
			NewChoice(w)
		}()
	}
}

// choiceOnce is the weighted draw done in one call that sums the weights
// each time; Choice must match it draw for draw.
func choiceOnce(s *Source, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
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

// sourceAt returns a Source whose next Uint64 is word, by running
// splitmix64's output mix backwards.
func sourceAt(word uint64) *Source {
	z := unxorshift(word, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	z = unxorshift(z, 30)
	return &Source{state: z - 0x9e3779b97f4a7c15}
}

// unxorshift inverts y = x ^ x>>k.
func unxorshift(y uint64, k uint) uint64 {
	x := y
	for s := k; s < 64; s += k {
		x ^= y >> s
	}
	return x
}

// inverse returns the multiplicative inverse of odd a modulo 2⁶⁴ (Newton's
// iteration: each step doubles the correct low bits, from 3).
func inverse(a uint64) uint64 {
	x := a
	for range 5 {
		x *= 2 - a*x
	}
	return x
}

// checkChoice holds c's Draw to choiceOnce over weights at the 64-bit word
// and at every threshold of c and its neighbours, the uniforms where an
// inexact threshold would show.
func checkChoice(t *testing.T, c *Choice, weights []float64, word uint64) {
	t.Helper()
	words := []uint64{word}
	low := word & (1<<(64-uniformBits) - 1)
	for _, th := range c.thresh {
		for _, m := range []uint64{th - 1, th, th + 1} {
			if m < 1<<uniformBits {
				words = append(words, m<<(64-uniformBits)|low)
			}
		}
	}
	for _, w := range words {
		if got := sourceAt(w).Uint64(); got != w {
			t.Fatalf("sourceAt(%#x) yields %#x", w, got)
		}
		if got, want := c.Draw(sourceAt(w)), choiceOnce(sourceAt(w), weights); got != want {
			t.Fatalf("word %#x: Draw gave %d, the float scan %d (weights %v)", w, got, want, weights)
		}
	}
}

// TestChoiceMatchesPerCallSum: over random weight vectors (zeros, tiny and
// huge weights included), a Choice built once draws the same index as
// summing the weights on every call, draw for draw, from the same stream,
// and at every threshold; and it does not read the weights after it is
// made.
func TestChoiceMatchesPerCallSum(t *testing.T) {
	r := New(13)
	for v := 0; v < 500; v++ {
		w := make([]float64, 1+r.Intn(30))
		for i := range w {
			switch r.Intn(6) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = r.Float64() * 1e-300
			case 2:
				w[i] = r.Float64() * 1e300
			default:
				w[i] = r.Float64()
			}
		}
		w[r.Intn(len(w))] += 1
		c := NewChoice(w)
		orig := append([]float64(nil), w...)
		w[0] = -1 // the Choice must not see this
		checkChoice(t, c, orig, r.Uint64())
		a, b := New(uint64(v)), New(uint64(v))
		for d := 0; d < 200; d++ {
			if got, want := c.Draw(a), choiceOnce(b, orig); got != want {
				t.Fatalf("vector %d draw %d: Choice gave %d, per-call sum %d (weights %v)", v, d, got, want, orig)
			}
		}
	}
}

// FuzzChoiceDraw holds Draw to the float scan over arbitrary weight vectors
// (up to 64 entries, eight bytes each read as a float64 with the sign
// cleared; non-finite entries read as 0) and arbitrary 64-bit words.
func FuzzChoiceDraw(f *testing.F) {
	enc := func(ws ...float64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(enc(seq.BackgroundFreq[:]...), uint64(0))
	f.Add(enc(seq.BackgroundFreq[:]...), uint64(0x9e3779b97f4a7c15))
	f.Add(enc(seq.BackgroundFreq[:]...), ^uint64(0))
	f.Add(enc(0, 1e-300, 1, 0, 1e300, 0), uint64(1)<<63)
	f.Add(enc(1e-300, 1e-300, 0), uint64(12345))
	many := make([]float64, 64)
	for i := range many {
		many[i] = float64(i%7) * 1e-3
	}
	f.Add(enc(many...), uint64(0x7ff))
	f.Fuzz(func(t *testing.T, raw []byte, word uint64) {
		n := min(len(raw)/8, 64)
		weights := make([]float64, n)
		var total float64
		for i := range weights {
			w := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])))
			if math.IsInf(w, 0) || math.IsNaN(w) {
				w = 0
			}
			weights[i] = w
			total += w
		}
		if total <= 0 {
			return // NewChoice refuses these; TestChoicePanicsOnZeroWeights
		}
		checkChoice(t, NewChoice(weights), weights, word)
	})
}

// TestBernoulliMatchesFloat64: a Bernoulli coin lands true exactly when
// Float64 on the same word is below p, at the coin's cut and its
// neighbours and at random words, for edge and random p.
func TestBernoulliMatchesFloat64(t *testing.T) {
	r := New(14)
	ps := []float64{0, math.Copysign(0, -1), -1, math.NaN(), 1, 1.5, math.Inf(1), 0.5,
		math.SmallestNonzeroFloat64, 1e-300, 0x1p-53, 0x1p-54, 1 - 0x1p-53, math.Nextafter(1, 0), 0.1, 0.072}
	for range 200 {
		ps = append(ps, r.Float64())
	}
	for _, p := range ps {
		b := NewBernoulli(p)
		low := r.Uint64() & (1<<(64-uniformBits) - 1)
		words := []uint64{r.Uint64(), r.Uint64()}
		for _, m := range []uint64{uint64(b) - 1, uint64(b), uint64(b) + 1} {
			if m < 1<<uniformBits {
				words = append(words, m<<(64-uniformBits)|low)
			}
		}
		for _, w := range words {
			if got, want := b.Draw(sourceAt(w)), sourceAt(w).Float64() < p; got != want {
				t.Fatalf("p=%v word %#x: Bernoulli %v, Float64() < p %v", p, w, got, want)
			}
		}
	}
}

// Property: Intn output is always within range for random n.
func TestQuickIntnBounds(t *testing.T) {
	s := New(12)
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := New(seed).Intn(n)
		_ = s
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds yield identical permutations.
func TestQuickPermDeterministic(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p1 := New(seed).Perm(n)
		p2 := New(seed).Perm(n)
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.NormFloat64()
	}
}

// BenchmarkChoiceDraw draws residues at background frequencies, the draw
// every generated residue makes.
func BenchmarkChoiceDraw(b *testing.B) {
	c := NewChoice(seq.BackgroundFreq[:])
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = c.Draw(s)
	}
}

// BenchmarkNewChoice is the one-time cost of a 20-weight Choice.
func BenchmarkNewChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewChoice(seq.BackgroundFreq[:])
	}
}
