package rng

import (
	"math"
	"testing"
	"testing/quick"
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

// TestChoiceMatchesPerCallSum: over random weight vectors (zeros, tiny and
// huge weights included), a Choice built once draws the same index as
// summing the weights on every call, draw for draw, from the same stream;
// and it keeps its own copy of the weights.
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
		// A draw lands within an ulp of a boundary too rarely to show a
		// change of summation order, so check the order on the total.
		var total float64
		for _, x := range orig {
			total += x
		}
		if c.total != total {
			t.Fatalf("vector %d: total %v, summing in order gives %v", v, c.total, total)
		}
		a, b := New(uint64(v)), New(uint64(v))
		for d := 0; d < 200; d++ {
			if got, want := c.Draw(a), choiceOnce(b, orig); got != want {
				t.Fatalf("vector %d draw %d: Choice gave %d, per-call sum %d (weights %v)", v, d, got, want, orig)
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
