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
	for i := 0; i < n; i++ {
		counts[s.Choice(w)]++
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
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	New(1).Choice([]float64{0, 0})
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
