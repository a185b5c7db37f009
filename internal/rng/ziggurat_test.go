package rng

import (
	"math"
	"sort"
	"testing"
)

// zigDraws returns n ziggurat deviates from seed.
func zigDraws(seed uint64, n int) []float64 {
	s := New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.ZigguratNormal()
	}
	return xs
}

// TestZigguratNormalMoments holds the mean and variance of 10⁶ draws to
// within four standard errors of 0 and 1 (1/√n and √(2/n)). A sampler
// that accepts every wedge sample without testing it against the density
// reads a variance of 1.009 here, six standard errors out.
func TestZigguratNormalMoments(t *testing.T) {
	const n = 1000000
	var sum, sumsq float64
	for _, v := range zigDraws(5, n) {
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if se := 1 / math.Sqrt(n); math.Abs(mean) > 4*se {
		t.Errorf("normal mean = %v, want 0 ± %.4f", mean, 4*se)
	}
	if se := math.Sqrt(2.0 / n); math.Abs(variance-1) > 4*se {
		t.Errorf("normal variance = %v, want 1 ± %.4f", variance, 4*se)
	}
}

// TestZigguratNormalKS is a one-sample Kolmogorov–Smirnov test of 10⁶
// draws against Φ at α = 0.001.
func TestZigguratNormalKS(t *testing.T) {
	const n = 1000000
	xs := zigDraws(11, n)
	sort.Float64s(xs)
	var d float64
	for i, x := range xs {
		phi := 0.5 * (1 + math.Erf(x/math.Sqrt2))
		d = max(d, float64(i+1)/n-phi, phi-float64(i)/n)
	}
	crit := math.Sqrt(-math.Log(0.001/2)/2) / math.Sqrt(n)
	if d > crit {
		t.Errorf("KS D = %v over %d draws, critical value at α = 0.001 is %v", d, n, crit)
	}
}

// TestZigguratNormalTail holds the share of draws beyond the base strip's
// edge zigR, the draws that take the tail branch, to 2·(1−Φ(zigR)) within
// four standard deviations of a binomial count.
func TestZigguratNormalTail(t *testing.T) {
	const n = 1000000
	var tail int
	for _, x := range zigDraws(13, n) {
		if math.Abs(x) > zigR {
			tail++
		}
	}
	p := math.Erfc(zigR / math.Sqrt2)
	want, sd := n*p, math.Sqrt(n*p*(1-p))
	if math.Abs(float64(tail)-want) > 4*sd {
		t.Errorf("%d of %d draws beyond %v, want %.0f ± %.0f (4σ)", tail, n, zigR, want, 4*sd)
	}
}

// TestZigguratNormalGolden pins the bits of the first draws at one seed:
// every inference prediction is a function of this sequence.
func TestZigguratNormalGolden(t *testing.T) {
	want := [16]uint64{
		0x3fdc5c5a4f9f6dfe, 0xbfb23d46902c9086, 0x3fcb8f7186103e90, 0x3ffcd24fba1e9df9,
		0xbfed2e554764da33, 0x3fe7071782c0b3af, 0xbfb3854d8193edb0, 0x3fedb25418e90214,
		0x3ff0714cb69ed7cd, 0x3fdaa61b87414b4b, 0xbff2f1e68b4ac970, 0x3ffad94a57559f96,
		0x3ff1ca004963a192, 0xbfe272e22457dec6, 0x3face365e87c8550, 0x3ff81d90c989de99,
	}
	s := New(20220125)
	for i, w := range want {
		if got := math.Float64bits(s.ZigguratNormal()); got != w {
			t.Errorf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func BenchmarkZigguratNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.ZigguratNormal()
	}
}
