package fold

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// powShapes are the exponents powFixed is checked at: the calibrated pLDDT
// shape, shapes an ablation could set on either side of it, the ends of
// the (0.5, 2.5] fast range, GPUSeconds' 1.5, and shapes that must fall
// back to math.Pow.
var powShapes = []float64{
	1.8, 1.6, 2.2, 2.49, 2, 2.5, 1.5000000000000002,
	0.7, 3.3, 0.5, 1.5, 2.5000000000000004, 1, 0, -1.8, -2, math.NaN(), math.Inf(1),
}

// powUlps bounds how far powFixed's x^y may be from math.Pow's, in ulps of
// the result. Both form exp(yf·log x)·x^yi with the same x^yi, and both
// logs are within an ulp of the exact value, so the two logs differ by at
// most ulp(log x) and the rounded exponents yf·log x by at most
// |yf|·ulp(log x) + ulp(yf·log x). exp turns that absolute difference into
// a relative one, worth up to 2^53 times as many ulps of the result. The 4
// covers the two exps' own errors (fmath.Exp's 0.52 ulp, math.Exp's
// amd64 assembly up to 1.9) and each side's final product. At |log x|
// near 208, the ends of [2^-300, 2^300], the bound is about 260 ulps
// (measured at most 129, at y = 1.5); on the residue loop's field
// magnitudes it is about 6 (measured at most 4 for y = 1.8).
func powUlps(x, yf float64) uint64 {
	l := math.Log(x)
	d := math.Abs(yf)*ulp(l) + ulp(yf*l)
	return uint64(math.Ldexp(d, 53)) + 4
}

// ulp is the gap from |v| to the next float64 up.
func ulp(v float64) float64 {
	v = math.Abs(v)
	return math.Nextafter(v, math.Inf(1)) - v
}

// checkPowFixed holds powFixed to math.Pow: bit for bit off the fast
// path, within powUlps on it.
func checkPowFixed(t *testing.T, y, x float64) {
	t.Helper()
	p := newPowFixed(y)
	got, want := p.pow(x), math.Pow(x, y)
	fast := p.yi != 0 && x >= 0x1p-300 && x <= 0x1p300
	if !fast && math.Float64bits(got) == math.Float64bits(want) {
		return
	}
	if fast && ulpsApart(got, want) <= powUlps(x, p.yf) {
		return
	}
	t.Fatalf("pow(%v [%#016x], %v) = %v [%#016x], math.Pow gives %v [%#016x] (fast path %v)",
		x, math.Float64bits(x), y, got, math.Float64bits(got), want, math.Float64bits(want), fast)
}

// powInputs returns the x values the bitwise and bound tests feed every
// shape.
func powInputs() []float64 {
	r := rng.New(20220125)
	var xs []float64
	// The residue loop's own argument, mag·finalErr/PLDDTScale: field
	// magnitudes |N·0.45+1| times the final errors difficultyOf can give.
	cal := DefaultCalibration()
	for i := 0; i < 20000; i++ {
		mag := math.Abs(r.NormFloat64()*0.45 + 1)
		finalErr := 0.6 + 12*r.Float64()
		xs = append(xs, mag*finalErr/cal.PLDDTScale)
	}
	for i := 0; i < 20000; i++ {
		xs = append(xs, 10*r.Float64(), 1e6*r.Float64())
	}
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Float64frombits(r.Uint64()))
	}
	xs = append(xs,
		0, math.Copysign(0, -1), 1, -1, 0.5, 2,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), // subnormals
		0x1p-1022, 0x1p-301, 0x1p-300, math.Nextafter(0x1p-300, 0),
		0x1p300, math.Nextafter(0x1p300, math.Inf(1)), 0x1p301, 0x1p512, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -0x1p-300, -3.7,
	)
	return xs
}

// powGolden is a SHA-256 over powFixed's bits for every fast-path shape
// and input of powInputs. Its exp and log are the repo's own, so the
// digest is the same on every host: amd64 with and without FMA, and 386.
const powGolden = "89d15003177928a14271f6b220ec8c60429a028915211d9f4236ed6423670c30"

// TestPowFixedBitwise: off the fast path powFixed is math.Pow to the bit,
// and on it its bits hash to powGolden.
func TestPowFixedBitwise(t *testing.T) {
	xs := powInputs()
	h := sha256.New()
	var buf [8]byte
	for _, y := range powShapes {
		p := newPowFixed(y)
		for _, x := range xs {
			got := p.pow(x)
			if p.yi != 0 && x >= 0x1p-300 && x <= 0x1p300 {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(got))
				h.Write(buf[:])
			} else if want := math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pow(%v, %v) = %v off the fast path, math.Pow gives %v", x, y, got, want)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != powGolden {
		t.Errorf("powFixed's bits moved: digest %s, want %s", got, powGolden)
	}
}

// TestPowFixedNearPow holds powFixed within powUlps of math.Pow on
// powInputs and on a sweep of [2^-300, 2^300], for every shape.
func TestPowFixedNearPow(t *testing.T) {
	xs := powInputs()
	r := rng.New(1)
	for range 200_000 {
		xs = append(xs, math.Ldexp(1+r.Float64(), -300+r.Intn(600)))
	}
	for _, y := range powShapes {
		for _, x := range xs {
			checkPowFixed(t, y, x)
		}
	}
}

// TestPowFixedTakesFastPath pins which shapes skip math.Pow, so a change to
// the split that silently sent the calibrated shape or GPUSeconds' 1.5 to
// the fallback fails.
func TestPowFixedTakesFastPath(t *testing.T) {
	for _, y := range []float64{1.8, 1.6, 2.2, 2.49, 2, 2.5, 1.5, 0.7, 1} {
		if newPowFixed(y).yi == 0 {
			t.Errorf("shape %v falls back to math.Pow", y)
		}
	}
	for _, y := range []float64{3.3, 0.5, 0, 2.5000000000000004, -1.8, math.NaN(), math.Inf(1)} {
		if newPowFixed(y).yi != 0 {
			t.Errorf("shape %v takes the fast path", y)
		}
	}
}

func FuzzPowFixed(f *testing.F) {
	for _, y := range powShapes {
		f.Add(1.3, y)
	}
	f.Add(0x1p-300, 1.8)
	f.Add(math.SmallestNonzeroFloat64, 2.2)
	f.Add(math.Inf(1), 1.8)
	f.Fuzz(func(t *testing.T, x, y float64) {
		checkPowFixed(t, y, x)
	})
}
