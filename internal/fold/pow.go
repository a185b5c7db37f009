package fold

import (
	"math"

	"repro/internal/fmath"
)

// powFixed evaluates x^y for one y and many x, doing once the exponent
// split math.Pow repeats on every call: yi, yf := math.Modf(y), and
// yf > 0.5 becomes yf−1 with yi+1, so |yf| ≤ 0.5. When yi is 1 or 2 (y in
// (0.5, 2.5]) and x lies in [2^-300, 2^300], it returns
// fmath.Exp(yf·fmath.Log(x))·x^yi, the product math.Pow forms, where x^yi
// stays a normal number; any other y or x goes to math.Pow. The calibrated
// pLDDT shape 1.8 (yi 2, yf −0.2) and GPUSeconds' 1.5 (yi 1, yf 0.5) take
// the fast path. Its exp and log are the repo's own, so its bits are the
// same on every host; they are within powUlps of math.Pow's.
type powFixed struct {
	y, yf float64
	yi    int // 1 or 2 on the fast path, 0 for math.Pow
}

func newPowFixed(y float64) powFixed {
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	p := powFixed{y: y, yf: yf}
	if y > 0 && (yi == 1 || yi == 2) {
		p.yi = int(yi)
	}
	return p
}

func (p powFixed) pow(x float64) float64 {
	return p.finish(x, p.exponent(x))
}

// exponent is pow's first half, yf·log x.
func (p powFixed) exponent(x float64) float64 {
	return float64(p.yf * fmath.Log(x))
}

// finish is pow's second half: x^y from t = p.exponent(x).
func (p powFixed) finish(x, t float64) float64 {
	if p.yi == 0 || !(x >= 0x1p-300 && x <= 0x1p300) { // NaN fails both
		return math.Pow(x, p.y)
	}
	xi := x
	if p.yi == 2 {
		xi = float64(x * x)
	}
	// The conversions keep each product from fusing with an addition,
	// inside Exp or in a caller.
	return float64(fmath.Exp(t) * xi)
}

// powAll sets dst[i] to newPowFixed(y).pow(xs[i]). It takes every log
// first and every exp after: one pass doing both chains an exp on its log,
// a longer dependency chain than the CPU overlaps across iterations, and
// the two passes measured about a sixth faster on 256 field magnitudes.
func powAll(dst, xs []float64, y float64) {
	p := newPowFixed(y)
	for i, x := range xs {
		dst[i] = p.exponent(x)
	}
	for i, x := range xs {
		dst[i] = p.finish(x, dst[i])
	}
}

// lengthPow is GPUSeconds' power of the target length, L^1.5.
var lengthPow = newPowFixed(1.5)
