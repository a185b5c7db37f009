package fold

import "math"

// powFixed evaluates math.Pow(x, y) bit for bit for one y and many x,
// doing once the exponent split math.Pow repeats on every call.
//
// For y > 0 math.Pow takes yi, yf := math.Modf(y), moves yf into
// [-0.5, 0.5] (yf > 0.5 gives yf-1 and yi+1), and returns
// Ldexp(Exp(yf·Log(x)) · x1^yi, ae), where x1·2^xe = x from Frexp and the
// power of x1 is renormalised by powers of two as it goes. When yi is 2
// and x lies in [2^-300, 2^300], every scaling by a power of two is exact
// and every product stays a normal number, so the rounding steps are
// exactly those of Exp(yf·Log(x)) · (x·x). That covers the calibrated
// pLDDT shape 1.8 and every y in (1.5, 2.5]; any other y or x goes to
// math.Pow.
type powFixed struct {
	y, yf float64
	sq    bool // yi is 2 after math.Pow's adjustment
}

func newPowFixed(y float64) powFixed {
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	return powFixed{y: y, yf: yf, sq: y > 0 && yi == 2}
}

func (p powFixed) pow(x float64) float64 {
	if p.sq && x >= 0x1p-300 && x <= 0x1p300 {
		// The conversion keeps a caller's addition from fusing with the
		// product: math.Pow rounds its result before anyone adds to it.
		return float64(math.Exp(p.yf*math.Log(x)) * (x * x))
	}
	return math.Pow(x, p.y)
}
