package fmath

import "math"

const (
	expN    = 128 // entries of expTab: 2^(j/128), j = 0…127
	logN    = 128 // intervals of Log's reduced argument
	invLn2N = 0x1.71547652b82fep0 * expN
	ln2HiN  = 0x1.62e42fefap-8 // ln2/128 to 36 bits: k·ln2HiN is exact for |k| < 2^17.5, all Exp meets
	ln2LoN  = 0x1.cf79abc9e3b3ap-47
	shift   = 0x1.8p52           // adding it rounds to an integer, kept in the low mantissa bits
	ln2Hi   = 0x1.62e42fefa38p-1 // ln2 to a multiple of 2^-42: k·ln2Hi is exact for |k| < 2^11
	ln2Lo   = 0x1.ef35793c7673p-45

	// math.Exp's thresholds: beyond them it returns +Inf and 0.
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
)

// Exp returns e**x. Special cases and the overflow and underflow
// thresholds are those of math.Exp.
//
// With k = round(x·128/ln2) and r = x − k·ln2/128 (|r| ≤ ln2/256),
// exp(x) = scale·(1 + tmp): scale is 2^(k/128) rounded, from expTab and
// k's exponent bits, and tmp adds the table's tail to exp(r) − 1, a
// degree-5 Taylor polynomial.
func Exp(x float64) float64 {
	abstop := math.Float64bits(x) >> 52 & 0x7ff
	large := false
	if abstop-0x3c9 >= 0x408-0x3c9 { // |x| < 2^-54, |x| ≥ 512, Inf or NaN
		switch {
		case abstop < 0x3c9: // tiny, ±0 among them
			return 1 + x
		case x != x || x > expOverflow: // NaN, +Inf
			return x + math.Inf(1)
		case x < expUnderflow: // -Inf among them
			return 0
		}
		large = true
	}
	kd := float64(invLn2N*x) + shift
	ki := math.Float64bits(kd)
	kd -= shift
	r := x - float64(kd*ln2HiN) - float64(kd*ln2LoN)
	j := 2 * (ki % expN)
	tail := math.Float64frombits(expTab[j])
	sbits := expTab[j+1] + ki<<(52-7)
	r2 := float64(r * r)
	tmp := tail + r + float64(r2*(0.5+float64(r*(1.0/6)))) + float64(float64(r2*r2)*(1.0/24+float64(r*(1.0/120))))
	if large {
		return expLarge(sbits, tmp, x > 0)
	}
	scale := math.Float64frombits(sbits)
	return scale + float64(scale*tmp)
}

// expLarge finishes Exp for 512 ≤ |x| within math.Exp's thresholds, where
// sbits' exponent field has overflowed: it builds the scale 2^1009 lower,
// or 2^1022 higher, and scales back once. A result below 2^-1022 is
// rounded to 53 bits first and then to its subnormal place by one exact
// step, so it is not rounded twice.
func expLarge(sbits uint64, tmp float64, positive bool) float64 {
	if positive {
		scale := math.Float64frombits(sbits - 1009<<52)
		return 0x1p1009 * (scale + float64(scale*tmp))
	}
	scale := math.Float64frombits(sbits + 1022<<52)
	y := scale + float64(scale*tmp)
	if y < 1 {
		// Adding 1 rounds y to the bits it keeps below 2^-1022; hi + lo
		// carries y's own rounding error into that one rounding.
		lo := scale - y + float64(scale*tmp)
		hi := 1 + y
		lo = 1 - hi + y + lo
		y = (hi + lo) - 1
	}
	return 0x1p-1022 * y
}

// Log returns the natural logarithm of x. Special cases are those of
// math.Log.
func Log(x float64) float64 {
	ix := math.Float64bits(x)
	if ix-nearOneLo < nearOneHi-nearOneLo {
		return log1pSmall(x - 1)
	}
	if top := ix >> 48; top-0x0010 >= 0x7ff0-0x0010 { // below 2^-1022, negative, Inf or NaN
		switch {
		case ix<<1 == 0: // ±0
			return math.Inf(-1)
		case ix == 0x7ff0000000000000: // +Inf
			return x
		case top&0x8000 != 0 || top&0x7ff0 == 0x7ff0: // negative or NaN
			return math.NaN()
		}
		ix = math.Float64bits(x*0x1p52) - 52<<52 // subnormal: normalize
	}
	// x = 2^k·z with z in [0x1.6p-1, 0x1.6p0), split into logN intervals of
	// equal width in each binade; c is the center of z's interval, short
	// enough that z − c is exact, and |r| = |z/c − 1| < 2^-8.
	tmp := ix - logOff
	i := tmp >> (52 - 7) % logN
	kd := float64(int64(tmp) >> 52)
	iz := ix - tmp&(0xfff<<52)
	z := math.Float64frombits(iz)
	c := math.Float64frombits(iz&^(1<<45-1) | 1<<44)
	r := (z - c) / c

	// log x = k·ln2 + log c + log1p(r). hi + lo is the first three terms
	// of that sum: w is exact, and lo picks up hi's rounding error.
	w := float64(kd*ln2Hi) + logTab[i].hi
	hi := w + r
	lo := w - hi + r + float64(kd*ln2Lo) + logTab[i].lo
	// log1p(r) − r, Taylor to degree 7.
	r2 := float64(r * r)
	p := float64(r2 * (-0.5 + float64(r*(1.0/3)) + float64(r2*(-0.25+float64(r*(1.0/5))+float64(r2*(-1.0/6+float64(r*(1.0/7))))))))
	return lo + p + hi
}

const (
	logOff = 0x3fe6000000000000 // 0x1.6p-1
	// Log takes log1pSmall for x in [1 − 2^-5, 1 + 2^-5), where
	// log c + log1p(r) would cancel.
	nearOneLo = 0x3fef000000000000 // 1 − 2^-5
	nearOneHi = 0x3ff0800000000000 // 1 + 2^-5
)

// log1pSmall returns log1p(r) for |r| ≤ 2^-5 with r exact, the Taylor
// series to degree 12: the first term left out is below 2^-60·|r|.
func log1pSmall(r float64) float64 {
	r2 := float64(r * r)
	r4 := float64(r2 * r2)
	r8 := float64(r4 * r4)
	// q(r) = −1/2 + r/3 − r²/4 + … − r^10/12, so log1p(r) = r + r²·q(r).
	q0 := -0.5 + float64(r*(1.0/3)) + float64(r2*(-0.25+float64(r*(1.0/5))))
	q1 := -1.0/6 + float64(r*(1.0/7)) + float64(r2*(-1.0/8+float64(r*(1.0/9))))
	q2 := -1.0/10 + float64(r*(1.0/11)) + float64(r2*(-1.0/12))
	q := q0 + float64(r4*q1) + float64(r8*q2)
	return r + float64(r2*q)
}
