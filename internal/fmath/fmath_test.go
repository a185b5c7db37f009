package fmath

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// prec is the working precision of the math/big reference: far beyond the
// 2^-106 the tables' hi + lo pairs need.
const prec = 256

func bf(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }

func f64(x *big.Float) float64 {
	v, _ := x.Float64() // nearest, ties to even
	return v
}

// bigAtanh sums s + s³/3 + s⁵/5 + … until a term drops below 2^-prec.
func bigAtanh(s *big.Float) *big.Float {
	sum := new(big.Float).SetPrec(prec).Set(s)
	pow := new(big.Float).SetPrec(prec).Set(s)
	s2 := new(big.Float).SetPrec(prec).Mul(s, s)
	for n := int64(3); ; n += 2 {
		pow.Mul(pow, s2)
		t := new(big.Float).SetPrec(prec).Quo(pow, new(big.Float).SetInt64(n))
		if t.Sign() == 0 || t.MantExp(nil) < -prec-8 {
			return sum
		}
		sum.Add(sum, t)
	}
}

// bigLogNear1 returns log c for c near 1, as 2·atanh((c−1)/(c+1)).
func bigLogNear1(c *big.Float) *big.Float {
	num := new(big.Float).SetPrec(prec).Sub(c, bf(1))
	den := new(big.Float).SetPrec(prec).Add(c, bf(1))
	l := bigAtanh(num.Quo(num, den))
	return l.Add(l, l)
}

func bigLn2() *big.Float { return bigLogNear1(bf(2)) }

// bigLog returns log x for any positive finite x.
func bigLog(x float64) *big.Float {
	m, e := math.Frexp(x)
	if m < math.Sqrt2/2 {
		m, e = 2*m, e-1
	}
	l := bigLogNear1(bf(m))
	return l.Add(l, new(big.Float).SetPrec(prec).Mul(bf(float64(e)), bigLn2()))
}

// bigExp returns e**x as 2^k·exp(x − k·ln2), the second factor by its
// Taylor series.
func bigExp(x float64) *big.Float {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(prec).Mul(bf(k), bigLn2())
	r.Sub(bf(x), r)
	sum, term := bf(1), bf(1)
	for n := int64(1); ; n++ {
		term.Mul(term, r).Quo(term, new(big.Float).SetInt64(n))
		if term.Sign() == 0 || term.MantExp(nil) < -prec-8 {
			break
		}
		sum.Add(sum, term)
	}
	return sum.SetMantExp(sum, int(k))
}

// roundTo returns x rounded to the nearest multiple of 2^-bits.
func roundTo(x *big.Float, bits int) float64 {
	v := new(big.Float).SetPrec(prec).SetMantExp(x, bits)
	neg := v.Sign() < 0
	v.Abs(v).Add(v, bf(0.5))
	i, _ := v.Int(nil)
	r := new(big.Float).SetPrec(prec).SetInt(i)
	if neg {
		r.Neg(r)
	}
	return f64(r.SetMantExp(r, -bits))
}

// TestTables recomputes every table entry and constant with math/big and
// compares the bits. 2^(1/128) is seven square roots of 2, and each
// 2^(j/128) the product of those j's bits select; log c is 2·atanh of
// (c−1)/(c+1).
func TestTables(t *testing.T) {
	ln2 := bigLn2()
	ln2N := new(big.Float).SetPrec(prec).Quo(ln2, bf(expN))
	hiN := f64(new(big.Float).SetPrec(36).Set(ln2N)) // 36 significant bits
	hi := roundTo(ln2, 42)
	consts := []struct {
		name      string
		got, want float64
	}{
		{"invLn2N", invLn2N, f64(new(big.Float).SetPrec(prec).Quo(bf(expN), ln2))},
		{"ln2HiN", ln2HiN, hiN},
		{"ln2LoN", ln2LoN, f64(ln2N.Sub(ln2N, bf(hiN)))},
		{"ln2Hi", ln2Hi, hi},
		{"ln2Lo", ln2Lo, f64(new(big.Float).SetPrec(prec).Sub(ln2, bf(hi)))},
	}
	for _, c := range consts {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %x, want %x", c.name, c.got, c.want)
		}
	}

	var roots [7]*big.Float // roots[b] = 2^(2^-(b+1))
	x := bf(2)
	for b := range roots {
		x = new(big.Float).SetPrec(prec).Sqrt(x)
		roots[b] = x
	}
	for j := range expN {
		v := bf(1)
		for b := range roots {
			if j&(expN/2>>b) != 0 {
				v.Mul(v, roots[b])
			}
		}
		s := f64(v)
		tail := new(big.Float).SetPrec(prec).Sub(v, bf(s))
		tail.Quo(tail, bf(s))
		want := [2]uint64{math.Float64bits(f64(tail)), math.Float64bits(s) - uint64(j)<<45}
		if got := [2]uint64{expTab[2*j], expTab[2*j+1]}; got != want {
			t.Errorf("expTab[%d] = %#016x, want %#016x", j, got, want)
		}
	}

	for i := range logN {
		c := math.Float64frombits(logOff + uint64(i)<<45 + 1<<44)
		lc := bigLogNear1(bf(c))
		hi := roundTo(lc, 43)
		want := [2]float64{hi, f64(lc.Sub(lc, bf(hi)))}
		if got := [2]float64{logTab[i].hi, logTab[i].lo}; got != want {
			t.Errorf("logTab[%d] (c = %v) = %x, want %x", i, c, got, want)
		}
	}
}

// ulpsApart counts the float64 steps between a and b, across zero too.
func ulpsApart(a, b float64) uint64 {
	ordered := func(x float64) int64 {
		bits := math.Float64bits(x)
		if bits>>63 != 0 {
			return -int64(bits &^ (1 << 63))
		}
		return int64(bits)
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// ulpErr returns |got − exact| in units of the last place of exact's
// binade (2^-1074 below 2^-1022).
func ulpErr(got float64, exact *big.Float) float64 {
	d := new(big.Float).SetPrec(prec).Sub(bf(got), exact)
	e := exact.MantExp(nil) - 53 // exact is in [2^(e+52), 2^(e+53))
	d.SetMantExp(d, -max(e, -1074))
	v, _ := d.Float64()
	return math.Abs(v)
}

// Bounds on the distance from the exact value, a little above the worst
// measured (0.506 ulp for Exp, 0.557 for Log, over the sample ranges
// below at 20,000 arguments each). Both are below one ulp, so each result
// is one of the two doubles around the exact value, as math's are: two
// such results are never more than 1 ulp apart.
const (
	expMaxUlp = 0.52
	logMaxUlp = 0.6
)

// checkExp fails unless Exp(x) is within 1 ulp of math.Exp(x), or else
// within expMaxUlp of the exact value: there math.Exp is the one that
// strayed. Its amd64 assembly is up to 1.9 ulps from the exact value
// (measured over 2·10⁶ arguments in [−30, 30]), and it overflows to +Inf
// from about 709.74, below the Overflow threshold math documents.
func checkExp(t *testing.T, x float64) {
	t.Helper()
	checkNear(t, "Exp", x, Exp(x), math.Exp(x), bigExp, expMaxUlp)
}

// checkLog is checkExp for Log. math.Log's amd64 assembly does not
// normalize a subnormal argument: it reads log(2^-1074) as −709.09 where
// the exact value, and GOROOT's pure-Go log, give −744.44.
func checkLog(t *testing.T, x float64) {
	t.Helper()
	checkNear(t, "Log", x, Log(x), math.Log(x), bigLog, logMaxUlp)
}

func checkNear(t *testing.T, name string, x, got, want float64, exact func(float64) *big.Float, maxUlp float64) {
	t.Helper()
	if math.IsNaN(want) && math.IsNaN(got) || ulpsApart(got, want) <= 1 {
		return
	}
	if math.IsNaN(got) || math.IsNaN(want) {
		t.Fatalf("%s(%v [%#016x]) = %v, math gives %v", name, x, math.Float64bits(x), got, want)
	}
	if e := ulpErr(got, exact(x)); e > maxUlp {
		t.Fatalf("%s(%v [%#016x]) = %v, math gives %v; %.3f ulps from the exact value",
			name, x, math.Float64bits(x), got, want, e)
	}
}

// specials are the edges both functions must handle: zeros, infinities,
// NaN, subnormals, the ends of the normal range, Exp's overflow and
// underflow thresholds and their neighbours, the edges of its special
// cases, and the edges of Log's near-one range.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	expOverflow, math.Nextafter(expOverflow, math.Inf(1)), expUnderflow, math.Nextafter(expUnderflow, math.Inf(-1)),
	709, 710, -708, -709, -744, -745, -746, 512, -512, 1024, -1024, 0x1p-54, -0x1p-54, 0x1p-60, 0x1p-28,
	1 - 0x1p-5, math.Nextafter(1-0x1p-5, 0), 1 + 0x1p-5, math.Nextafter(1+0x1p-5, 0), math.Nextafter(1, 0), math.Nextafter(1, 2),
	-0x1p-1074, -3.7,
}

// TestSpecialValues pins the special cases math documents, which math
// answers alike on every host, and holds every edge in specials to
// checkExp and checkLog.
func TestSpecialValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name    string
		f, ref  func(float64) float64
		x, want float64
	}{
		{"Exp", Exp, math.Exp, 0, 1},
		{"Exp", Exp, math.Exp, math.Copysign(0, -1), 1},
		{"Exp", Exp, math.Exp, inf, inf},
		{"Exp", Exp, math.Exp, -inf, 0},
		{"Exp", Exp, math.Exp, nan, nan},
		{"Exp", Exp, math.Exp, math.Nextafter(expOverflow, inf), inf},
		{"Exp", Exp, math.Exp, math.MaxFloat64, inf},
		{"Exp", Exp, math.Exp, math.Nextafter(expUnderflow, -inf), 0},
		{"Exp", Exp, math.Exp, -math.MaxFloat64, 0},
		{"Log", Log, math.Log, 0, -inf},
		{"Log", Log, math.Log, math.Copysign(0, -1), -inf},
		{"Log", Log, math.Log, 1, 0},
		{"Log", Log, math.Log, inf, inf},
		{"Log", Log, math.Log, -inf, nan},
		{"Log", Log, math.Log, -1, nan},
		{"Log", Log, math.Log, -0x1p-1074, nan},
		{"Log", Log, math.Log, nan, nan},
	} {
		for _, got := range []float64{c.f(c.x), c.ref(c.x)} {
			if math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
				t.Errorf("%s(%v) = %v (math: %v), want %v", c.name, c.x, c.f(c.x), c.ref(c.x), c.want)
			}
		}
	}
	for _, x := range specials {
		checkExp(t, x)
		checkLog(t, x)
	}
}

// kernelRanges are the arguments the inference kernel passes, each drawn
// a million times by TestMatchesMath, and a sweep of each function's
// whole domain by random bit patterns.
var kernelRanges = []struct {
	name string
	exp  bool
	draw func(r *rand.Rand) float64
}{
	// Log: the field magnitudes |0.45·N + 1| and final errors over
	// PLDDTScale whose 1.8th powers the residue loop takes, and the
	// target lengths of GPUSeconds' L^1.5.
	{"Log magnitudes", false, func(r *rand.Rand) float64 { return math.Abs(r.NormFloat64()*0.45 + 1) }},
	{"Log errors", false, func(r *rand.Rand) float64 { return 0.1 + 3*r.Float64() }},
	{"Log lengths", false, func(r *rand.Rand) float64 { return float64(1 + r.IntN(40000)) }},
	// Log: the ziggurat tail's uniforms in (0, 1).
	{"Log uniforms", false, func(r *rand.Rand) float64 { return 1 - r.Float64() }},
	{"Log bit patterns", false, func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64() >> 1) }},
	// Exp: yf·log x for the pLDDT shape (−0.2) and for L^1.5 (0.5), the
	// recycle decay −r/τ and the ziggurat wedge's −x²/2.
	{"Exp powers", true, func(r *rand.Rand) float64 { return -0.2 * math.Log(0.01+3.5*r.Float64()) }},
	{"Exp lengths", true, func(r *rand.Rand) float64 { return 0.5 * math.Log(float64(1+r.IntN(40000))) }},
	{"Exp decay", true, func(r *rand.Rand) float64 { return -40 * r.Float64() }},
	{"Exp wedge", true, func(r *rand.Rand) float64 { x := 3.5 * r.Float64(); return -0.5 * x * x }},
	{"Exp domain", true, func(r *rand.Rand) float64 { return -746 + 1456*r.Float64() }},
	{"Exp bit patterns", true, func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) }},
}

// TestMatchesMath holds Exp and Log within 1 ulp of math.Exp and math.Log
// on a million arguments from each of the kernel's ranges (checkExp's
// exception aside).
func TestMatchesMath(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i, kr := range kernelRanges {
		r := rand.New(rand.NewPCG(20220125, uint64(i)))
		for range n {
			if x := kr.draw(r); kr.exp {
				checkExp(t, x)
			} else {
				checkLog(t, x)
			}
		}
	}
}

// TestNearExact holds both functions within expMaxUlp and logMaxUlp of the
// exact value, computed with math/big, on the kernel's ranges and across
// Log's near-one edges at ±2^-5.
func TestNearExact(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	edges := []struct {
		name   string
		lo, hi float64
	}{{"Log below 1", 0.94, 1}, {"Log above 1", 1, 1.06}}
	for i, kr := range kernelRanges {
		r := rand.New(rand.NewPCG(7, uint64(i)))
		for range n {
			x := kr.draw(r)
			if kr.exp {
				if y := Exp(x); y != 0 && !math.IsInf(y, 0) && !math.IsNaN(x) {
					if e := ulpErr(y, bigExp(x)); e > expMaxUlp {
						t.Fatalf("Exp(%v) = %v is %.3f ulps from the exact value", x, y, e)
					}
				}
			} else if x > 0 && !math.IsInf(x, 0) && x != 1 {
				if e := ulpErr(Log(x), bigLog(x)); e > logMaxUlp {
					t.Fatalf("Log(%v) = %v is %.3f ulps from the exact value", x, Log(x), e)
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(7, 0))
	for _, eg := range edges {
		for range n {
			x := eg.lo + (eg.hi-eg.lo)*r.Float64()
			if e := ulpErr(Log(x), bigLog(x)); x != 1 && e > logMaxUlp {
				t.Fatalf("%s: Log(%v) = %v is %.3f ulps from the exact value", eg.name, x, Log(x), e)
			}
		}
	}
}

// Bit goldens: SHA-256 over the bits of Exp and Log on 2^16 arguments of
// each kernel range. They are the same under every build: amd64 with and
// without FMA, and 386.
const (
	expGolden = "db59601c5bba684de30b008f189cc7cef2eeecbb5325766683a568dae2363227"
	logGolden = "4c2c952d813f6ad218b8697866ae248903ef66ca13ab21456c6acbdb9c6dfc88"
)

func TestGolden(t *testing.T) {
	he, hl := sha256.New(), sha256.New()
	var buf [8]byte
	for i, kr := range kernelRanges {
		r := rand.New(rand.NewPCG(1, uint64(i)))
		h, f := hl, Log
		if kr.exp {
			h, f = he, Exp
		}
		for range 1 << 16 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f(kr.draw(r))))
			h.Write(buf[:])
		}
	}
	if got := fmt.Sprintf("%x", he.Sum(nil)); got != expGolden {
		t.Errorf("Exp's bits moved: digest %s, want %s", got, expGolden)
	}
	if got := fmt.Sprintf("%x", hl.Sum(nil)); got != logGolden {
		t.Errorf("Log's bits moved: digest %s, want %s", got, logGolden)
	}
}

func FuzzExp(f *testing.F) {
	for _, x := range specials {
		f.Add(x)
	}
	f.Add(-0.2 * math.Log(1.3))
	f.Fuzz(checkExp)
}

func FuzzLog(f *testing.F) {
	for _, x := range specials {
		f.Add(x)
	}
	f.Add(1.3)
	f.Fuzz(checkLog)
}

var sink []float64

// benchArgs returns 256 field magnitudes |0.45·N + 1|, one draw record's
// worth, and the exponents the residue loop's powers pass to Exp for them.
func benchArgs() (mags, exps []float64) {
	r := rand.New(rand.NewPCG(20220125, 0))
	mags, exps = make([]float64, 256), make([]float64, 256)
	for i := range mags {
		mags[i] = math.Abs(r.NormFloat64()*0.45 + 1)
		exps[i] = -0.2 * math.Log(mags[i])
	}
	return mags, exps
}

// BenchmarkExp is one op of 256 Exp calls on the exponents of a draw
// record's powers.
func BenchmarkExp(b *testing.B) {
	_, xs := benchArgs()
	sink = make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, x := range xs {
			sink[i] = Exp(x)
		}
	}
}

// BenchmarkLog is one op of 256 Log calls on a draw record's field
// magnitudes.
func BenchmarkLog(b *testing.B) {
	xs, _ := benchArgs()
	sink = make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, x := range xs {
			sink[i] = Log(x)
		}
	}
}
