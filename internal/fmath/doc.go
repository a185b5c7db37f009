// Package fmath is the repo's own exp and log: pure Go, table-driven, and
// the same bits on every host.
//
// The paper ran one campaign on two CPU families (POWER9 for inference,
// x86-64 for features), so a kernel's answer must not depend on the CPU
// that computed it. math.Exp does: its amd64 assembly with FMA, without
// FMA, and GOROOT's pure-Go exp (386, ppc64le) round differently, by up to
// 1.9 ulps from the exact value on amd64. Exp and Log here use only IEEE
// additions, multiplications and one division, each rounded on its own:
// every product that feeds an addition is wrapped in float64(), which the
// Go spec says rounds, so no architecture fuses it into an FMA. The tables
// are literal constants (tables.go), rechecked bit for bit against
// math/big by TestTables.
//
// Exp follows Tang (ACM TOMS 15(2), 1989) in the layout of the ARM
// optimized-routines and musl exp. With N = 128 and k = round(x·N/ln2),
// taken with the 1.5·2^52 shift trick, x = k·ln2/N + r with |r| ≤ ln2/256;
// ln2/N is split into a 36-bit high part, whose product with k is exact,
// and a low part. exp(x) = 2^(k/N)·exp(r): a 128-entry table holds
// 2^(j/128) as scale bits (with j's own bits subtracted, so adding k's
// bits sets the exponent) and a tail, and exp(r) − 1 is the degree-5
// Taylor polynomial. Results near the overflow and subnormal ends are
// built 2^1009 low or 2^1022 high and scaled once, a subnormal one rounded
// to its place in a single step.
//
// Log follows Tang (ACM TOMS 16(4), 1990), again in the ARM layout:
// x = 2^k·z with z in [0x1.6p-1, 0x1.6p0), split into 128 intervals of
// equal width in each binade. c is the center of z's interval, a double of
// nine significant bits, so z − c is exact, and r = (z − c)/c, one
// rounding, with |r| < 2^-8. log x = k·ln2 + log c + log1p(r): the table
// holds log c as a part that is a multiple of 2^-43, so that with ln2's
// 42-bit high part the sum k·ln2hi + log c needs no rounding, and a low
// part; log1p(r) − r is the Taylor polynomial to degree 7. For x within
// 2^-5 of 1, where log c and log1p(r) would cancel, Log takes r = x − 1
// exactly and the Taylor series to degree 12.
//
// Two departures from the ARM design, both for accuracy without FMA: r is
// a division by the short c rather than (z − chi − clo)·(1/c), since a
// division rounds once where that form rounds twice (the two measured the
// same speed); and log c carries a low part instead of c being searched
// for one whose log is nearly a double. The degree-7 and degree-12
// polynomials, where a degree-6 Taylor polynomial would leave up to half
// an ulp near 1 ± 2^-5, come from the same error budget.
//
// Measured against math/big: Exp within 0.506 ulp of the exact value and
// Log within 0.557, so each result is one of the two doubles around it, as
// math's are; Exp and Log are within 1 ulp of math.Exp and math.Log
// wherever math's result is itself within an ulp of the exact value.
// Special cases (NaN, ±Inf, ±0, negative Log arguments, subnormals, Exp's
// overflow and underflow thresholds) answer as math documents; math.Log's
// amd64 assembly does not normalize a subnormal argument, and Log does.
//
// Callers: the inference kernel's every exp, log and power goes through
// this package. fold.powFixed (each sampled residue's mag^PLDDTShape, the
// per-model (finalErr/PLDDTScale)^PLDDTShape, and GPUSeconds' L^1.5),
// fold's difficulty.err (the recycle decay), and rng.ZigguratNormal's
// wedge and tail. Still on math: the world's draws (rng's Gamma, the polar
// NormFloat64 and Poisson, whose bits the campaign world and the CASP set
// are pinned to), the feature kernel (core/features.go) and
// fold/complex.go.
package fmath
