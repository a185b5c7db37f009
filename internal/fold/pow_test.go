package fold

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// powShapes are the exponents powFixed is checked at: the calibrated pLDDT
// shape, shapes an ablation could set on either side of it, the ends of
// the (1.5, 2.5] fast range, and shapes that must fall back to math.Pow.
var powShapes = []float64{
	1.8, 1.6, 2.2, 2.49, 2, 2.5, 1.5000000000000002,
	0.7, 3.3, 0.5, 1.5, 2.5000000000000004, 1, 0, -1.8, -2, math.NaN(), math.Inf(1),
}

func checkPowFixed(t *testing.T, y, x float64) {
	t.Helper()
	got, want := newPowFixed(y).pow(x), math.Pow(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pow(%v [%#016x], %v) = %v [%#016x], math.Pow gives %v [%#016x]",
			x, math.Float64bits(x), y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// powInputs returns the x values TestPowFixedBitwise feeds every shape.
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

// TestPowFixedBitwise: for every shape, powFixed agrees with math.Pow to the
// bit on the campaign's own inputs, on uniform values, and on random bit
// patterns and the edges of the fast path's range.
func TestPowFixedBitwise(t *testing.T) {
	xs := powInputs()
	for _, y := range powShapes {
		for _, x := range xs {
			checkPowFixed(t, y, x)
		}
	}
}

// TestPowFixedTakesFastPath pins which shapes skip math.Pow, so a change to
// the split that silently sent the calibrated shape to the fallback fails.
func TestPowFixedTakesFastPath(t *testing.T) {
	for _, y := range []float64{1.8, 1.6, 2.2, 2.49, 2, 2.5} {
		if !newPowFixed(y).sq {
			t.Errorf("shape %v falls back to math.Pow", y)
		}
	}
	for _, y := range []float64{0.7, 3.3, 0.5, 1.5, 2.5000000000000004, -1.8, math.NaN(), math.Inf(1)} {
		if newPowFixed(y).sq {
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
