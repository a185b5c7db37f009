package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomPoints(r *rng.Source, n int, spread float64) []Vec3 {
	pts := make([]Vec3, n)
	for i := range pts {
		pts[i] = Vec3{
			r.NormFloat64() * spread,
			r.NormFloat64() * spread,
			r.NormFloat64() * spread,
		}
	}
	return pts
}

func TestVecBasics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Add(w); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 0}).Unit(); got != (Vec3{}) {
		t.Errorf("Unit of zero = %v", got)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Vec3{{0, 0, 0}, {2, 0, 0}, {0, 2, 0}, {0, 0, 2}}
	c := Centroid(pts)
	want := Vec3{0.5, 0.5, 0.5}
	if c.Dist(want) > 1e-12 {
		t.Errorf("Centroid = %v, want %v", c, want)
	}
	if Centroid(nil) != (Vec3{}) {
		t.Error("Centroid(nil) != zero")
	}
}

func TestMat3MulVecIdentity(t *testing.T) {
	m := Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	v := Vec3{1, 2, 3}
	if m.MulVec(v) != v {
		t.Error("identity times v != v")
	}
}

func TestRotationAboutAxis(t *testing.T) {
	r := RotationAboutAxis(Vec3{0, 0, 1}, math.Pi/2)
	got := r.MulVec(Vec3{1, 0, 0})
	want := Vec3{0, 1, 0}
	if got.Dist(want) > 1e-12 {
		t.Errorf("rotation = %v, want %v", got, want)
	}
	if !approxEq(r.Det(), 1, 1e-12) {
		t.Errorf("rotation det = %v", r.Det())
	}
}

func TestSuperposeRecoversKnownTransform(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 25; trial++ {
		target := randomPoints(r, 30, 10)
		rot := RotationAboutAxis(
			Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()},
			r.Float64()*2*math.Pi,
		)
		trans := Vec3{r.NormFloat64() * 5, r.NormFloat64() * 5, r.NormFloat64() * 5}
		mobile := make([]Vec3, len(target))
		for i, p := range target {
			mobile[i] = rot.MulVec(p).Add(trans)
		}
		sp, err := Superpose(mobile, target)
		if err != nil {
			t.Fatal(err)
		}
		if sp.RMSD > 1e-8 {
			t.Fatalf("trial %d: RMSD after exact-transform superposition = %v", trial, sp.RMSD)
		}
		if !approxEq(sp.R.Det(), 1, 1e-9) {
			t.Fatalf("trial %d: rotation det = %v", trial, sp.R.Det())
		}
	}
}

func TestSuperposeIsProperRotationUnderReflection(t *testing.T) {
	// Reflected point clouds must still produce a proper rotation
	// (det +1), not a reflection, even though the fit is then imperfect.
	r := rng.New(5)
	target := randomPoints(r, 40, 8)
	mobile := make([]Vec3, len(target))
	for i, p := range target {
		mobile[i] = Vec3{-p.X, p.Y, p.Z} // mirror
	}
	sp, err := Superpose(mobile, target)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(sp.R.Det(), 1, 1e-9) {
		t.Fatalf("det = %v, want +1 (proper rotation)", sp.R.Det())
	}
	if sp.RMSD < 1e-6 {
		t.Fatal("mirror image superposed exactly; reflection must not be allowed")
	}
}

func TestSuperposeErrors(t *testing.T) {
	if _, err := Superpose([]Vec3{{1, 0, 0}}, []Vec3{}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Superpose(nil, nil); err == nil {
		t.Error("empty input not rejected")
	}
}

func TestRMSDZeroForIdentical(t *testing.T) {
	r := rng.New(9)
	pts := randomPoints(r, 20, 5)
	v, err := RMSD(pts, pts)
	if err != nil || v != 0 {
		t.Errorf("RMSD identical = %v, %v", v, err)
	}
}

func TestD0(t *testing.T) {
	if D0(10) != 0.5 {
		t.Errorf("D0(10) = %v, want clamp at 0.5", D0(10))
	}
	// L=100: 1.24*(85)^(1/3)-1.8 ≈ 3.65
	if got := D0(100); !approxEq(got, 1.24*math.Cbrt(85)-1.8, 1e-12) {
		t.Errorf("D0(100) = %v", got)
	}
	if D0(22) <= 0 {
		t.Error("D0 must stay positive")
	}
}

func TestTMScorePerfectMatch(t *testing.T) {
	r := rng.New(11)
	ref := randomPoints(r, 80, 12)
	rot := RotationAboutAxis(Vec3{1, 2, 3}, 1.1)
	model := make([]Vec3, len(ref))
	for i, p := range ref {
		model[i] = rot.MulVec(p).Add(Vec3{4, 5, 6})
	}
	tm, err := TMScore(model, ref)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 0.999 {
		t.Errorf("TM of rigidly moved copy = %v, want ~1", tm)
	}
}

func TestTMScoreDecreasesWithNoise(t *testing.T) {
	r := rng.New(13)
	ref := chainLike(r, 120)
	prev := 1.0
	for _, noise := range []float64{0.5, 2.0, 6.0} {
		model := make([]Vec3, len(ref))
		for i, p := range ref {
			model[i] = p.Add(Vec3{
				r.NormFloat64() * noise,
				r.NormFloat64() * noise,
				r.NormFloat64() * noise,
			})
		}
		tm, err := TMScore(model, ref)
		if err != nil {
			t.Fatal(err)
		}
		if tm >= prev {
			t.Errorf("TM did not decrease with noise %v: %v >= %v", noise, tm, prev)
		}
		if tm <= 0 || tm > 1 {
			t.Errorf("TM out of range: %v", tm)
		}
		prev = tm
	}
}

func TestTMScoreRandomStructuresLow(t *testing.T) {
	r := rng.New(17)
	a := chainLike(r, 150)
	b := chainLike(r.Split(), 150)
	tm, err := TMScore(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 0.35 {
		t.Errorf("TM of unrelated random chains = %v, expected low (<0.35)", tm)
	}
}

func TestTMScorePartialMatch(t *testing.T) {
	// First half identical, second half scrambled: the fragment-seeded
	// search must find the matching half, giving a score near 0.5.
	r := rng.New(19)
	ref := chainLike(r, 100)
	model := Clone(ref)
	for i := 50; i < 100; i++ {
		model[i] = model[i].Add(Vec3{
			r.NormFloat64() * 25,
			r.NormFloat64() * 25,
			r.NormFloat64() * 25,
		})
	}
	tm, err := TMScore(model, ref)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 0.42 || tm > 0.75 {
		t.Errorf("TM with half match = %v, want roughly 0.5", tm)
	}
}

func TestSPECSPerfectMatch(t *testing.T) {
	r := rng.New(29)
	ref := posesFromChain(chainLike(r, 50), r)
	s, err := SPECSScore(ref, ref)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.999 {
		t.Errorf("SPECS of identical poses = %v", s)
	}
}

func TestSPECSPenalizesSidechainError(t *testing.T) {
	// Same backbone, perturbed side chains: SPECS must drop while staying
	// above a backbone-destroyed comparison.
	r := rng.New(31)
	chain := chainLike(r, 60)
	ref := posesFromChain(chain, r)
	scPerturbed := make([]ResiduePose, len(ref))
	copy(scPerturbed, ref)
	for i := range scPerturbed {
		scPerturbed[i].SC = scPerturbed[i].SC.Add(Vec3{
			r.NormFloat64() * 2, r.NormFloat64() * 2, r.NormFloat64() * 2,
		})
	}
	s1, err := SPECSScore(scPerturbed, ref)
	if err != nil {
		t.Fatal(err)
	}
	if s1 >= 0.999 {
		t.Errorf("SPECS ignored side-chain error: %v", s1)
	}
	if s1 < 0.6 {
		t.Errorf("SPECS overpenalized side-chain-only error: %v", s1)
	}

	bothPerturbed := make([]ResiduePose, len(ref))
	for i := range bothPerturbed {
		d := Vec3{r.NormFloat64() * 6, r.NormFloat64() * 6, r.NormFloat64() * 6}
		bothPerturbed[i] = ResiduePose{CA: ref[i].CA.Add(d), SC: ref[i].SC.Add(d)}
	}
	s2, err := SPECSScore(bothPerturbed, ref)
	if err != nil {
		t.Fatal(err)
	}
	if s2 >= s1 {
		t.Errorf("backbone destruction (%v) should score below side-chain noise (%v)", s2, s1)
	}
}

// chainLike makes a self-avoiding-ish random walk with ~3.8 Å steps, which
// resembles a protein Cα trace closely enough for metric tests.
func chainLike(r *rng.Source, n int) []Vec3 {
	pts := make([]Vec3, n)
	cur := Vec3{}
	dir := Vec3{1, 0, 0}
	for i := 0; i < n; i++ {
		pts[i] = cur
		dir = dir.Add(Vec3{
			r.NormFloat64() * 0.6,
			r.NormFloat64() * 0.6,
			r.NormFloat64() * 0.6,
		}).Unit()
		cur = cur.Add(dir.Scale(3.8))
	}
	return pts
}

func posesFromChain(chain []Vec3, r *rng.Source) []ResiduePose {
	poses := make([]ResiduePose, len(chain))
	for i, ca := range chain {
		sc := ca.Add(Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}.Unit().Scale(2.4))
		poses[i] = ResiduePose{CA: ca, SC: sc}
	}
	return poses
}

// Property: superposition RMSD is invariant under any additional rigid
// motion applied to the mobile set.
func TestQuickSuperposeRigidInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		target := randomPoints(r, 15, 6)
		mobile := randomPoints(r, 15, 6)
		sp1, err := Superpose(mobile, target)
		if err != nil {
			return false
		}
		rot := RotationAboutAxis(Vec3{1, 1, 1}, r.Float64()*math.Pi)
		moved := make([]Vec3, len(mobile))
		for i, p := range mobile {
			moved[i] = rot.MulVec(p).Add(Vec3{3, -2, 9})
		}
		sp2, err := Superpose(moved, target)
		if err != nil {
			return false
		}
		return math.Abs(sp1.RMSD-sp2.RMSD) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: TM-score is symmetric in the degenerate sense that score of a
// structure against itself is 1 for any chain.
func TestQuickTMSelfIdentity(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 5
		r := rng.New(seed)
		c := chainLike(r, n)
		tm, err := TMScore(c, c)
		return err == nil && tm > 0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSuperpose100(b *testing.B) {
	r := rng.New(1)
	target := randomPoints(r, 100, 10)
	mobile := randomPoints(r, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Superpose(mobile, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTMScore150(b *testing.B) {
	r := rng.New(2)
	ref := chainLike(r, 150)
	model := make([]Vec3, len(ref))
	for i, p := range ref {
		model[i] = p.Add(Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TMScore(model, ref); err != nil {
			b.Fatal(err)
		}
	}
}
