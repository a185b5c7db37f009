package relax

import (
	"math"
	"slices"
	"testing"

	"repro/internal/fold"
	"repro/internal/geom"
	"repro/internal/rng"
)

// cleanChain returns a violation-free native-like structure.
func cleanChain(seed uint64, n int) *fold.Native {
	return fold.GenerateTopology(seed, n)
}

// clashedChain plants clashes and bumps the way real model flaws occur:
// residue pairs that are already spatially close are pulled together with a
// smooth along-chain falloff, so chain connectivity stays intact and the
// perturbation is local.
func clashedChain(seed uint64, n, clashes, bumps int) ([]geom.Vec3, []geom.Vec3) {
	nat := cleanChain(seed, n)
	ca := geom.Clone(nat.CA)
	sc := geom.Clone(nat.SC)
	r := rng.New(seed).SplitNamed("plant")
	plant := func(targetD float64) {
		for tries := 0; tries < 500; tries++ {
			i := r.Intn(n)
			j := r.Intn(n)
			if j < i {
				i, j = j, i
			}
			if j-i < 5 {
				continue
			}
			d := ca[i].Dist(ca[j])
			if d < 4.0 || d > 8.0 {
				continue
			}
			// Pull the segment around j toward i with Gaussian falloff.
			dir := ca[i].Sub(ca[j]).Unit()
			pull := d - targetD
			for k := 0; k < n; k++ {
				w := math.Exp(-float64((k-j)*(k-j)) / 8.0)
				shift := dir.Scale(pull * w)
				ca[k] = ca[k].Add(shift)
				sc[k] = sc[k].Add(shift)
			}
			return
		}
	}
	// Verify counts: plants can partially undo each other.
	for attempt := 0; attempt < clashes*8+8; attempt++ {
		if CountViolations(ca).Clashes >= clashes {
			break
		}
		plant(1.2 + 0.5*r.Float64())
	}
	for attempt := 0; attempt < bumps*8+8; attempt++ {
		if CountViolations(ca).Bumps >= bumps+clashes {
			break
		}
		plant(2.2 + 1.0*r.Float64())
	}
	return ca, sc
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil, DefaultForceField()); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewSystem(make([]geom.Vec3, 3), make([]geom.Vec3, 2), DefaultForceField()); err == nil {
		t.Error("mismatched CA/SC accepted")
	}
}

func TestEnergyForcesFiniteDifference(t *testing.T) {
	// The analytic gradient must match numerical differentiation; this is
	// the make-or-break correctness test for the force field.
	nat := cleanChain(3, 12)
	ca, sc := clashedChain(3, 12, 1, 1)
	_ = nat
	sys, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		t.Fatal(err)
	}
	forces := make([]geom.Vec3, len(sys.Pos))
	e0 := sys.EnergyForces(forces)
	const h = 1e-6
	for a := 0; a < len(sys.Pos); a += 5 { // spot-check a subset of atoms
		for dim := 0; dim < 3; dim++ {
			orig := sys.Pos[a]
			bump := orig
			switch dim {
			case 0:
				bump.X += h
			case 1:
				bump.Y += h
			case 2:
				bump.Z += h
			}
			sys.Pos[a] = bump
			scratch := make([]geom.Vec3, len(sys.Pos))
			e1 := sys.EnergyForces(scratch)
			sys.Pos[a] = orig
			numGrad := (e1 - e0) / h
			var analytic float64
			switch dim {
			case 0:
				analytic = -forces[a].X
			case 1:
				analytic = -forces[a].Y
			case 2:
				analytic = -forces[a].Z
			}
			if math.Abs(numGrad-analytic) > 1e-2*(1+math.Abs(analytic)) {
				t.Fatalf("atom %d dim %d: numerical grad %v vs analytic %v", a, dim, numGrad, analytic)
			}
		}
	}
}

func TestCountViolations(t *testing.T) {
	nat := cleanChain(11, 80)
	v := CountViolations(nat.CA)
	if v.Clashes != 0 {
		t.Errorf("clean chain has %d clashes", v.Clashes)
	}
	ca, _ := clashedChain(11, 80, 3, 5)
	v2 := CountViolations(ca)
	if v2.Clashes < 2 {
		t.Errorf("planted 3 clashes, counted %d", v2.Clashes)
	}
	if v2.Bumps <= v2.Clashes {
		t.Errorf("bumps (%d) must include clashes (%d) plus planted bumps", v2.Bumps, v2.Clashes)
	}
}

func TestMinimizeReducesEnergy(t *testing.T) {
	ca, sc := clashedChain(7, 60, 3, 6)
	sys, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		t.Fatal(err)
	}
	res := Minimize(sys, DefaultMinimizeOptions())
	if res.FinalEnergy >= res.InitialEnergy {
		t.Errorf("energy did not decrease: %v -> %v", res.InitialEnergy, res.FinalEnergy)
	}
	if !res.Converged {
		t.Error("minimization did not converge")
	}
}

func TestRelaxRemovesClashes(t *testing.T) {
	// The core Section 4.4 result: all protocols remove every clash.
	for _, p := range []Platform{PlatformAF2, PlatformCPU, PlatformGPU} {
		ca, sc := clashedChain(13, 100, 4, 8)
		res, err := Relax(ca, sc, DefaultOptions(p))
		if err != nil {
			t.Fatal(err)
		}
		if res.Before.Clashes == 0 {
			t.Fatal("test setup failed to plant clashes")
		}
		if res.After.Clashes != 0 {
			t.Errorf("%v: %d clashes remain after relaxation", p, res.After.Clashes)
		}
		if res.After.Bumps > res.Before.Bumps {
			t.Errorf("%v: bumps increased %d -> %d", p, res.Before.Bumps, res.After.Bumps)
		}
	}
}

func TestRelaxPreservesStructure(t *testing.T) {
	// Fig. 3: relaxation must not change the global structure. TM-score of
	// relaxed vs unrelaxed must stay near 1.
	ca, sc := clashedChain(17, 120, 2, 4)
	res, err := Relax(ca, sc, DefaultOptions(PlatformGPU))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := geom.TMScore(res.CA, ca)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 0.9 {
		t.Errorf("relaxation changed structure: TM = %v", tm)
	}
	rmsd, err := geom.SuperposedRMSD(res.CA, ca)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > 1.5 {
		t.Errorf("relaxation moved atoms by %v Å RMSD", rmsd)
	}
}

func TestOptimizedProtocolSingleRound(t *testing.T) {
	ca, sc := clashedChain(19, 90, 3, 5)
	res, err := Relax(ca, sc, DefaultOptions(PlatformGPU))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("optimized protocol ran %d rounds, want exactly 1", res.Rounds)
	}
}

func TestAF2ProtocolMayRetry(t *testing.T) {
	ca, sc := clashedChain(23, 90, 5, 30)
	res, err := Relax(ca, sc, DefaultOptions(PlatformAF2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Error("AF2 protocol must run at least one round")
	}
	if res.After.Clashes != 0 {
		t.Errorf("AF2 protocol left %d clashes", res.After.Clashes)
	}
}

func TestEquivalentQualityAcrossProtocols(t *testing.T) {
	// Section 4.4: the optimized single-pass protocol recovers the same
	// model quality as the AF2 retry loop.
	ca, sc := clashedChain(29, 110, 3, 6)
	af2, err := Relax(geom.Clone(ca), geom.Clone(sc), DefaultOptions(PlatformAF2))
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Relax(geom.Clone(ca), geom.Clone(sc), DefaultOptions(PlatformGPU))
	if err != nil {
		t.Fatal(err)
	}
	tmAF2, err := geom.TMScore(af2.CA, ca)
	if err != nil {
		t.Fatal(err)
	}
	tmGPU, err := geom.TMScore(gpu.CA, ca)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tmAF2-tmGPU) > 0.05 {
		t.Errorf("protocol quality differs: AF2 TM %v vs GPU TM %v", tmAF2, tmGPU)
	}
	if af2.After.Clashes != gpu.After.Clashes {
		t.Errorf("clash removal differs: %d vs %d", af2.After.Clashes, gpu.After.Clashes)
	}
}

func TestModelTimeOrdering(t *testing.T) {
	// GPU < CPU < AF2 at every genome-relevant size.
	for _, atoms := range []int{500, 2500, 10000, 30000} {
		g := ModelTime(PlatformGPU, atoms, 1)
		c := ModelTime(PlatformCPU, atoms, 1)
		a := ModelTime(PlatformAF2, atoms, 1)
		if !(g < c && c < a) {
			t.Errorf("atoms=%d: time ordering violated g=%v c=%v a=%v", atoms, g, c, a)
		}
	}
}

func TestSpeedupApproaches14x(t *testing.T) {
	// Fig. 4: up to ~14x GPU speedup at large sizes.
	speedup := func(atoms int) float64 {
		return ModelTime(PlatformAF2, atoms, 1) / ModelTime(PlatformGPU, atoms, 1)
	}
	s := speedup(30000)
	if s < 10 || s > 20 {
		t.Errorf("large-system GPU speedup = %v, paper reports up to 14x", s)
	}
	// Small systems see less speedup (overhead-dominated).
	if small := speedup(500); small >= s {
		t.Errorf("small-system speedup %v should be below large-system %v", small, s)
	}
}

func TestAF2RoundsMultiplyTime(t *testing.T) {
	one := ModelTime(PlatformAF2, 2000, 1)
	three := ModelTime(PlatformAF2, 2000, 3)
	if three < 2.9*one {
		t.Errorf("3 rounds = %v, want ~3x single round %v", three, one)
	}
}

func TestGenomeRelaxCalibration(t *testing.T) {
	// Section 4.5: 3205 structures (mean 328 AA ≈ 2560 heavy atoms) in
	// 22.89 min on 48 workers → ~20.6 GPU-seconds per structure.
	sec := ModelTime(PlatformGPU, 2560, 1)
	if sec < 12 || sec > 30 {
		t.Errorf("GPU relax of mean-size structure = %v s, want ~20 s", sec)
	}
}

func TestOptionsValidate(t *testing.T) {
	o := DefaultOptions(PlatformGPU)
	if err := o.Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := o
	bad.Min.MaxSteps = 0
	if err := bad.Validate(); err == nil {
		t.Error("MaxSteps=0 accepted")
	}
	bad = o
	bad.Min.ConvergeDE = 0
	if err := bad.Validate(); err == nil {
		t.Error("ConvergeDE=0 accepted")
	}
	bad = o
	bad.MaxRounds = 0
	if err := bad.Validate(); err == nil {
		t.Error("MaxRounds=0 accepted")
	}
}

func BenchmarkRelax100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ca, sc := clashedChain(uint64(i), 100, 2, 4)
		if _, err := Relax(ca, sc, DefaultOptions(PlatformGPU)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyForces300(b *testing.B) {
	ca, sc := clashedChain(1, 300, 3, 6)
	sys, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		b.Fatal(err)
	}
	forces := make([]geom.Vec3, len(sys.Pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.EnergyForces(forces)
	}
}

// TestGridSparseFallback: a cellList costs O(points) however far apart the
// points lie (the name dates from a dense grid's map fallback). Two tight
// pairs 1e8 Å apart — a bounding box of ~(1.4e7)^3 cells — are each
// other's only neighbours, and no buffer outgrows the point count.
func TestGridSparseFallback(t *testing.T) {
	pos := []geom.Vec3{
		{X: 0, Y: 0, Z: 0},
		{X: 1, Y: 0, Z: 0},
		{X: 1e8, Y: 1e8, Z: 1e8},
		{X: 1e8 + 1, Y: 1e8, Z: 1e8},
	}
	var l cellList
	near := func(p geom.Vec3) []int32 { // in index order
		var out []int32
		for _, b := range l.near(p) {
			for ; b >= 0; b = l.next[b] {
				out = append(out, b)
			}
		}
		slices.Sort(out)
		return out
	}
	l.bind(pos, 3.6)
	for i, want := range []int32{1, 0, 3, 2} {
		got := slices.DeleteFunc(near(pos[i]), func(j int32) bool { return int(j) == i })
		if len(got) != 1 || got[0] != want {
			t.Errorf("neighbors(%d) = %v, want [%d]", i, got, want)
		}
	}
	for name, size := range map[string]int{"head": cap(l.head), "next": cap(l.next), "id": cap(l.id),
		"cells": cap(l.cells), "table": cap(l.table)} {
		if size > 4*len(pos) {
			t.Errorf("cellList.%s holds %d entries for %d points", name, size, len(pos))
		}
	}
	if v := CountViolations(pos); v != (Violations{}) {
		// Both pairs are sequence neighbours (|i-j| < 2): nothing to count.
		t.Errorf("CountViolations = %+v, want none", v)
	}

	// Binding the same cellList to a compact set forgets the old one.
	compact := []geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 1, Z: 1}, {X: 50, Y: 0, Z: 0}}
	l.bind(compact, 3.6)
	if got := near(compact[0]); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("compact near(0) = %v, want [0 1]", got)
	}
}

// TestRelaxValidatesOptions: a zero Options value used to skip the
// minimizer (MaxSteps 0) and report the input back as relaxed in one round.
func TestRelaxValidatesOptions(t *testing.T) {
	ca, sc := clashedChain(19, 90, 3, 5)
	if res, err := Relax(ca, sc, Options{}); err == nil {
		t.Errorf("zero Options accepted: %d rounds, %d steps", res.Rounds, res.Steps)
	}
}
