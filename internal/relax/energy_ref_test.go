package relax

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// energyForcesRef is the kernel the pair list replaced, kept as the
// reference the bitwise contract is stated against: every evaluation bins
// the atoms by floor(p/cut) into a map-backed spatial hash and, for each
// atom a, scans the 27 cells around it in (dx,dy,dz) order, ascending
// index within a cell, accumulating each pair b > a as it is met.
func energyForcesRef(s *System, forces []geom.Vec3) float64 {
	for i := range forces {
		forces[i] = geom.Vec3{}
	}
	var e float64
	ff := &s.FF
	for i := 0; i < s.N; i++ {
		if i+1 < s.N {
			e += s.addBond(forces, 2*i, 2*(i+1), ff.CABond, ff.BondK)
		}
		e += s.addBond(forces, 2*i, 2*i+1, ff.SCBond, ff.BondK)
	}
	for i := range s.Pos {
		d := s.Pos[i].Sub(s.Ref[i])
		e += ff.RestraintK * d.Norm2()
		forces[i] = forces[i].Sub(d.Scale(2 * ff.RestraintK))
	}
	cut := ff.CARepDist
	if ff.SCRepDist > cut {
		cut = ff.SCRepDist
	}
	cells := map[[3]int][]int{}
	for i, p := range s.Pos {
		k := cellOf(p, cut)
		cells[k] = append(cells[k], i)
	}
	for a := range s.Pos {
		pa := s.Pos[a]
		k := cellOf(pa, cut)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, b := range cells[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
						if b <= a || s.excluded(a, b) {
							continue
						}
						r0 := ff.SCRepDist
						if a%2 == 0 && b%2 == 0 {
							r0 = ff.CARepDist
						}
						d := pa.Sub(s.Pos[b])
						r := d.Norm()
						if r >= r0 || r < 1e-9 {
							continue
						}
						dr := r0 - r
						e += ff.RepK * dr * dr
						f := d.Scale(2 * ff.RepK * dr / r)
						forces[a] = forces[a].Add(f)
						forces[b] = forces[b].Sub(f)
					}
				}
			}
		}
	}
	return e
}

// fireRef is Minimize's FIRE loop, with its stopping rule, over a
// caller-chosen energy kernel, reporting every evaluation to observe
// (step 0 is the initial one).
func fireRef(s *System, energy func(*System, []geom.Vec3) float64,
	observe func(step int, e float64, forces []geom.Vec3)) MinimizeResult {
	n := len(s.Pos)
	forces := make([]geom.Vec3, n)
	vel := make([]geom.Vec3, n)
	dt, alpha, upCount := 0.002, 0.1, 0
	e := energy(s, forces)
	observe(0, e, forces)
	res := MinimizeResult{InitialEnergy: e, FinalEnergy: e}
	prevAccepted := e
	for step := 1; step <= maxSteps; step++ {
		var p float64
		for i := 0; i < n; i++ {
			vel[i] = vel[i].Add(forces[i].Scale(dt))
			p += forces[i].Dot(vel[i])
		}
		if p > 0 {
			var vNorm, fNorm float64
			for i := 0; i < n; i++ {
				vNorm += vel[i].Norm2()
				fNorm += forces[i].Norm2()
			}
			vNorm, fNorm = math.Sqrt(vNorm), math.Sqrt(fNorm)
			if fNorm > 1e-12 {
				scale := alpha * vNorm / fNorm
				for i := 0; i < n; i++ {
					vel[i] = vel[i].Scale(1 - alpha).Add(forces[i].Scale(scale))
				}
			}
			if upCount++; upCount > 5 {
				dt = math.Min(dt*1.1, 0.02)
				alpha *= 0.99
			}
		} else {
			for i := 0; i < n; i++ {
				vel[i] = geom.Vec3{}
			}
			dt, alpha, upCount = dt*0.5, 0.1, 0
		}
		for i := 0; i < n; i++ {
			s.Pos[i] = s.Pos[i].Add(vel[i].Scale(dt))
		}
		e = energy(s, forces)
		observe(step, e, forces)
		res.Steps, res.FinalEnergy = step, e
		if p > 0 && prevAccepted-e >= 0 && prevAccepted-e < convergeDE {
			res.Converged = true
			break
		}
		if p > 0 {
			prevAccepted = e
		}
	}
	return res
}

// evaluation is one observed energy evaluation.
type evaluation struct {
	e      float64
	forces []geom.Vec3
}

func record(into *[]evaluation) func(int, float64, []geom.Vec3) {
	return func(_ int, e float64, forces []geom.Vec3) {
		*into = append(*into, evaluation{e, geom.Clone(forces)})
	}
}

func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func sameTrace(t *testing.T, what string, got, want []geom.Vec3) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d atoms, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: atom %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestEnergyForcesMatchesReferenceEveryStep is the bitwise contract of the
// pair list: along whole minimisations, every energy and every force
// component equals the per-evaluation cell scan's, and so does what
// Minimize itself returns and leaves in Pos.
func TestEnergyForcesMatchesReferenceEveryStep(t *testing.T) {
	type tc struct {
		name        string
		ca, sc      []geom.Vec3
		prepare     func(*System)
		wantRebuild bool
	}
	var cases []tc
	for _, c := range []struct {
		seed              uint64
		n, clashes, bumps int
	}{{3, 12, 1, 1}, {7, 60, 3, 6}, {13, 100, 4, 8}, {23, 90, 5, 30}, {1, 300, 3, 6}} {
		ca, sc := clashedChain(c.seed, c.n, c.clashes, c.bumps)
		cases = append(cases, tc{name: fmt.Sprintf("clashed-%d-%d", c.seed, c.n), ca: ca, sc: sc})
	}
	// Restraints that drag half the chain 6 Å through the other half move
	// atoms far past skin/2: the list must be rebuilt mid-run.
	ca, sc := clashedChain(29, 110, 3, 6)
	cases = append(cases, tc{name: "dragged", ca: ca, sc: sc, wantRebuild: true, prepare: func(s *System) {
		for i := len(s.Ref) / 2; i < len(s.Ref); i++ {
			s.Ref[i] = s.Ref[i].Add(geom.Vec3{X: 6, Y: -3, Z: 2})
		}
	}})
	for _, c := range cases {
		build := func() *System {
			s, err := NewSystem(geom.Clone(c.ca), geom.Clone(c.sc), DefaultForceField())
			if err != nil {
				t.Fatal(err)
			}
			if c.prepare != nil {
				c.prepare(s)
			}
			return s
		}
		var want, got []evaluation
		ref, list, live := build(), build(), build()
		wantRes := fireRef(ref, energyForcesRef, record(&want))
		gotRes := fireRef(list, (*System).EnergyForces, record(&got))
		if gotRes != wantRes {
			t.Fatalf("%s: result %+v, reference %+v", c.name, gotRes, wantRes)
		}
		for step := range want {
			if math.Float64bits(got[step].e) != math.Float64bits(want[step].e) {
				t.Fatalf("%s step %d: energy %v, reference %v", c.name, step, got[step].e, want[step].e)
			}
			sameTrace(t, fmt.Sprintf("%s step %d forces", c.name, step), got[step].forces, want[step].forces)
		}
		if liveRes := Minimize(live); liveRes != wantRes {
			t.Fatalf("%s: Minimize %+v, reference %+v", c.name, liveRes, wantRes)
		}
		sameTrace(t, c.name+" final positions", live.Pos, ref.Pos)
		if c.wantRebuild && live.listBuilds < 2 {
			t.Errorf("%s: %d list builds over %d steps, want a mid-run rebuild",
				c.name, live.listBuilds, wantRes.Steps)
		}
	}
}

// relaxRef is Relax's protocol loop over the reference kernel, written
// out on its own: the optimized platforms stop after one round, AF2 after
// af2MaxRounds or on Relax's other exits.
func relaxRef(t *testing.T, ca, sc []geom.Vec3, opt Options) *Result {
	t.Helper()
	sys, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	for {
		res.Rounds++
		mr := fireRef(sys, energyForcesRef, func(int, float64, []geom.Vec3) {})
		res.Steps += mr.Steps
		res.Energy = mr.FinalEnergy
		v := CountViolations(sys.CAInto(nil))
		if opt.Platform != PlatformAF2 || (v.Clashes == 0 && v.Bumps == 0) ||
			res.Rounds >= af2MaxRounds || (res.Rounds > 1 && mr.Steps <= 1) {
			break
		}
	}
	res.CA, res.SC = sys.CAInto(nil), sys.SC()
	res.After = CountViolations(res.CA)
	return res
}

// TestRelaxMatchesReference: under every platform's protocol — the AF2
// retry rounds included, which minimise again on a list built rounds ago —
// Relax reports the reference's steps, rounds, energy bits and coordinates.
func TestRelaxMatchesReference(t *testing.T) {
	for _, p := range []Platform{PlatformAF2, PlatformCPU, PlatformGPU} {
		ca, sc := clashedChain(23, 90, 5, 30)
		opt := DefaultOptions(p)
		want := relaxRef(t, geom.Clone(ca), geom.Clone(sc), opt)
		got, err := Relax(geom.Clone(ca), geom.Clone(sc), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps != want.Steps || got.Rounds != want.Rounds || got.After != want.After ||
			math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
			t.Errorf("%v: steps %d rounds %d energy %v after %+v; reference %d %d %v %+v", p,
				got.Steps, got.Rounds, got.Energy, got.After, want.Steps, want.Rounds, want.Energy, want.After)
		}
		sameTrace(t, p.String()+" CA", got.CA, want.CA)
		sameTrace(t, p.String()+" SC", got.SC, want.SC)
	}
}

// TestPairListComplete: after a build the list is exactly the brute-force
// set — every non-excluded pair b > a within cut+skin, each once.
func TestPairListComplete(t *testing.T) {
	ca, sc := clashedChain(13, 100, 4, 8)
	s, err := NewSystem(ca, sc, DefaultForceField())
	if err != nil {
		t.Fatal(err)
	}
	cut := s.FF.CARepDist
	s.buildPairs(cut)
	listed := map[[2]int]int{}
	for a := range s.Pos {
		for _, b := range s.pairs[s.pairOff[a]:s.pairOff[a+1]] {
			listed[[2]int{a, int(b)}]++
		}
	}
	want := 0
	for a := range s.Pos {
		for b := a + 1; b < len(s.Pos); b++ {
			if s.excluded(a, b) || s.Pos[a].Dist(s.Pos[b]) >= cut+skin {
				continue
			}
			want++
			if listed[[2]int{a, b}] != 1 {
				t.Errorf("pair (%d,%d) at %.2f Å listed %d times", a, b, s.Pos[a].Dist(s.Pos[b]), listed[[2]int{a, b}])
			}
		}
	}
	if len(listed) != want || want == 0 {
		t.Errorf("list holds %d distinct pairs, brute force finds %d", len(listed), want)
	}
}
