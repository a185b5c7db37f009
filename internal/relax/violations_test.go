package relax

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// TestRelaxAfterCountsFinalCoords: Result.After is the violation count of
// Result.CA on every way out of Relax. The AF2 loop reuses its last
// round's count, so each of its three exits is held to a fresh count:
// clean, out of rounds, and converged with violations left, after one
// round and after several.
func TestRelaxAfterCountsFinalCoords(t *testing.T) {
	for _, c := range []struct {
		name                  string
		seed                  uint64
		n, clashes, bumps     int
		platform              Platform
		maxRounds, wantRounds int
		wantClean             bool
	}{
		{"af2/clean", 19, 90, 3, 5, PlatformAF2, 10, 1, true},
		{"af2/max-rounds", 23, 90, 5, 30, PlatformAF2, 1, 1, false},
		{"af2/converged", 23, 90, 5, 30, PlatformAF2, 10, 2, false},
		// Rounds 2 and 3 of this chain move its bump count (14 after the
		// first, 4 after the third), so a count kept from an earlier
		// round shows.
		{"af2/max-rounds-2", 28, 150, 6, 40, PlatformAF2, 2, 2, false},
		{"af2/converged-3", 28, 150, 6, 40, PlatformAF2, 10, 3, false},
		{"cpu", 23, 90, 5, 30, PlatformCPU, 10, 1, false},
		{"gpu", 19, 90, 3, 5, PlatformGPU, 10, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ca, sc := clashedChain(c.seed, c.n, c.clashes, c.bumps)
			opt := DefaultOptions(c.platform)
			opt.MaxRounds = c.maxRounds
			res, err := Relax(ca, sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			// The exit taken: rounds and whether any violation was left.
			if clean := res.After == (Violations{}); res.Rounds != c.wantRounds || clean != c.wantClean {
				t.Fatalf("exit after %d rounds, clean %v; want %d rounds, clean %v (the case no longer reaches its exit)",
					res.Rounds, clean, c.wantRounds, c.wantClean)
			}
			if want := CountViolations(res.CA); res.After != want {
				t.Errorf("After = %+v, CountViolations(CA) = %+v", res.After, want)
			}
			if want := CountViolations(ca); res.Before != want {
				t.Errorf("Before = %+v, CountViolations(input) = %+v", res.Before, want)
			}
		})
	}
}

// TestViolationTrackerMatchesCount pulls a T1080-sized chain about the way
// casp plants violations — a Gaussian falloff around one residue, about
// 30 atoms moved a pull, some pulls reverted — and holds the tracker to a
// full CountViolations after every pull and every other revert (the rest
// are counted with the next pull, as casp does). Two coordinates
// start at +0 and -0 a little beyond the falloff's reach, where a pull
// still moves a zero coordinate but leaves the others' bits alone: the
// tracker must see exactly which atoms moved, and hold their positions.
func TestViolationTrackerMatchesCount(t *testing.T) {
	const n = 1400
	ca := cleanChain(0x7180, n).CA
	ca[600].X = 0
	ca[800].Y = math.Copysign(0, -1)
	tr := NewViolationTracker(ca)
	check := func(step string) {
		t.Helper()
		got := tr.Violations()
		if want := CountViolations(ca); got != want {
			t.Fatalf("%s: tracker %+v, CountViolations %+v", step, got, want)
		}
		for i := range ca {
			if tr.pos[i] != ca[i] {
				t.Fatalf("%s: tracker holds atom %d at %v, trace has %v", step, i, tr.pos[i], ca[i])
			}
		}
	}
	check("start")

	r := rng.New(0x7180).SplitNamed("pulls")
	snap := make([]geom.Vec3, n)
	// pullAt moves the chain around residue j toward residue i.
	pullAt := func(i, j int, target float64) {
		dir := ca[i].Sub(ca[j]).Unit()
		pull := ca[i].Dist(ca[j]) - target
		for k := range ca {
			w := math.Exp(-float64((k-j)*(k-j)) / 6.0)
			ca[k] = ca[k].Add(dir.Scale(pull * w))
		}
	}

	// Pulls at residues 20 from a zero coordinate: exp(-400/6) moves it
	// and nothing else that far out.
	for _, j := range []int{620, 780} {
		pullAt(j+5, j, 2.0)
		tr.Update(ca)
		check("far pull")
	}
	if x, y := ca[600].X, ca[800].Y; x == 0 || y == 0 || math.Abs(x) > 1e-20 || math.Abs(y) > 1e-20 {
		t.Fatalf("zero coordinates went to %v, %v; want tiny nonzero values (the case tests nothing)", x, y)
	}

	pulls, reverts, counted := 0, 0, 0
	for pulls < 400 {
		i, j := r.Intn(n), r.Intn(n)
		if d := ca[i].Dist(ca[j]); i == j || d > 12 {
			continue
		}
		copy(snap, ca)
		pullAt(i, j, 1.0+2.6*r.Float64())
		tr.Update(ca)
		pulls++
		counted += tr.Violations().Bumps
		check("pull")
		if r.Float64() < 0.3 {
			copy(ca, snap)
			reverts++
			// casp counts nothing after a revert: the next pull's Update
			// sees both moves at once. Half the reverts are counted here.
			if reverts%2 == 0 {
				tr.Update(ca)
				check("revert")
			}
		}
	}
	if reverts == 0 || counted == 0 {
		t.Errorf("%d reverts and %d bumps over %d pulls: the pulls exercise nothing", reverts, counted, pulls)
	}
}

// TestRelaxLeavesInputs: Relax only reads ca and sc — NewSystem copies
// them — so callers may relax shared models without cloning them. Both
// protocols, the AF2 one over several rounds, leave every bit of the
// inputs as it was.
func TestRelaxLeavesInputs(t *testing.T) {
	ca, sc := clashedChain(28, 150, 6, 40)
	wantCA, wantSC := geom.Clone(ca), geom.Clone(sc)
	bits := func(v geom.Vec3) [3]uint64 {
		return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
	}
	for _, p := range []Platform{PlatformAF2, PlatformCPU, PlatformGPU} {
		res, err := Relax(ca, sc, DefaultOptions(p))
		if err != nil {
			t.Fatal(err)
		}
		if p == PlatformAF2 && res.Rounds < 2 {
			t.Fatalf("AF2 protocol ran %d round; the case needs several", res.Rounds)
		}
		for i := range ca {
			if bits(ca[i]) != bits(wantCA[i]) || bits(sc[i]) != bits(wantSC[i]) {
				t.Fatalf("%v: residue %d input moved to CA %v SC %v from CA %v SC %v",
					p, i, ca[i], sc[i], wantCA[i], wantSC[i])
			}
		}
	}
}
