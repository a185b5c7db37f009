// Package casp provides the CASP14-like benchmark set used by the
// relaxation experiments (Sections 4.4 and 4.5, Figs. 3 and 4). The real
// CASP14 targets and crystal structures are not available here, so the
// package generates a deterministic stand-in with the same measured
// properties:
//
//   - 32 targets, 19 of which have "crystal" (ground-truth) structures, for
//     160 predicted models in total (5 per target), matching the counts in
//     the paper;
//   - unrelaxed models carrying planted clashes and bumps whose
//     distribution matches the paper's measurements (clashes 0.22 ± 1.09
//     with max 8; bumps 3.76 ± 12.74 with max 148);
//   - a T1080 stand-in: the large target whose original-AlphaFold
//     relaxation took ~4.5 hours.
package casp

import (
	"fmt"
	"math"

	"repro/internal/fold"
	"repro/internal/geom"
	"repro/internal/relax"
	"repro/internal/rng"
)

// Target is one CASP-like prediction target.
type Target struct {
	ID         string
	Length     int
	HasCrystal bool
	Crystal    *fold.Native // nil unless HasCrystal
}

// Model is one predicted (unrelaxed) structure for a target.
type Model struct {
	TargetID   string
	ModelNum   int // 1..5
	CA, SC     []geom.Vec3
	HeavyAtoms int
}

// Set is the full benchmark.
type Set struct {
	Targets []Target
	Models  []Model
}

// ModelsOf returns the models of one target.
func (s *Set) ModelsOf(id string) []Model {
	var out []Model
	for _, m := range s.Models {
		if m.TargetID == id {
			out = append(out, m)
		}
	}
	return out
}

// NewSet generates the benchmark deterministically.
func NewSet(seed uint64) *Set {
	r := rng.New(seed).SplitNamed("casp14")
	s := &Set{}

	// 32 targets; lengths span the CASP14 range, with T1080 as the large
	// outlier target (~1400 residues ≈ 11k heavy atoms).
	for i := 0; i < 32; i++ {
		var length int
		id := fmt.Sprintf("T%04d", 1024+i)
		switch {
		case i == 14:
			id = "T1080"
			length = 1400
		case i%4 == 0:
			length = 80 + r.Intn(120)
		case i%4 == 1:
			length = 200 + r.Intn(200)
		case i%4 == 2:
			length = 350 + r.Intn(250)
		default:
			length = 500 + r.Intn(400)
		}
		target := Target{ID: id, Length: length}
		// 19 of 32 have public crystals, deterministically the first 19
		// after shuffling by index parity mix.
		if (i*7+3)%32 < 19 {
			target.HasCrystal = true
			target.Crystal = fold.GenerateTopology(seed^(uint64(i)*2654435761+1), length)
		}
		s.Targets = append(s.Targets, target)
	}

	// Five models per target: the crystal (or a hidden native for
	// crystal-less targets) perturbed by model error, plus planted
	// violations with the paper's distribution.
	for i := range s.Targets {
		t := &s.Targets[i]
		native := t.Crystal
		if native == nil {
			native = fold.GenerateTopology(seed^(uint64(i)*2654435761+1), t.Length)
		}
		for m := 1; m <= 5; m++ {
			mr := r.SplitNamed(fmt.Sprintf("%s-m%d", t.ID, m))
			ca := geom.Clone(native.CA)
			sc := geom.Clone(native.SC)

			// Model error: smooth displacement, better models for lower m.
			errScale := 0.6 + 0.5*float64(m-1) + 0.4*mr.Float64()
			field := smoothNoise(&mr, t.Length)
			for k := range ca {
				d := field[k].Scale(errScale)
				ca[k] = ca[k].Add(d)
				sc[k] = sc[k].Add(d)
			}

			// Planted violations. Counts follow the paper's heavy-tailed
			// distribution across the 160 models; one designated model
			// carries the extreme tail (the paper's max was 148 bumps in a
			// single structure).
			clashes, bumps := sampleViolationCounts(&mr)
			if i == 14 && m == 3 { // T1080: the paper's pathological model
				clashes, bumps = 2, 130
			}
			plantViolations(&mr, ca, sc, clashes, bumps)

			s.Models = append(s.Models, Model{
				TargetID:   t.ID,
				ModelNum:   m,
				CA:         ca,
				SC:         sc,
				HeavyAtoms: int(7.8 * float64(t.Length)),
			})
		}
	}
	return s
}

// sampleViolationCounts draws (clashes, bumps) with the paper's marginal
// statistics: most models clean, a few with severe violations.
func sampleViolationCounts(r *rng.Source) (int, int) {
	// These are *planted pull counts*; each pull typically yields one
	// violation of its class plus a fraction of collateral bumps, so the
	// planted counts sit slightly below the measured targets.
	u := r.Float64()
	clashes := 0
	switch {
	case u > 0.985: // ~1.5%: severe (up to 8 measured)
		clashes = 3 + r.Intn(5)
	case u > 0.90: // ~8.5%: mild
		clashes = 1 + r.Intn(2)
	}
	v := r.Float64()
	bumps := 0
	switch {
	case v > 0.92:
		bumps = 5 + r.Intn(8)
	case v > 0.55:
		bumps = 1 + r.Intn(2)
	}
	return clashes, bumps
}

// plantViolations pulls spatially-adjacent segments together with a smooth
// along-chain falloff until the model's *measured* violation counts reach
// the requested values (plants can partially undo each other, so counts are
// verified rather than assumed).
func plantViolations(r *rng.Source, ca, sc []geom.Vec3, clashes, bumps int) {
	n := len(ca)
	if n < 12 || clashes+bumps == 0 {
		return
	}
	// cur is what ca measures now; it is recounted only after a pull
	// changed ca, never for a plant that gave up or was reverted.
	cur := relax.CountViolations(ca)
	var caSnap, scSnap []geom.Vec3
	plant := func(targetD float64, noNewClash bool) {
		for tries := 0; tries < 300; tries++ {
			i := r.Intn(n)
			j := r.Intn(n)
			if j < i {
				i, j = j, i
			}
			if j-i < 5 {
				continue
			}
			d := ca[i].Dist(ca[j])
			if d < 4.0 || d > 6.5 {
				continue
			}
			if noNewClash {
				caSnap = append(caSnap[:0], ca...)
				scSnap = append(scSnap[:0], sc...)
			}
			dir := ca[i].Sub(ca[j]).Unit()
			pull := d - targetD
			for k := 0; k < n; k++ {
				w := math.Exp(-float64((k-j)*(k-j)) / 6.0)
				shift := dir.Scale(pull * w)
				ca[k] = ca[k].Add(shift)
				sc[k] = sc[k].Add(shift)
			}
			pulled := relax.CountViolations(ca)
			if noNewClash && pulled.Clashes > cur.Clashes {
				copy(ca, caSnap)
				copy(sc, scSnap)
				continue // collateral clash: revert and try another pair
			}
			cur = pulled
			return
		}
	}
	for attempt := 0; attempt < clashes*8+8 && cur.Clashes < clashes; attempt++ {
		plant(1.0+0.7*r.Float64(), false)
	}
	wantBumps := bumps + clashes // bump counts include clash pairs
	for attempt := 0; attempt < bumps*8+8 && cur.Bumps < wantBumps; attempt++ {
		plant(2.2+1.2*r.Float64(), true)
	}
}

func smoothNoise(r *rng.Source, n int) []geom.Vec3 {
	raw := make([]geom.Vec3, n)
	for i := range raw {
		raw[i] = geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}
	}
	out := make([]geom.Vec3, n)
	const w = 4
	for i := range out {
		var acc geom.Vec3
		cnt := 0
		for j := i - w; j <= i+w; j++ {
			if j >= 0 && j < n {
				acc = acc.Add(raw[j])
				cnt++
			}
		}
		out[i] = acc.Scale(1 / float64(cnt))
	}
	return out
}
