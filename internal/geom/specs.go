package geom

import "fmt"

// ResiduePose is the per-residue geometry SPECS needs: the Cα position and a
// side-chain representative (centroid of side-chain heavy atoms; for glycine
// the Cα itself, mirroring the convention of side-chain scoring functions).
type ResiduePose struct {
	CA Vec3
	SC Vec3
}

// SPECSScore computes a SPECS-like model quality score (after Alapati,
// Shuvo & Bhattacharya, PLoS ONE 2020). SPECS integrates a backbone,
// GDT-like component with side-chain position and orientation agreement.
// This implementation keeps the published structure of the score:
//
//	SPECS = w1·GDC_CA + w2·SC_dist + w3·SC_orient, w = (0.5, 0.3, 0.2)
//
// where GDC_CA is a multi-threshold Cα agreement under the TM-style refined
// superposition, SC_dist scores side-chain centroid distances with the
// TM-score kernel, and SC_orient scores the agreement of the Cα→side-chain
// unit vectors. All components are in [0, 1], so the score is too.
//
// It is "SPECS-like" rather than bit-exact SPECS: the reference program uses
// all side-chain atoms, while our structures carry a single side-chain
// centroid pseudo-atom. The behaviours relevant to Fig. 3 of the paper —
// sensitivity to side-chain placement on top of backbone agreement, and
// small gains when side chains move toward native positions — are preserved.
func SPECSScore(model, ref []ResiduePose) (float64, error) {
	if len(model) != len(ref) {
		return 0, fmt.Errorf("geom: specs length mismatch %d vs %d", len(model), len(ref))
	}
	n := len(ref)
	if n == 0 {
		return 0, fmt.Errorf("geom: specs of empty structures")
	}

	mCA := make([]Vec3, n)
	rCA := make([]Vec3, n)
	for i := range ref {
		mCA[i] = model[i].CA
		rCA[i] = ref[i].CA
	}

	sp, err := bestSuperposition(mCA, rCA)
	if err != nil {
		return 0, err
	}

	// Backbone multi-threshold component (GDC-like over 1,2,4,8 Å).
	thresholds := [4]float64{1, 2, 4, 8}
	var count [4]int
	for i := range ref {
		d := sp.Apply(mCA[i]).Dist(rCA[i])
		for t, th := range thresholds {
			if d <= th {
				count[t]++
			}
		}
	}
	var gdc float64
	for t := range thresholds {
		gdc += float64(count[t]) / float64(n)
	}
	gdc /= 4

	// Side-chain distance component under the backbone superposition.
	d0 := D0(n)
	var scDist float64
	for i := range ref {
		d := sp.Apply(model[i].SC).Dist(ref[i].SC)
		scDist += 1 / (1 + (d/d0)*(d/d0))
	}
	scDist /= float64(n)

	// Side-chain orientation component: cosine agreement of Cα→SC vectors
	// (rotation applied to the model's vector), mapped from [-1,1] to [0,1].
	var scOrient float64
	var orientCount int
	for i := range ref {
		mv := model[i].SC.Sub(model[i].CA)
		rv := ref[i].SC.Sub(ref[i].CA)
		if mv.Norm() < 1e-9 || rv.Norm() < 1e-9 {
			continue // glycine-like residue: no orientation defined
		}
		cos := sp.R.MulVec(mv).Unit().Dot(rv.Unit())
		scOrient += (cos + 1) / 2
		orientCount++
	}
	if orientCount > 0 {
		scOrient /= float64(orientCount)
	} else {
		scOrient = 1 // no side chains at all: orientation is vacuously perfect
	}

	return 0.5*gdc + 0.3*scDist + 0.2*scOrient, nil
}

// bestSuperposition runs the TM-style fragment-seeded superposition search
// and returns the superposition that maximizes the TM-score sum.
func bestSuperposition(model, ref []Vec3) (*Superposition, error) {
	n := len(ref)
	d0 := D0(n)
	global, err := Superpose(model, ref)
	if err != nil {
		return nil, err
	}
	best := global
	bestScore := scoreUnder(global, model, ref, d0)
	if n < 8 {
		return best, nil
	}
	w := newRefineWork(n)
	for fragLen := n / 2; fragLen >= 4; fragLen /= 2 {
		step := fragLen / 2
		if step < 1 {
			step = 1
		}
		for start := 0; start+fragLen <= n; start += step {
			if sp, s := w.refine(model, ref, w.fragment(start, fragLen), d0, d0+1.5); s > bestScore {
				best, bestScore = sp, s
			}
		}
	}
	return best, nil
}
