package geom

import (
	"fmt"
	"math"
)

// D0 returns the TM-score normalization length d0(L) of Zhang & Skolnick
// (2004): d0 = 1.24·(L-15)^(1/3) − 1.8, clamped below at 0.5 Å, which is the
// convention used by the reference TM-score program for short chains.
func D0(l int) float64 {
	if l <= 21 {
		return 0.5
	}
	d := 1.24*math.Cbrt(float64(l-15)) - 1.8
	if d < 0.5 {
		return 0.5
	}
	return d
}

// TMScore computes the TM-score of a model against a reference structure
// over a fixed residue correspondence (model[i] ↔ ref[i], the standard case
// for comparing a predicted and an experimental structure of the same
// sequence). It follows the published heuristic: superpositions seeded from
// contiguous fragments of decreasing length, each refined by iteratively
// re-superposing on the subset of residues within a distance cutoff, taking
// the maximum score over all seeds. The score is normalized by len(ref).
func TMScore(model, ref []Vec3) (float64, error) {
	if len(model) != len(ref) {
		return 0, fmt.Errorf("geom: tmscore length mismatch %d vs %d", len(model), len(ref))
	}
	n := len(ref)
	if n == 0 {
		return 0, fmt.Errorf("geom: tmscore of empty structures")
	}
	if n < 3 {
		// Degenerate: fall back to a single global superposition.
		sp, err := Superpose(model, ref)
		if err != nil {
			return 0, err
		}
		return scoreUnder(sp, model, ref, D0(n)), nil
	}

	d0 := D0(n)
	best := 0.0

	// Seed fragment lengths: n, n/2, n/4, ..., down to 4.
	for fragLen := n; fragLen >= 4; fragLen /= 2 {
		step := fragLen / 2
		if step < 1 {
			step = 1
		}
		for start := 0; start+fragLen <= n; start += step {
			idx := make([]int, fragLen)
			for i := range idx {
				idx[i] = start + i
			}
			score := refineAlignment(model, ref, idx, d0)
			if score > best {
				best = score
			}
		}
	}
	return best, nil
}

// refineAlignment runs the TM-score iterative refinement from an initial
// residue subset: superpose on the subset, rescore all residues, rebuild the
// subset from residues within a shrinking distance cutoff, and iterate to
// convergence. Returns the best full-length score seen.
func refineAlignment(model, ref []Vec3, seed []int, d0 float64) float64 {
	n := len(ref)
	idx := seed
	best := 0.0

	// The reference implementation tries several distance cutoffs; d8 caps
	// the largest one.
	cutoffs := []float64{d0 + 2.5, d0 + 1.5, d0 + 0.5}
	for _, dCut := range cutoffs {
		cur := idx
		for iter := 0; iter < 20; iter++ {
			if len(cur) < 3 {
				break
			}
			mSub := make([]Vec3, len(cur))
			rSub := make([]Vec3, len(cur))
			for i, k := range cur {
				mSub[i] = model[k]
				rSub[i] = ref[k]
			}
			sp, err := Superpose(mSub, rSub)
			if err != nil {
				break
			}
			if s := scoreUnder(sp, model, ref, d0); s > best {
				best = s
			}
			next := make([]int, 0, n)
			for k := 0; k < n; k++ {
				if sp.Apply(model[k]).Dist(ref[k]) < dCut {
					next = append(next, k)
				}
			}
			if equalInts(next, cur) {
				break
			}
			if len(next) < 3 {
				break
			}
			cur = next
		}
	}
	return best
}

// scoreUnder evaluates the TM-score sum for the whole chain under a given
// superposition.
func scoreUnder(sp *Superposition, model, ref []Vec3, d0 float64) float64 {
	var sum float64
	for i := range ref {
		d := sp.Apply(model[i]).Dist(ref[i])
		sum += 1 / (1 + (d/d0)*(d/d0))
	}
	return sum / float64(len(ref))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
