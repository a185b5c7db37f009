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
			// The reference implementation tries several distance
			// cutoffs; d8 caps the largest one.
			_, score := refineAlignment(model, ref, idx, d0, d0+2.5, d0+1.5, d0+0.5)
			if score > best {
				best = score
			}
		}
	}
	return best, nil
}

// refineAlignment runs the TM-score iterative refinement from an initial
// residue subset, once per distance cutoff: superpose on the subset,
// rescore all residues, rebuild the subset from the residues within the
// cutoff, and iterate to convergence. It returns the superposition with
// the best full-length score seen and that score (nil and 0 when no
// subset could be superposed). Each residue's distance under a
// superposition is computed once and serves both the score and the
// cutoff. The subset alternates between two buffers allocated once per
// call, so the previous subset (or seed, which is never written) is still
// intact when the new one is compared with it.
func refineAlignment(model, ref []Vec3, seed []int, d0 float64, cutoffs ...float64) (*Superposition, float64) {
	n := len(ref)
	var best *Superposition
	bestScore := 0.0
	mSub := make([]Vec3, n)
	rSub := make([]Vec3, n)
	bufs := [2][]int{make([]int, 0, n), make([]int, 0, n)}
	for _, dCut := range cutoffs {
		cur := seed
		for iter := 0; iter < 20; iter++ {
			if len(cur) < 3 {
				break
			}
			for i, k := range cur {
				mSub[i] = model[k]
				rSub[i] = ref[k]
			}
			sp, err := Superpose(mSub[:len(cur)], rSub[:len(cur)])
			if err != nil {
				break
			}
			next := bufs[iter%2][:0]
			var sum float64
			for k := range n {
				d := sp.Apply(model[k]).Dist(ref[k])
				sum += 1 / (1 + (d/d0)*(d/d0))
				if d < dCut {
					next = append(next, k)
				}
			}
			if s := sum / float64(n); s > bestScore {
				best, bestScore = sp, s
			}
			if equalInts(next, cur) || len(next) < 3 {
				break
			}
			cur = next
		}
	}
	return best, bestScore
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
