package fold

import (
	"math"

	"repro/internal/rng"
)

const (
	// distogramPairs is the size of the fixed residue-pair sample the
	// recycling loop measures distogram change on.
	distogramPairs = 256
	// summaryResidues caps the residues summary mode samples for pLDDT and
	// pTMS; WantCoords evaluates every residue instead.
	summaryResidues = 256
)

// targetDraws is what the five models of a target share: the randomness
// that does not depend on the model index (they split the same "pairs",
// "field" and "estimator" streams), and the pLDDT kernel's power of each
// sampled field magnitude. The Infer call that takes a record from its
// engine's pool owns it until it puts it back. core.InferenceStage runs a
// target's five models back to back on one goroutine: the first refills a
// record, and the next four take it back as it is.
type targetDraws struct {
	id     string // first, so the GC scans one pointer and not the array
	seed   uint64
	length int
	shape  float64 // the Cal.PLDDTShape magPows were raised to
	// pairSum is the sum of the distogramPairs pair scales |N·0.5+1|, in
	// draw order: the recycling loop moves every pair by the same error
	// decrement, so the sum is all it needs of them.
	pairSum float64
	// vals holds: min(length, summaryResidues) sampled field magnitudes
	// |N·0.45+1|, then one more estimator normal than that (the last one is
	// the pTMS estimator's), then each magnitude raised to shape. It is sized
	// for the longest target, so a record refills in place for any target.
	vals [3*summaryResidues + 1]float64
}

// sampled is the number of residues summary mode evaluates.
func (d *targetDraws) sampled() int { return min(d.length, summaryResidues) }

func (d *targetDraws) fieldMags() []float64 { return d.vals[:d.sampled()] }

func (d *targetDraws) estimatorNormals() []float64 {
	n := d.sampled()
	return d.vals[n : 2*n+1]
}

func (d *targetDraws) magPows() []float64 {
	n := d.sampled()
	return d.vals[2*n+1 : 3*n+1]
}

// drawsOf takes a record from e's pool, which the caller puts back when
// done, and returns it holding the model-independent draws of (seed, t.ID,
// t.Length) with their powers at e.Cal.PLDDTShape: as it is if its key
// matches, else refilled in place from copies of the caller's streams.
func (e *Engine) drawsOf(seed uint64, t Task, pairR, fieldR, noiseR rng.Source) *targetDraws {
	shape := e.Cal.PLDDTShape
	d, _ := e.draws.Get().(*targetDraws)
	if d == nil {
		d = new(targetDraws)
	} else if d.seed == seed && d.length == t.Length && d.shape == shape && d.id == t.ID {
		return d
	}
	d.id, d.seed, d.length, d.shape, d.pairSum = t.ID, seed, t.Length, shape, drawPairSum(pairR)
	mags := d.fieldMags()
	for i := range mags {
		mags[i] = math.Abs(fieldR.NormFloat64()*0.45 + 1)
	}
	est := d.estimatorNormals()
	for i := range est {
		est[i] = noiseR.NormFloat64()
	}
	powAll(d.magPows(), mags, shape)
	return d
}

// drawPairSum draws the distogram pairs' sensitivities from its own copy of
// r and returns their sum in draw order: a pair's distance change is
// |Δ(d_ij)| ≈ |f_i - f_j| projected, and the realized magnitudes follow a
// folded normal around 1.
func drawPairSum(r rng.Source) float64 {
	var sum float64
	for range distogramPairs {
		sum += math.Abs(r.NormFloat64()*0.5 + 1)
	}
	return sum
}
