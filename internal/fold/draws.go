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
	// drawTableSize is the number of per-target draw records an Engine
	// keeps. Only about as many targets as there are workers are in flight
	// at once, so slot collisions are rare. A record is one 6,528-byte
	// allocation (the size class of its 6,200 bytes), so the full table
	// holds under 1.7 MB; a summary-mode call that hits allocates nothing,
	// and a miss allocates only its record. What the table saves depends on a
	// target's models reaching the engine one after another: a model that
	// starts while another model of its target is still filling the record
	// misses and fills its own, field powers included. The in-process pool
	// delivers them that way by construction — core.InferenceStage hands it
	// a target's five models as one unit — so a target misses once at any
	// pool width, plus the rare eviction by another in-flight target
	// sharing its slot. Flow handouts can still split a target's models
	// across workers or run them side by side, so flow workers miss more:
	// 1.05 times per target (79 % of calls hit) on D. vulgaris with two
	// worker processes on a 2-vCPU machine.
	drawTableSize = 256
)

// targetDraws is what the five models of a target share: the randomness
// that does not depend on the model index (they split the same "pairs",
// "field" and "estimator" streams), and the pLDDT kernel's power of each
// sampled field magnitude. A model that finds its target's record takes
// them from it. A record is immutable once published. On the pool the
// first of a target's models builds it and the next four, run back to
// back on the same goroutine, hit it.
type targetDraws struct {
	id     string // first, so the GC scans one pointer and not the array
	seed   uint64
	length int
	shape  float64 // the Cal.PLDDTShape magPows were raised to
	// pairSum is the sum of the distogramPairs pair scales |N·0.5+1|, in
	// draw order: the recycling loop moves every pair by the same error
	// decrement, so the sum is all it needs of them.
	pairSum float64
	// vals holds, in the record's one allocation: min(length,
	// summaryResidues) sampled field magnitudes |N·0.45+1|, then one more
	// estimator normal than that (the last one is the pTMS estimator's),
	// then each magnitude raised to shape. It is sized for the longest
	// target: a slice sized by sampled() saves 13 % of InferenceStage's
	// bytes for a second allocation per miss, and measured no faster.
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

// drawsOf returns the model-independent draws of (seed, t.ID, t.Length)
// with their powers at e.Cal.PLDDTShape. On a miss the caller's streams
// are copied, not advanced, to build the record, which then replaces
// whatever the slot held. Concurrent misses on one slot each build their
// own record and the last store wins: records with equal keys are equal,
// so no caller ever waits on another's fill.
func (e *Engine) drawsOf(seed uint64, t Task, pairR, fieldR, noiseR rng.Source) *targetDraws {
	shape := e.Cal.PLDDTShape
	slot := &e.draws[drawSlot(t.ID, t.Length)]
	if d := slot.Load(); d != nil && d.seed == seed && d.length == t.Length && d.shape == shape && d.id == t.ID {
		return d
	}
	d := &targetDraws{id: t.ID, seed: seed, length: t.Length, shape: shape, pairSum: drawPairSum(pairR)}
	mags := d.fieldMags()
	for i := range mags {
		mags[i] = math.Abs(fieldR.NormFloat64()*0.45 + 1)
	}
	est := d.estimatorNormals()
	for i := range est {
		est[i] = noiseR.NormFloat64()
	}
	powAll(d.magPows(), mags, shape)
	slot.Store(d)
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

// drawSlot maps a target to its slot: FNV-1a over the ID, then the length.
func drawSlot(id string, length int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= uint64(length)
	h *= 1099511628211
	return int(h % drawTableSize)
}
