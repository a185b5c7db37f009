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
	// at once, so slot collisions are rare; at most ~6.5 KB a record, the
	// full table holds under 2 MB. What the table saves depends on a
	// target's models reaching the engine one after another: a model that
	// starts while another model of its target is still filling the record
	// misses and fills its own. The in-process pool delivers them that way
	// by construction — core.InferenceStage hands it a target's five models
	// as one unit — so a target misses once at any pool width, plus the
	// rare eviction by another in-flight target sharing its slot. Flow
	// handouts can still split a target's models across workers or run them
	// side by side, so flow workers miss more: 1.05 times per target (79 %
	// of calls hit) on D. vulgaris with two worker processes on a 2-vCPU
	// machine.
	drawTableSize = 256
)

// targetDraws is the randomness of one target that does not depend on the
// model index: the five models of a target split the same "pairs",
// "field" and "estimator" streams, and a model that finds its target's
// record takes its draws from it. A record is immutable once published.
// On the pool the first of a target's models builds it and the next four,
// run back to back on the same goroutine, hit it.
type targetDraws struct {
	id     string // first, so the GC scans one pointer and not the array
	seed   uint64
	length int
	// vals holds, in one allocation: the distogramPairs pair scales
	// |N·0.5+1|, then min(length, summaryResidues) sampled field
	// magnitudes |N·0.45+1|, then one more estimator normal than that
	// (the last one is the pTMS estimator's).
	vals [distogramPairs + 2*summaryResidues + 1]float64
}

// sampled is the number of residues summary mode evaluates.
func (d *targetDraws) sampled() int { return min(d.length, summaryResidues) }

func (d *targetDraws) pairScales() []float64 { return d.vals[:distogramPairs] }

func (d *targetDraws) fieldMags() []float64 {
	return d.vals[distogramPairs : distogramPairs+d.sampled()]
}

func (d *targetDraws) estimatorNormals() []float64 {
	n := d.sampled()
	return d.vals[distogramPairs+n : distogramPairs+2*n+1]
}

// drawsOf returns the model-independent draws of (seed, t.ID, t.Length).
// On a miss the caller's streams are copied, not advanced, to build the
// record, which then replaces whatever the slot held. Concurrent misses on
// one slot each build their own record and the last store wins: records
// with equal keys are equal, so no caller ever waits on another's fill.
func (e *Engine) drawsOf(seed uint64, t Task, pairR, fieldR, noiseR rng.Source) *targetDraws {
	slot := &e.draws[drawSlot(t.ID, t.Length)]
	if d := slot.Load(); d != nil && d.seed == seed && d.length == t.Length && d.id == t.ID {
		return d
	}
	d := &targetDraws{id: t.ID, seed: seed, length: t.Length}
	drawPairScales(d.pairScales(), &pairR)
	mags := d.fieldMags()
	for i := range mags {
		mags[i] = math.Abs(fieldR.NormFloat64()*0.45 + 1)
	}
	est := d.estimatorNormals()
	for i := range est {
		est[i] = noiseR.NormFloat64()
	}
	slot.Store(d)
	return d
}

// drawPairScales fills dst with the distogram pairs' sensitivities: a pair's
// distance change is |Δ(d_ij)| ≈ |f_i - f_j| projected, and the realized
// magnitudes follow a folded normal around 1.
func drawPairScales(dst []float64, r *rng.Source) {
	for i := range dst {
		dst[i] = math.Abs(r.NormFloat64()*0.5 + 1)
	}
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
