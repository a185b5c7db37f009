// Package core wires the substrates into the paper's three-stage pipeline:
// CPU feature generation (Andes), GPU model inference under the dataflow
// workflow (Summit), and GPU geometry optimization (Summit), with node-hour
// accounting and the scheduling policies of Section 3.3. It also implements
// the simulation's ground truth: the mapping from proteome proteins to
// their native structures, which the folding surrogate approaches and the
// structural analyses compare against.
package core

import (
	"sync"

	"repro/internal/fold"
	"repro/internal/proteome"
)

// GroundTruth implements fold.NativeProvider for registered proteomes: a
// protein's native structure is the composition of its domain-family folds
// (one topology per family, shared by every family member), fitted to the
// protein's exact length. Multi-domain proteins get multi-domain natives,
// which is what makes "novel arrangements of known domains" discoverable in
// the Section 4.6 analysis.
type GroundTruth struct {
	UniverseSeed uint64

	mu   sync.RWMutex
	byID map[string]proteome.Protein
}

// NewGroundTruth creates an empty provider. The universe seed must match
// the seed used to build the domain universe and the structural database.
func NewGroundTruth(universeSeed uint64) *GroundTruth {
	return &GroundTruth{UniverseSeed: universeSeed, byID: make(map[string]proteome.Protein)}
}

// Register adds every protein of a proteome to the provider.
func (g *GroundTruth) Register(p *proteome.Proteome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, pr := range p.Proteins {
		g.byID[pr.Seq.ID] = pr
	}
}

// NativeOf implements fold.NativeProvider. Unknown IDs fall back to a
// hash-seeded single-domain topology so standalone use keeps working.
func (g *GroundTruth) NativeOf(id string, length int) *fold.Native {
	g.mu.RLock()
	pr, ok := g.byID[id]
	g.mu.RUnlock()
	if !ok || len(pr.Families) == 0 {
		h := g.UniverseSeed
		for i := 0; i < len(id); i++ {
			h ^= uint64(id[i])
			h *= 1099511628211
		}
		return fold.GenerateTopology(h, length)
	}

	// One domain fold per family, sized as an equal share of the chain.
	nDom := len(pr.Families)
	domLen := length / nDom
	if domLen < 10 {
		nDom = 1
		domLen = length
	}
	domains := make([]*fold.Native, 0, nDom)
	for d := 0; d < nDom; d++ {
		f := pr.Families[d%len(pr.Families)]
		l := domLen
		if d == nDom-1 {
			l = length - domLen*(nDom-1)
		}
		seed := fold.FamilyTopologySeed(g.UniverseSeed, f)
		domains = append(domains, fold.GenerateTopology(seed, l))
	}
	composeSeed := g.UniverseSeed ^ uint64(len(id))*0x9e3779b97f4a7c15
	nat := fold.ComposeDomains(domains, composeSeed)
	return fold.FitLength(nat, length, composeSeed^0x5851f42d4c957f2d)
}

var _ fold.NativeProvider = (*GroundTruth)(nil)
