package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/msa"
	"repro/internal/proteome"
	"repro/internal/rng"
	"repro/internal/seqdb"
)

// FeatureGen produces folding features for a protein — the stage the paper
// runs on Andes against the replicated sequence libraries.
type FeatureGen interface {
	Features(p proteome.Protein) (*msa.Features, error)
}

// RealFeatureGen runs the actual search pipeline of internal/msa: k-mer
// prefilter, Smith-Waterman alignment, MSA assembly, feature extraction.
// It is the reference implementation; campaign-scale runs use
// FastFeatureGen, which is validated against this one.
type RealFeatureGen struct {
	Searcher *msa.Searcher
}

// NewRealFeatureGen indexes the libraries.
func NewRealFeatureGen(libs map[string]*seqdb.Library, cfg msa.SearchConfig) *RealFeatureGen {
	return &RealFeatureGen{Searcher: msa.NewSearcher(libs, cfg)}
}

// Features implements FeatureGen.
func (g *RealFeatureGen) Features(p proteome.Protein) (*msa.Features, error) {
	res, err := g.Searcher.Search(p.Seq)
	if err != nil {
		return nil, fmt.Errorf("core: feature search for %s: %w", p.Seq.ID, err)
	}
	return msa.ExtractFeatures(res), nil
}

// FastFeatureGen is the statistical surrogate for campaign-scale runs: it
// predicts the MSA summary statistics (depth, Neff, templates) from the
// protein's ground-truth divergence and the library depth, without running
// alignments. Its response is calibrated against RealFeatureGen (see
// TestFastMatchesRealFeatureGen); the folding engine consumes only these
// summary statistics, so the substitution is behaviour-preserving.
type FastFeatureGen struct {
	// EntriesPerFamily mirrors the generating spec of the searched
	// libraries (uniref90-like + mgnify-like depth combined).
	EntriesPerFamily int
	// TemplatesPerFamily mirrors the pdb_seqres depth.
	TemplatesPerFamily int
	// DetectScale controls how fast detectability decays with divergence.
	DetectScale float64
	// EukaryoteDepth scales the effective library depth for eukaryotic
	// queries: public sequence databases are dominated by prokaryotic and
	// metagenomic sequences, so plant proteins find far fewer homologs —
	// the reason the S. divinum proteome is the hard workload in the paper
	// (and its sequences were not yet publicly released at all).
	EukaryoteDepth float64
	// MetagenomicFrac is the fraction of proteins whose families are
	// abundant in the metagenomic libraries (BFD/MGnify) even when they
	// are unannotated: these get deep MSAs despite having no annotated or
	// structural relatives. This is how the paper's hypothetical proteins
	// can be predicted at high confidence (even pLDDT > 90) while matching
	// nothing by sequence.
	MetagenomicFrac  float64
	MetagenomicBoost float64
	Seed             uint64
}

// DefaultFastFeatureGen returns the surrogate calibrated for the standard
// libraries of seqdb.StandardLibraries.
func DefaultFastFeatureGen(seed uint64) *FastFeatureGen {
	return &FastFeatureGen{
		EntriesPerFamily:   50, // uniref90 (20) + mgnify (30)
		TemplatesPerFamily: 2,
		DetectScale:        3.35,
		EukaryoteDepth:     0.12,
		MetagenomicFrac:    0.12,
		MetagenomicBoost:   5,
		Seed:               seed,
	}
}

// Features implements FeatureGen.
func (g *FastFeatureGen) Features(p proteome.Protein) (*msa.Features, error) {
	if err := p.Seq.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(g.Seed).SplitNamed("fastfeat:" + p.Seq.ID)

	// Detectability: a homolog at divergence d_e is found if the combined
	// query+entry divergence leaves enough shared k-mers for the prefilter
	// and enough identity for acceptance. With entry divergences uniform
	// over a range, the expected hit fraction decays ~exponentially in the
	// query divergence.
	detect := math.Exp(-g.DetectScale * p.Divergence * p.Divergence)
	famCount := float64(len(p.Families))
	if famCount == 0 {
		famCount = 1
	}
	depthFactor := 1.0
	if p.Kingdom == proteome.Eukaryote {
		depthFactor = g.EukaryoteDepth
	}
	if r.Float64() < g.MetagenomicFrac {
		detect *= g.MetagenomicBoost
		if detect > 0.95 {
			detect = 0.95
		}
	}
	expHits := float64(g.EntriesPerFamily) * famCount * detect * depthFactor
	depth := 1 // the query row
	if expHits > 0 {
		depth += r.Poisson(expHits)
	}
	// Diversity: found homologs cluster; Neff grows sublinearly with depth.
	neff := 1 + 0.55*float64(depth-1)
	if neff > 1 {
		neff *= 0.9 + 0.2*r.Float64()
	}

	f := &msa.Features{
		Query: p.Seq,
		Depth: depth,
		Neff:  neff,
	}
	// Templates: only near relatives produce usable template hits.
	tDetect := math.Exp(-7 * p.Divergence * p.Divergence)
	nTemp := r.Poisson(float64(g.TemplatesPerFamily) * famCount * tDetect)
	for i := 0; i < nTemp; i++ {
		f.Templates = append(f.Templates, msa.TemplateHit{
			ID:       fmt.Sprintf("fast-template-%d", i),
			Identity: math.Max(0.15, 1-p.Divergence) * (0.8 + 0.2*r.Float64()),
			Coverage: 0.5 + 0.5*r.Float64(),
		})
	}
	if f.Depth > 1 {
		f.MeanRowID = math.Max(0.18, (1-p.Divergence)*(0.85+0.1*r.Float64()))
	}
	// Search cost proxy: alignments against accepted + rejected candidates.
	f.SearchUnits = int64(p.Seq.Len()) * int64(200*(1+expHits))
	return f, nil
}

// FeatureCostAccel converts a feature-generation job into Andes CPU
// seconds. The real cost is dominated by scanning the (reduced) sequence
// libraries — roughly constant per query — with a secondary query-length
// term and the alignment work itself. Constants are calibrated to Section
// 4.1/4.3.1: ~240 Andes node-hours for the 3205-protein D. vulgaris
// proteome and ~2000 for the 25,134-protein S. divinum proteome. The
// compute portion (library scan and alignment, not I/O) is divided by an
// acceleration factor — the model behind the conclusion's GPU-HMMER
// discussion (a 38x kernel was reported in 2009). accel must be >= 1.
func FeatureCostAccel(f *msa.Features, accel float64) float64 {
	const (
		ioSeconds      = 12   // fixed per-query I/O, unaffected by compute speed
		dbScanSeconds  = 188  // per-query compute pass over the reduced libraries
		perResidue     = 0.14 // profile width cost
		cellsPerSecond = 4e7  // explicit alignment work
	)
	if accel < 1 {
		accel = 1
	}
	compute := dbScanSeconds + perResidue*float64(f.Query.Len()) +
		float64(f.SearchUnits)/cellsPerSecond
	return ioSeconds + compute/accel
}

// CachedFeatureGen memoizes another FeatureGen per protein ID. Both
// generators in this package are pure functions of (seed, protein), so for
// a fixed underlying generator the memo is behaviour-preserving: repeated
// experiments over the same proteome (Table 1 re-derives features for the
// same 559 proteins under every preset) stop recomputing them. It is safe
// for concurrent use by the parallel execution layer.
type CachedFeatureGen struct {
	Gen FeatureGen

	mu    sync.RWMutex
	cache map[string]*msa.Features
}

// NewCachedFeatureGen wraps gen with a per-protein-ID memo.
func NewCachedFeatureGen(gen FeatureGen) *CachedFeatureGen {
	return &CachedFeatureGen{Gen: gen, cache: make(map[string]*msa.Features)}
}

// Features implements FeatureGen. Cached values are shared pointers;
// callers treat Features as immutable after generation (the engine only
// reads them), so sharing is safe.
func (g *CachedFeatureGen) Features(p proteome.Protein) (*msa.Features, error) {
	g.mu.RLock()
	f, ok := g.cache[p.Seq.ID]
	g.mu.RUnlock()
	if ok {
		return f, nil
	}
	f, err := g.Gen.Features(p)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	// A concurrent worker may have filled the slot; keep the existing
	// value so every caller sees one canonical pointer.
	if prev, ok := g.cache[p.Seq.ID]; ok {
		f = prev
	} else {
		g.cache[p.Seq.ID] = f
	}
	g.mu.Unlock()
	return f, nil
}

var (
	_ FeatureGen = (*RealFeatureGen)(nil)
	_ FeatureGen = (*FastFeatureGen)(nil)
	_ FeatureGen = (*CachedFeatureGen)(nil)
)
