// Package analysis implements the proteome-scale data analyses of
// Section 4.6 of the paper: structural alignment of predicted models
// against an experimental-structure database (the role APoc + pdb70 play)
// to annotate "hypothetical" proteins whose sequences match nothing, and
// the detection of candidate novel folds — high-confidence predictions with
// no strong structural match.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/fold"
	"repro/internal/geom"
	"repro/internal/proteome"
	"repro/internal/rng"
)

// StructEntry is one experimental structure in the database: coordinates
// plus the sequence of the solved protein (for the sequence-identity
// analysis) and its ground-truth family (tests only).
type StructEntry struct {
	ID       string
	Family   int
	CA       []geom.Vec3
	Sequence string
	desc     []float64 // shape descriptor for prefiltering
}

// StructDB is the searchable structural database (the pdb70 stand-in).
type StructDB struct {
	Entries []StructEntry
}

// BuildPDB70 creates the structural database covering the given subset of
// universe families. Families outside the subset have no experimental
// structure — predictions of their members are the candidate novel folds.
//
// Each entry is a *distant subfamily relative* of its family (sequence
// diverged ~80% from the ancestor, same fold). This reflects how the real
// PDB relates to microbial proteomes: the solved structure of a fold is
// usually from a distant organism, so a confident structural match can
// coexist with single-digit sequence identity — the phenomenon Section 4.6
// exploits for annotation transfer.
func BuildPDB70(u *proteome.Universe, families []int, universeSeed uint64) *StructDB {
	db := &StructDB{}
	r := rng.New(universeSeed).SplitNamed("pdb70")
	for _, f := range families {
		if f < 0 || f >= u.NumFamilies() {
			continue
		}
		seqRes := u.Mutate(f, 0.8, &r)
		nat := fold.GenerateTopology(fold.FamilyTopologySeed(universeSeed, f), len(seqRes))
		e := StructEntry{
			ID:       fmt.Sprintf("pdb70|fam%04d", f),
			Family:   f,
			CA:       nat.CA,
			Sequence: seqRes,
		}
		e.desc = Descriptor(e.CA)
		db.Entries = append(db.Entries, e)
	}
	return db
}

// Descriptor computes a superposition-free shape fingerprint: the
// normalized histogram of all pairwise Cα distances (20 bins over 0–40 Å)
// plus the chain length. Similar folds have similar distance spectra, so
// the descriptor serves as a cheap prefilter before exact TM-scoring —
// the same two-stage design structure-search tools use at scale.
func Descriptor(ca []geom.Vec3) []float64 {
	const bins = 20
	const maxD = 40.0
	d := make([]float64, bins+1)
	n := len(ca)
	if n < 2 {
		d[bins] = float64(n)
		return d
	}
	// Sample pairs on a stride so the descriptor is O(n) for long chains.
	stride := 1
	if n > 200 {
		stride = n / 200
	}
	count := 0
	for i := 0; i < n; i += stride {
		for j := i + 3; j < n; j += stride {
			dist := ca[i].Dist(ca[j])
			b := int(dist / maxD * bins)
			if b >= bins {
				b = bins - 1
			}
			d[b]++
			count++
		}
	}
	if count > 0 {
		for b := 0; b < bins; b++ {
			d[b] /= float64(count)
		}
	}
	d[bins] = float64(n) / 500.0 // length term, scaled to histogram magnitude
	return d
}

func descL1(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		s += diff
	}
	return s
}

// Hit is one structural search result.
type Hit struct {
	ID     string
	Family int
	// TM is the TM-score over the aligned region (domain-level annotation
	// transfer, as in the paper's APoc alignments: a single-domain database
	// entry can annotate one domain of a multi-domain query).
	TM float64
	// Coverage is the aligned fraction of the query.
	Coverage float64
}

// Search returns the best topK structural matches of a query Cα trace,
// using the descriptor prefilter followed by exact TM-scoring of the top
// candidates. Alignment between different-length chains uses the leading
// min(lenQ, lenE) residues of both (domain folds in this corpus share
// N-terminal topology), with the score normalized by the full query length.
func (db *StructDB) Search(queryCA []geom.Vec3, topK int) ([]Hit, error) {
	if len(queryCA) == 0 {
		return nil, fmt.Errorf("analysis: empty query structure")
	}
	if topK <= 0 {
		topK = 1
	}
	qDesc := Descriptor(queryCA)

	// Stage 1: descriptor ranking.
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, len(db.Entries))
	for i := range db.Entries {
		cands[i] = cand{idx: i, dist: descL1(qDesc, db.Entries[i].desc)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	nExact := 16
	if topK > nExact {
		nExact = topK
	}
	if nExact > len(cands) {
		nExact = len(cands)
	}

	// Stage 2: exact TM on the shortlisted candidates.
	hits := make([]Hit, 0, nExact)
	for _, c := range cands[:nExact] {
		e := &db.Entries[c.idx]
		l := len(queryCA)
		if len(e.CA) < l {
			l = len(e.CA)
		}
		if l < 5 {
			continue
		}
		cov := float64(l) / float64(len(queryCA))
		if cov < 0.25 && l < 60 {
			continue // too small an overlap to transfer annotation
		}
		tm, err := geom.TMScore(e.CA[:l], queryCA[:l])
		if err != nil {
			return nil, err
		}
		hits = append(hits, Hit{ID: e.ID, Family: e.Family, TM: tm, Coverage: cov})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].TM != hits[j].TM {
			return hits[i].TM > hits[j].TM
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > topK {
		hits = hits[:topK]
	}
	return hits, nil
}

// Annotation is the outcome of analysing one hypothetical protein.
type Annotation struct {
	ID string
	// Top structural hit (zero Hit if the database is empty).
	Top Hit
	// SeqIdentity is the sequence identity over the structurally aligned
	// residue pairs (the APoc convention the paper reports). For remote
	// homologs this sits near the random background, which is how matches
	// with <10% identity arise.
	SeqIdentity float64
	// StructuralMatch is true when Top.TM ≥ 0.6 (the paper's threshold for
	// a useful annotation transfer).
	StructuralMatch bool
	// NovelFoldCandidate flags high-confidence predictions with no strong
	// structural match — the Section 4.6 discovery class (the paper's
	// example: >98% of residues with pLDDT > 90 yet top TM 0.358).
	NovelFoldCandidate bool
}

// Annotate runs the Section 4.6 analysis for one predicted structure.
// meanPLDDT is the prediction confidence used for novel-fold calling.
func Annotate(db *StructDB, id string, queryCA []geom.Vec3, querySeq string, meanPLDDT float64) (*Annotation, error) {
	hits, err := db.Search(queryCA, 1)
	if err != nil {
		return nil, err
	}
	a := &Annotation{ID: id}
	if len(hits) > 0 {
		a.Top = hits[0]
		a.StructuralMatch = a.Top.TM >= 0.6
		for i := range db.Entries {
			if db.Entries[i].ID == a.Top.ID {
				// Identity over the structural correspondence (here the
				// aligned prefix), not a sequence-optimized alignment.
				entrySeq := db.Entries[i].Sequence
				l := len(querySeq)
				if len(entrySeq) < l {
					l = len(entrySeq)
				}
				same := 0
				for k := 0; k < l; k++ {
					if querySeq[k] == entrySeq[k] {
						same++
					}
				}
				if l > 0 {
					a.SeqIdentity = float64(same) / float64(l)
				}
				break
			}
		}
	}
	a.NovelFoldCandidate = meanPLDDT > 90 && a.Top.TM < 0.45
	return a, nil
}

// Report aggregates annotations the way Section 4.6 reports them.
type Report struct {
	Total             int
	StructuralMatch   int // top TM ≥ 0.6
	MatchSeqIDBelow20 int
	MatchSeqIDBelow10 int
	NovelFolds        int
}

// Aggregate builds a report from annotations.
func Aggregate(anns []*Annotation) Report {
	var r Report
	for _, a := range anns {
		r.Total++
		if a.StructuralMatch {
			r.StructuralMatch++
			if a.SeqIdentity < 0.20 {
				r.MatchSeqIDBelow20++
			}
			if a.SeqIdentity < 0.10 {
				r.MatchSeqIDBelow10++
			}
		}
		if a.NovelFoldCandidate {
			r.NovelFolds++
		}
	}
	return r
}
