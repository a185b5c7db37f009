// Package seqdb models the sequence libraries AlphaFold searches against
// (UniProt/UniRef90, BFD, MGnify, and the PDB seqres set) and the k-mer
// index that prefilters them. Libraries are generated from the shared
// domain universe in internal/proteome, so proteome targets have genuine
// homologs here.
//
// The paper's two database engineering steps (Section 3.2.1) are not
// performed on these libraries. Removing near-identical BFD sequences
// (2.1 TB full → 420 GB reduced) and replicating the reduced set across
// the parallel filesystem (24 copies, 4 concurrent jobs each) are modelled
// as costs by internal/fsim: core.ReducedDatabase and core.FullDatabase
// are its 420 GB and 2.1 TB databases, and fsim.ReplicaLayout the copies.
package seqdb

import (
	"fmt"
	"sort"

	"repro/internal/proteome"
	"repro/internal/rng"
	"repro/internal/seq"
)

// Library is one sequence database.
type Library struct {
	Name    string
	Entries []Entry
}

// Entry is one database sequence plus the ground-truth family it descends
// from (used only by tests and analyses, never by the search path).
type Entry struct {
	Seq    seq.Sequence
	Family int
}

// BuildSpec parameterizes library generation.
type BuildSpec struct {
	Name string
	// EntriesPerFamily controls depth: how many homologs each universe
	// family contributes.
	EntriesPerFamily int
	// MinDivergence and MaxDivergence bound how far entries wander from
	// their family ancestor.
	MinDivergence, MaxDivergence float64
	// DuplicateFrac is the fraction of additional near-identical copies
	// (divergence < 0.05) appended after the base entries. The real BFD is
	// dominated by such redundancy.
	DuplicateFrac float64
}

// Build generates a library from the universe.
func Build(u *proteome.Universe, spec BuildSpec, seed uint64) *Library {
	r := rng.New(seed).SplitNamed("seqdb:" + spec.Name)
	lib := &Library{Name: spec.Name}
	n := 0
	for f := 0; f < u.NumFamilies(); f++ {
		for k := 0; k < spec.EntriesPerFamily; k++ {
			div := spec.MinDivergence + (spec.MaxDivergence-spec.MinDivergence)*r.Float64()
			lib.Entries = append(lib.Entries, Entry{
				Seq: seq.Sequence{
					ID:          fmt.Sprintf("%s|%06d", spec.Name, n),
					Description: fmt.Sprintf("family-%04d homolog", f),
					Residues:    u.Mutate(f, div, r),
				},
				Family: f,
			})
			n++
		}
	}
	// Redundant near-duplicates of random base entries.
	nDup := int(float64(len(lib.Entries)) * spec.DuplicateFrac)
	base := len(lib.Entries)
	for k := 0; k < nDup; k++ {
		src := lib.Entries[r.Intn(base)]
		dup := src
		dup.Seq.ID = fmt.Sprintf("%s|%06d", spec.Name, n)
		n++
		// Sprinkle up to 4% point mutations so duplicates are "near"
		// identical, as in the real BFD.
		res := []byte(src.Seq.Residues)
		for i := range res {
			if r.Float64() < 0.04*r.Float64() {
				res[i] = seq.Alphabet[r.Intn(seq.NumAminoAcids)]
			}
		}
		dup.Seq.Residues = string(res)
		lib.Entries = append(lib.Entries, dup)
	}
	return lib
}

// StandardLibraries builds the four libraries of the AlphaFold pipeline with
// depth proportions resembling the real ones: BFD is by far the largest and
// the most redundant; the PDB seqres set is small.
func StandardLibraries(u *proteome.Universe, seed uint64) map[string]*Library {
	return map[string]*Library{
		"uniref90": Build(u, BuildSpec{
			Name: "uniref90", EntriesPerFamily: 20,
			MinDivergence: 0.05, MaxDivergence: 0.6, DuplicateFrac: 0.1,
		}, seed),
		"bfd": Build(u, BuildSpec{
			Name: "bfd", EntriesPerFamily: 60,
			MinDivergence: 0.05, MaxDivergence: 0.75, DuplicateFrac: 4.0,
		}, seed+1),
		"mgnify": Build(u, BuildSpec{
			Name: "mgnify", EntriesPerFamily: 30,
			MinDivergence: 0.1, MaxDivergence: 0.8, DuplicateFrac: 0.5,
		}, seed+2),
		"pdb_seqres": Build(u, BuildSpec{
			Name: "pdb_seqres", EntriesPerFamily: 2,
			MinDivergence: 0.02, MaxDivergence: 0.4, DuplicateFrac: 0,
		}, seed+3),
	}
}

// KmerIndex is an inverted index from k-mers to the entries containing
// them, the prefilter stage of the search pipeline (the role MMseqs2 or the
// HHblits prefilter plays).
type KmerIndex struct {
	K        int
	postings map[string][]int32
	lib      *Library
}

// NewKmerIndex indexes a library with word length k.
func NewKmerIndex(lib *Library, k int) *KmerIndex {
	if k < 2 || k > 8 {
		panic("seqdb: k-mer length out of supported range")
	}
	idx := &KmerIndex{K: k, postings: make(map[string][]int32), lib: lib}
	for e := range lib.Entries {
		res := lib.Entries[e].Seq.Residues
		seen := make(map[string]bool)
		for i := 0; i+k <= len(res); i++ {
			w := res[i : i+k]
			if !seen[w] {
				seen[w] = true
				idx.postings[w] = append(idx.postings[w], int32(e))
			}
		}
	}
	return idx
}

// Hit is one prefilter candidate: a library entry index and the number of
// distinct query k-mers it shares.
type Hit struct {
	Entry  int
	Shared int
}

// Query returns candidate entries sharing at least minShared distinct
// k-mers with the query, sorted by descending shared count (ties by entry
// index for determinism).
func (idx *KmerIndex) Query(query string, minShared int) []Hit {
	counts := make(map[int32]int)
	seen := make(map[string]bool)
	for i := 0; i+idx.K <= len(query); i++ {
		w := query[i : i+idx.K]
		if seen[w] {
			continue
		}
		seen[w] = true
		for _, e := range idx.postings[w] {
			counts[e]++
		}
	}
	hits := make([]Hit, 0, len(counts))
	for e, c := range counts {
		if c >= minShared {
			hits = append(hits, Hit{Entry: int(e), Shared: c})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Shared != hits[j].Shared {
			return hits[i].Shared > hits[j].Shared
		}
		return hits[i].Entry < hits[j].Entry
	})
	return hits
}
