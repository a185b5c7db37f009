package msa

import (
	"math"
	"strings"
	"testing"

	"repro/internal/proteome"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

func TestScoreSymmetry(t *testing.T) {
	for i := 0; i < seq.NumAminoAcids; i++ {
		for j := 0; j < seq.NumAminoAcids; j++ {
			a, b := seq.Alphabet[i], seq.Alphabet[j]
			if Score(a, b) != Score(b, a) {
				t.Fatalf("BLOSUM62 not symmetric at %c,%c", a, b)
			}
		}
	}
	if Score('W', 'W') != 11 || Score('A', 'A') != 4 {
		t.Error("known diagonal values wrong")
	}
	if Score('X', 'A') != -1 {
		t.Error("non-canonical score should be -1")
	}
}

func TestLocalFindsEmbeddedMotif(t *testing.T) {
	motif := "WWCHHWKYWC" // rare residues, strongly scoring
	q := "AAAAAAAA" + motif + "GGGGGGGG"
	s := "TTTT" + motif + "SSSSSS"
	aln, err := Local(q, s, DefaultGaps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ReplaceAll(aln.QueryAln, "-", ""), motif) {
		t.Errorf("local alignment missed motif: %q", aln.QueryAln)
	}
	if aln.Identity() < 0.9 {
		t.Errorf("motif identity = %v", aln.Identity())
	}
	if aln.QueryStart != 8 || aln.QueryEnd != 8+len(motif) {
		t.Errorf("query span [%d,%d), want [8,%d)", aln.QueryStart, aln.QueryEnd, 8+len(motif))
	}
}

func TestLocalUnrelatedSequencesLowScore(t *testing.T) {
	q := strings.Repeat("AG", 30)
	s := strings.Repeat("WC", 30)
	aln, err := Local(q, s, DefaultGaps)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score > 8 {
		t.Errorf("unrelated local score = %d", aln.Score)
	}
}

func TestAlignmentCoverage(t *testing.T) {
	a := &Alignment{QueryStart: 10, QueryEnd: 60}
	if got := a.Coverage(100); got != 0.5 {
		t.Errorf("coverage = %v", got)
	}
	if a.Coverage(0) != 0 {
		t.Error("zero-length query coverage must be 0")
	}
}

func buildTestSearcher(t *testing.T) (*Searcher, *proteome.Universe) {
	t.Helper()
	u := proteome.NewUniverse(1, 24, 60, 150)
	libs := map[string]*seqdb.Library{
		"uniref90": seqdb.Build(u, seqdb.BuildSpec{
			Name: "uniref90", EntriesPerFamily: 10,
			MinDivergence: 0.05, MaxDivergence: 0.45,
		}, 2),
		"pdb_seqres": seqdb.Build(u, seqdb.BuildSpec{
			Name: "pdb_seqres", EntriesPerFamily: 2,
			MinDivergence: 0.02, MaxDivergence: 0.3,
		}, 3),
	}
	return NewSearcher(libs, DefaultSearchConfig()), u
}

func TestSearchBuildsDeepMSAForFamilyMember(t *testing.T) {
	s, u := buildTestSearcher(t)
	query := seq.Sequence{ID: "q0", Residues: u.Domains[0]}
	res, err := s.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSA.Depth() < 5 {
		t.Errorf("MSA depth = %d, expected many homologs for a family ancestor", res.MSA.Depth())
	}
	if res.MSA.Rows[0].ID != "q0" {
		t.Error("row 0 must be the query")
	}
	for _, row := range res.MSA.Rows {
		if len(row.Aligned) != query.Len() {
			t.Fatalf("row %s length %d != query length %d", row.ID, len(row.Aligned), query.Len())
		}
	}
	if len(res.Templates) == 0 {
		t.Error("expected template hits from pdb_seqres")
	}
	if res.WorkUnits <= 0 {
		t.Error("work units not accounted")
	}
}

func TestSearchShallowForRandomSequence(t *testing.T) {
	s, _ := buildTestSearcher(t)
	// A low-complexity alien sequence: no family should match well.
	query := seq.Sequence{ID: "alien", Residues: strings.Repeat("AGSTAGPVLI", 12)}
	res, err := s.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSA.Depth() > 6 {
		t.Errorf("alien sequence MSA depth = %d, expected shallow", res.MSA.Depth())
	}
}

func TestSearchRejectsInvalidQuery(t *testing.T) {
	s, _ := buildTestSearcher(t)
	if _, err := s.Search(seq.Sequence{ID: "bad", Residues: "ACDZ"}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestNeffProperties(t *testing.T) {
	q := seq.Sequence{ID: "q", Residues: "ACDEFGHIKL"}
	identical := &MSA{Query: q, Rows: []Row{
		{ID: "a", Aligned: "ACDEFGHIKL"},
		{ID: "b", Aligned: "ACDEFGHIKL"},
		{ID: "c", Aligned: "ACDEFGHIKL"},
	}}
	diverse := &MSA{Query: q, Rows: []Row{
		{ID: "a", Aligned: "ACDEFGHIKL"},
		{ID: "b", Aligned: "WWWWWGHIKL"},
		{ID: "c", Aligned: "ACDEFYYYYY"},
	}}
	ni := identical.Neff()
	nd := diverse.Neff()
	if ni >= nd {
		t.Errorf("identical-rows Neff %v must be below diverse Neff %v", ni, nd)
	}
	if math.Abs(ni-1) > 1e-9 {
		t.Errorf("three identical rows should give Neff 1, got %v", ni)
	}
	if math.Abs(nd-3) > 1e-9 {
		t.Errorf("three fully diverse rows should give Neff 3, got %v", nd)
	}
	empty := &MSA{Query: q}
	if empty.Neff() != 0 {
		t.Error("empty MSA Neff should be 0")
	}
}

func TestColumnProfileNormalized(t *testing.T) {
	q := seq.Sequence{ID: "q", Residues: "ACD"}
	m := &MSA{Query: q, Rows: []Row{
		{ID: "q", Aligned: "ACD"},
		{ID: "h", Aligned: "AC-"},
	}}
	prof := m.ColumnProfile()
	if len(prof) != 3 {
		t.Fatalf("profile length %d", len(prof))
	}
	for c, col := range prof {
		var sum float64
		for _, p := range col {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("column %d sums to %v", c, sum)
		}
	}
	// Column 0 is all 'A': its A probability must dominate.
	if prof[0][seq.Index('A')] < 0.5 {
		t.Errorf("conserved column A prob = %v", prof[0][seq.Index('A')])
	}
}

func TestColumnCoverage(t *testing.T) {
	q := seq.Sequence{ID: "q", Residues: "ACD"}
	m := &MSA{Query: q, Rows: []Row{
		{ID: "q", Aligned: "ACD"},
		{ID: "h", Aligned: "A--"},
	}}
	cov := m.ColumnCoverage()
	if cov[0] != 1 || cov[1] != 0.5 || cov[2] != 0.5 {
		t.Errorf("coverage = %v", cov)
	}
}

func TestExtractFeatures(t *testing.T) {
	s, u := buildTestSearcher(t)
	query := seq.Sequence{ID: "q0", Residues: u.Domains[0]}
	res, err := s.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	f := ExtractFeatures(res)
	if f.Depth != res.MSA.Depth() {
		t.Error("depth mismatch")
	}
	if len(f.Profile) != query.Len() || len(f.Coverage) != query.Len() {
		t.Error("feature dimensions wrong")
	}
	if f.Neff <= 0 {
		t.Error("Neff must be positive")
	}
	for c, col := range f.Profile {
		var sum float64
		for _, p := range col {
			if p <= 0 {
				t.Fatalf("column %d has a non-positive probability %v", c, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("column %d sums to %v", c, sum)
		}
	}
	if f.MeanRowID <= 0 || f.MeanRowID > 1 {
		t.Errorf("mean row identity = %v", f.MeanRowID)
	}
}

func TestDeepMSAHasHigherNeffThanShallow(t *testing.T) {
	s, u := buildTestSearcher(t)
	deep, err := s.Search(seq.Sequence{ID: "fam", Residues: u.Domains[3]})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := s.Search(seq.Sequence{ID: "alien", Residues: strings.Repeat("AGSTAGPVLI", 10)})
	if err != nil {
		t.Fatal(err)
	}
	if deep.MSA.Neff() <= shallow.MSA.Neff() {
		t.Errorf("deep Neff %v <= shallow Neff %v", deep.MSA.Neff(), shallow.MSA.Neff())
	}
}

func BenchmarkSearch(b *testing.B) {
	u := proteome.NewUniverse(1, 24, 60, 150)
	libs := map[string]*seqdb.Library{
		"uniref90": seqdb.Build(u, seqdb.BuildSpec{
			Name: "uniref90", EntriesPerFamily: 10,
			MinDivergence: 0.05, MaxDivergence: 0.45,
		}, 2),
	}
	s := NewSearcher(libs, DefaultSearchConfig())
	query := seq.Sequence{ID: "q", Residues: u.Domains[0]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(query); err != nil {
			b.Fatal(err)
		}
	}
}
