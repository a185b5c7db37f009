package proteome

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/seq"
)

func testUniverse() *Universe { return NewUniverse(1, 64, 60, 220) }

func TestPaperSpeciesCounts(t *testing.T) {
	sp := PaperSpecies()
	if len(sp) != 4 {
		t.Fatalf("species count %d", len(sp))
	}
	want := map[string]int{"PMER": 3446, "RRU": 3849, "DVU": 3205, "SPDIV": 25134}
	total := 0
	for _, s := range sp {
		if want[s.Code] != s.NumProteins {
			t.Errorf("%s: %d proteins, want %d", s.Code, s.NumProteins, want[s.Code])
		}
		total += s.NumProteins
	}
	if total != 35634 {
		t.Errorf("total proteins = %d, abstract says 35634", total)
	}
}

func TestUniverseDeterminism(t *testing.T) {
	a := NewUniverse(7, 16, 50, 100)
	b := NewUniverse(7, 16, 50, 100)
	for i := range a.Domains {
		if a.Domains[i] != b.Domains[i] {
			t.Fatalf("universe domain %d differs across same-seed builds", i)
		}
	}
	c := NewUniverse(8, 16, 50, 100)
	if a.Domains[0] == c.Domains[0] {
		t.Error("different seeds produced identical first domain")
	}
}

func TestUniverseDomainValidity(t *testing.T) {
	u := testUniverse()
	for i, d := range u.Domains {
		s := seq.Sequence{ID: "d", Residues: d}
		if err := s.Validate(); err != nil {
			t.Fatalf("domain %d invalid: %v", i, err)
		}
		if len(d) < 60 || len(d) > 220 {
			t.Errorf("domain %d length %d out of range", i, len(d))
		}
	}
}

func TestMutateDivergence(t *testing.T) {
	u := testUniverse()
	r := rng.New(2)
	anc := u.Domains[0]

	if got := u.Mutate(0, 0, r); got != anc {
		t.Error("zero divergence must return the ancestor")
	}

	// Indels shift the frame, so similarity is measured by shared 4-mers
	// (alignment-free), not positional identity.
	child := u.Mutate(0, 0.1, r)
	if sim := kmerContainment(anc, child, 4); sim < 0.4 {
		t.Errorf("10%% divergence left only %v 4-mer containment", sim)
	}

	far := u.Mutate(0, 0.9, rng.New(3))
	if sim := kmerContainment(anc, far, 4); sim > 0.2 {
		t.Errorf("90%% divergence kept %v 4-mer containment", sim)
	}
}

// kmerContainment returns the fraction of a's k-mers present in b.
func kmerContainment(a, b string, k int) float64 {
	if len(a) < k || len(b) < k {
		return 0
	}
	set := map[string]bool{}
	for i := 0; i+k <= len(b); i++ {
		set[b[i:i+k]] = true
	}
	hits := 0
	total := 0
	for i := 0; i+k <= len(a); i++ {
		total++
		if set[a[i:i+k]] {
			hits++
		}
	}
	return float64(hits) / float64(total)
}

func TestGenerateSmallSpecies(t *testing.T) {
	sp := Species{
		Name: "test", Code: "TST", Kingdom: Prokaryote,
		NumProteins: 200, LenShape: 2.6, LenScale: 126,
		MinLen: 29, MaxLen: 2499, HypotheticalFrac: 0.2,
	}
	u := testUniverse()
	p := Generate(sp, u, 11)

	if len(p.Proteins) != 200 {
		t.Fatalf("generated %d proteins", len(p.Proteins))
	}
	hypo := p.Hypotheticals()
	if len(hypo) != 40 {
		t.Errorf("hypothetical count %d, want 40", len(hypo))
	}
	ids := map[string]bool{}
	for _, pr := range p.Proteins {
		if err := pr.Seq.Validate(); err != nil {
			t.Fatalf("invalid protein %s: %v", pr.Seq.ID, err)
		}
		if pr.Seq.Len() < sp.MinLen || pr.Seq.Len() > sp.MaxLen {
			t.Errorf("%s length %d out of bounds", pr.Seq.ID, pr.Seq.Len())
		}
		if ids[pr.Seq.ID] {
			t.Errorf("duplicate ID %s", pr.Seq.ID)
		}
		ids[pr.Seq.ID] = true
		if len(pr.Families) == 0 {
			t.Errorf("%s has no families", pr.Seq.ID)
		}
		for _, f := range pr.Families {
			if f < 0 || f >= u.NumFamilies() {
				t.Errorf("%s family %d out of range", pr.Seq.ID, f)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	sp := Species{
		Name: "test", Code: "TST", Kingdom: Prokaryote,
		NumProteins: 50, LenShape: 2.6, LenScale: 126,
		MinLen: 29, MaxLen: 2499, HypotheticalFrac: 0.1,
	}
	u := testUniverse()
	a := Generate(sp, u, 5)
	b := Generate(sp, u, 5)
	for i := range a.Proteins {
		if a.Proteins[i].Seq.Residues != b.Proteins[i].Seq.Residues {
			t.Fatalf("protein %d differs across same-seed generations", i)
		}
	}
}

func TestHypotheticalLengthCalibration(t *testing.T) {
	// The hypothetical subset stands in for the paper's 559-sequence
	// benchmark: lengths within 29–1266 and mean near 202.
	sp := DVulgaris
	sp.NumProteins = 3205
	u := testUniverse()
	p := Generate(sp, u, 42)
	hypo := p.Hypotheticals()
	if len(hypo) != 559 {
		t.Fatalf("D. vulgaris hypothetical count = %d, want 559", len(hypo))
	}
	total := 0
	for _, h := range hypo {
		l := h.Seq.Len()
		if l < 29 || l > 1266 {
			t.Errorf("hypothetical %s length %d outside 29–1266", h.Seq.ID, l)
		}
		total += l
	}
	mean := float64(total) / float64(len(hypo))
	if math.Abs(mean-202) > 40 {
		t.Errorf("hypothetical mean length %v, paper benchmark mean is 202", mean)
	}
}

func TestDVulgarisMeanLength(t *testing.T) {
	u := testUniverse()
	p := Generate(DVulgaris, u, 42)
	mean := p.MeanLength()
	// Paper Section 4.1: 3205 sequences with a mean of 328 AA.
	if math.Abs(mean-328) > 45 {
		t.Errorf("D. vulgaris mean length %v, paper says ~328", mean)
	}
}

func TestEukaryoteLongerThanProkaryote(t *testing.T) {
	u := testUniverse()
	prok := DVulgaris
	prok.NumProteins = 1000
	euk := SDivinum
	euk.NumProteins = 1000
	pm := Generate(prok, u, 9).MeanLength()
	em := Generate(euk, u, 9).MeanLength()
	if em <= pm {
		t.Errorf("eukaryote mean %v not longer than prokaryote mean %v", em, pm)
	}
}

func TestFilterMaxLen(t *testing.T) {
	u := testUniverse()
	sp := SDivinum
	sp.NumProteins = 2000
	p := Generate(sp, u, 3)
	kept := p.FilterMaxLen(2500)
	for _, pr := range kept {
		if pr.Seq.Len() >= 2500 {
			t.Errorf("FilterMaxLen kept %d-residue protein", pr.Seq.Len())
		}
	}
	if len(kept) == 0 {
		t.Error("filter removed everything")
	}
}

func TestHypotheticalsHaveHighDivergence(t *testing.T) {
	u := testUniverse()
	sp := DVulgaris
	sp.NumProteins = 500
	p := Generate(sp, u, 21)
	for _, h := range p.Hypotheticals() {
		if h.Divergence < 0.72 {
			t.Errorf("hypothetical %s divergence %v < 0.72", h.Seq.ID, h.Divergence)
		}
	}
}

// TestAppendPadded holds the locus-tag and family-label digits to fmt's
// zero-padded verb.
func TestAppendPadded(t *testing.T) {
	for _, width := range []int{4, 5} {
		for _, n := range []int{0, 1, 9, 10, 99, 999, 1000, 9999, 10000, 25134, 99999, 100000, 1234567} {
			if got, want := string(appendPadded([]byte("x"), n, width)), fmt.Sprintf("x%0*d", width, n); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}

// BenchmarkGenerateWorld builds the campaign world: the universe and the
// four paper proteomes at the published seed, with the parameters
// experiments.NewEnv and Env.Proteome use.
func BenchmarkGenerateWorld(b *testing.B) {
	const seed = 20220125
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := NewUniverse(seed, 96, 60, 240)
		for _, sp := range PaperSpecies() {
			Generate(sp, u, seed+uint64(len(sp.Code)))
		}
	}
}
