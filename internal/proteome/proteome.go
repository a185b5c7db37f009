// Package proteome generates the synthetic proteomes used by the
// reproduction. The paper predicts structures for four DOE-relevant species
// (three prokaryotes and one plant); the actual sequences are not available
// here, so this package produces deterministic stand-ins with the same
// workload shape: per-species protein counts matching the paper, realistic
// heavy-tailed length distributions, multi-domain architecture drawn from a
// shared "domain universe" (so database search finds genuine homologs), and
// a labelled subset of "hypothetical" proteins for the Section 4.6 analysis.
package proteome

import (
	"fmt"
	"strings"

	"repro/internal/rng"
	"repro/internal/seq"
)

// Kingdom distinguishes prokaryotic from eukaryotic proteomes; eukaryotes
// get longer, multi-domain proteins, which is what makes S. divinum the
// harder workload in the paper.
type Kingdom int

const (
	Prokaryote Kingdom = iota
	Eukaryote
)

func (k Kingdom) String() string {
	if k == Eukaryote {
		return "eukaryote"
	}
	return "prokaryote"
}

// Species describes one proteome to generate.
type Species struct {
	Name        string
	Code        string // locus-tag prefix, e.g. "DVU"
	Kingdom     Kingdom
	NumProteins int
	// Length distribution: gamma with shape K and scale Theta, clamped to
	// [MinLen, MaxLen].
	LenShape, LenScale float64
	MinLen, MaxLen     int
	// HypotheticalFrac is the fraction of proteins annotated only as
	// "hypothetical protein".
	HypotheticalFrac float64
}

// The four species of the paper, with protein counts from Section 4
// (3446, 3849, 3205 and 25134 final top models). Length parameters are
// calibrated so D. vulgaris has a ~328 AA mean (Sec 4.1) and its 559
// hypothetical proteins span 29–1266 AA with a ~202 AA mean (Sec 4.2),
// while the plant proteome is longer-tailed.
var (
	PMercurii = Species{
		Name: "Pseudodesulfovibrio mercurii", Code: "PMER", Kingdom: Prokaryote,
		NumProteins: 3446, LenShape: 2.4, LenScale: 137, MinLen: 29, MaxLen: 2499,
		HypotheticalFrac: 0.17,
	}
	RRubrum = Species{
		Name: "Rhodospirillum rubrum", Code: "RRU", Kingdom: Prokaryote,
		NumProteins: 3849, LenShape: 2.4, LenScale: 137, MinLen: 29, MaxLen: 2499,
		HypotheticalFrac: 0.16,
	}
	DVulgaris = Species{
		Name: "Desulfovibrio vulgaris Hildenborough", Code: "DVU", Kingdom: Prokaryote,
		NumProteins: 3205, LenShape: 2.6, LenScale: 126, MinLen: 29, MaxLen: 2499,
		HypotheticalFrac: 0.1744, // 559 of 3205, per Section 4.6
	}
	SDivinum = Species{
		Name: "Sphagnum divinum", Code: "SPDIV", Kingdom: Eukaryote,
		NumProteins: 25134, LenShape: 1.9, LenScale: 235, MinLen: 40, MaxLen: 2499,
		HypotheticalFrac: 0.35,
	}
)

// PaperSpecies returns the four proteomes of the paper in presentation
// order. The total (35,634) matches the abstract.
func PaperSpecies() []Species {
	return []Species{PMercurii, RRubrum, DVulgaris, SDivinum}
}

// Universe is the shared pool of ancestral protein domains. Proteome
// proteins and sequence-database entries are both derived from it by
// mutation, which gives database searches real homology structure to find.
type Universe struct {
	Domains []string
	// FamilyAnnotation[i] is the functional annotation carried by family i
	// (what a database match would reveal).
	FamilyAnnotation []string
}

// NewUniverse builds a deterministic universe of numFamilies ancestral
// domains with lengths uniform in [minLen, maxLen].
func NewUniverse(seed uint64, numFamilies, minLen, maxLen int) *Universe {
	if numFamilies <= 0 || minLen <= 0 || maxLen < minLen {
		panic("proteome: invalid universe parameters")
	}
	r := rng.New(seed).SplitNamed("universe")
	u := &Universe{
		Domains:          make([]string, numFamilies),
		FamilyAnnotation: make([]string, numFamilies),
	}
	for f := 0; f < numFamilies; f++ {
		l := minLen + r.Intn(maxLen-minLen+1)
		u.Domains[f] = randomSequence(&r, l)
		u.FamilyAnnotation[f] = fmt.Sprintf("family-%04d domain protein", f)
	}
	return u
}

// NumFamilies returns the number of ancestral domain families.
func (u *Universe) NumFamilies() int { return len(u.Domains) }

// Mutate produces a descendant of family f at the given divergence
// (expected fraction of positions substituted; small indels are applied at
// divergence/10 rate). divergence 0 returns the ancestor verbatim.
func (u *Universe) Mutate(f int, divergence float64, r *rng.Source) string {
	anc := u.Domains[f]
	if divergence <= 0 {
		return anc
	}
	var b strings.Builder
	b.Grow(len(anc) + 8)
	indelRate := divergence / 10
	for i := 0; i < len(anc); i++ {
		if r.Float64() < indelRate {
			if r.Float64() < 0.5 {
				continue // deletion
			}
			b.WriteByte(seq.Alphabet[background.Draw(r)]) // insertion
		}
		if r.Float64() < divergence {
			b.WriteByte(seq.Alphabet[background.Draw(r)])
		} else {
			b.WriteByte(anc[i])
		}
	}
	if b.Len() == 0 {
		return anc[:1]
	}
	return b.String()
}

// Protein is a generated proteome entry with its ground truth: which
// families it contains and how far it has diverged from each ancestor.
// Ground truth is never shown to the pipeline; it exists so tests and the
// annotation analysis can verify behaviour.
type Protein struct {
	Seq        seq.Sequence
	Families   []int
	Divergence float64
	Kingdom    Kingdom
}

// Proteome is a generated species proteome.
type Proteome struct {
	Species  Species
	Proteins []Protein
}

// Generate builds the proteome for one species deterministically from the
// seed and the shared universe.
func Generate(sp Species, u *Universe, seed uint64) *Proteome {
	r := rng.New(seed).SplitNamed("proteome:" + sp.Code)
	p := &Proteome{Species: sp, Proteins: make([]Protein, 0, sp.NumProteins)}

	numHypo := int(float64(sp.NumProteins)*sp.HypotheticalFrac + 0.5)
	for i := 0; i < sp.NumProteins; i++ {
		hypothetical := i < numHypo
		targetLen := sp.sampleLength(&r, hypothetical)

		// Eukaryotes carry more domains per protein on average.
		maxDomains := 1 + targetLen/250
		if sp.Kingdom == Eukaryote {
			maxDomains = 1 + targetLen/180
		}
		if maxDomains > 4 {
			maxDomains = 4
		}
		nDom := 1 + r.Intn(maxDomains)

		// Hypothetical proteins are the remote-homology class: they diverge
		// far from their ancestors (sequence identity to any database
		// relative often below 20%, per Section 4.6). Annotated proteins
		// stay close.
		var div float64
		if hypothetical {
			div = 0.72 + 0.23*r.Float64() // 72–95% substitution
		} else {
			div = 0.05 + 0.30*r.Float64()
		}

		var body strings.Builder
		families := make([]int, 0, nDom)
		for d := 0; d < nDom; d++ {
			f := r.Intn(u.NumFamilies())
			families = append(families, f)
			body.WriteString(u.Mutate(f, div, &r))
			if d != nDom-1 {
				body.WriteString(randomSequence(&r, 3+r.Intn(10))) // linker
			}
		}
		res := fitLength(body.String(), targetLen, &r)

		desc := u.FamilyAnnotation[families[0]]
		if hypothetical {
			desc = "hypothetical protein"
		}
		p.Proteins = append(p.Proteins, Protein{
			Seq: seq.Sequence{
				ID:          fmt.Sprintf("%s_%05d", sp.Code, i+1),
				Description: desc,
				Residues:    res,
			},
			Families:   families,
			Divergence: div,
			Kingdom:    sp.Kingdom,
		})
	}
	return p
}

// sampleLength draws a protein length from the species distribution. The
// hypothetical subset uses a shorter distribution calibrated to the paper's
// 559-sequence benchmark (29–1266 AA, mean ~202).
func (sp Species) sampleLength(r *rng.Source, hypothetical bool) int {
	var l float64
	if hypothetical {
		l = r.Gamma(1.9, 106)
		if l > 1266 {
			l = 1266
		}
	} else {
		l = r.Gamma(sp.LenShape, sp.LenScale)
	}
	n := int(l + 0.5)
	if n < sp.MinLen {
		n = sp.MinLen
	}
	if n > sp.MaxLen {
		n = sp.MaxLen
	}
	return n
}

// fitLength pads or trims a sequence to exactly n residues.
func fitLength(s string, n int, r *rng.Source) string {
	if len(s) > n {
		return s[:n]
	}
	if len(s) == n {
		return s
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(s)
	for b.Len() < n {
		b.WriteByte(seq.Alphabet[background.Draw(r)])
	}
	return b.String()
}

func randomSequence(r *rng.Source, n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(seq.Alphabet[background.Draw(r)])
	}
	return b.String()
}

// background draws residues at their background frequencies; every
// generated and mutated residue comes from it.
var background = rng.NewChoice(seq.BackgroundFreq[:])

// Sequences returns just the seq.Sequence records of the proteome.
func (p *Proteome) Sequences() []seq.Sequence {
	out := make([]seq.Sequence, len(p.Proteins))
	for i := range p.Proteins {
		out[i] = p.Proteins[i].Seq
	}
	return out
}

// Hypotheticals returns the subset annotated as hypothetical proteins.
func (p *Proteome) Hypotheticals() []Protein {
	var out []Protein
	for _, pr := range p.Proteins {
		if pr.Seq.IsHypothetical() {
			out = append(out, pr)
		}
	}
	return out
}

// MeanLength returns the mean protein length in residues.
func (p *Proteome) MeanLength() float64 {
	if len(p.Proteins) == 0 {
		return 0
	}
	total := 0
	for _, pr := range p.Proteins {
		total += pr.Seq.Len()
	}
	return float64(total) / float64(len(p.Proteins))
}

// FilterMaxLen returns the proteins not exceeding maxLen residues; the paper
// excludes sequences of 2500 AA and above from the main runs.
func (p *Proteome) FilterMaxLen(maxLen int) []Protein {
	var out []Protein
	for _, pr := range p.Proteins {
		if pr.Seq.Len() < maxLen {
			out = append(out, pr)
		}
	}
	return out
}
