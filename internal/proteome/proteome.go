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
	"strconv"

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

// SpeciesByCode returns the paper species whose Code is code.
func SpeciesByCode(code string) (Species, bool) {
	for _, sp := range PaperSpecies() {
		if sp.Code == code {
			return sp, true
		}
	}
	return Species{}, false
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
	var buf []byte
	for f := 0; f < numFamilies; f++ {
		l := minLen + r.Intn(maxLen-minLen+1)
		buf = appendRandom(buf[:0], &r, l)
		u.Domains[f] = string(buf)
		buf = append(buf[:0], "family-"...)
		buf = appendPadded(buf, f, 4)
		buf = append(buf, " domain protein"...)
		u.FamilyAnnotation[f] = string(buf)
	}
	return u
}

// NumFamilies returns the number of ancestral domain families.
func (u *Universe) NumFamilies() int { return len(u.Domains) }

// Mutate produces a descendant of family f at the given divergence
// (expected fraction of positions substituted; small indels are applied at
// divergence/10 rate). divergence 0 returns the ancestor verbatim.
func (u *Universe) Mutate(f int, divergence float64, r *rng.Source) string {
	if divergence <= 0 {
		return u.Domains[f]
	}
	return string(u.appendMutant(make([]byte, 0, len(u.Domains[f])+8), f, divergence, r))
}

// appendMutant appends Mutate's descendant of family f to dst, for
// divergence > 0.
func (u *Universe) appendMutant(dst []byte, f int, divergence float64, r *rng.Source) []byte {
	anc := u.Domains[f]
	start := len(dst)
	indel, sub := rng.NewBernoulli(divergence/10), rng.NewBernoulli(divergence)
	for i := 0; i < len(anc); i++ {
		if indel.Draw(r) {
			if deletion.Draw(r) {
				continue
			}
			dst = append(dst, seq.Alphabet[background.Draw(r)]) // insertion
		}
		if sub.Draw(r) {
			dst = append(dst, seq.Alphabet[background.Draw(r)])
		} else {
			dst = append(dst, anc[i])
		}
	}
	if len(dst) == start {
		return append(dst, anc[0])
	}
	return dst
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
	// Every protein's residues, then its ID, are built in buf, which each
	// protein reuses; each becomes a string once.
	var buf []byte
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

		buf = buf[:0]
		families := make([]int, 0, nDom)
		for d := 0; d < nDom; d++ {
			f := r.Intn(u.NumFamilies())
			families = append(families, f)
			buf = u.appendMutant(buf, f, div, &r)
			if d != nDom-1 {
				buf = appendRandom(buf, &r, 3+r.Intn(10)) // linker
			}
		}
		buf = fitLength(buf, targetLen, &r)
		res := string(buf)
		buf = append(buf[:0], sp.Code...)
		buf = append(buf, '_')
		buf = appendPadded(buf, i+1, 5)

		desc := u.FamilyAnnotation[families[0]]
		if hypothetical {
			desc = "hypothetical protein"
		}
		p.Proteins = append(p.Proteins, Protein{
			Seq: seq.Sequence{
				ID:          string(buf),
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
func fitLength(s []byte, n int, r *rng.Source) []byte {
	if len(s) >= n {
		return s[:n]
	}
	return appendRandom(s, r, n-len(s))
}

// appendRandom appends n residues drawn at background frequencies.
func appendRandom(dst []byte, r *rng.Source, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, seq.Alphabet[background.Draw(r)])
	}
	return dst
}

// appendPadded appends non-negative n in decimal, zero-padded to width
// digits: fmt's %0*d.
func appendPadded(dst []byte, n, width int) []byte {
	digits := 1
	for m := n; m >= 10; m /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// background draws residues at their background frequencies; every
// generated and mutated residue comes from it. Half of a mutation's indels
// are deletions.
var (
	background = rng.NewChoice(seq.BackgroundFreq[:])
	deletion   = rng.NewBernoulli(0.5)
)

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

// FilterMaxLen returns the proteins shorter than maxLen residues; the paper
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
