package msa

import (
	"fmt"
	"sort"

	"repro/internal/seq"
	"repro/internal/seqdb"
)

// MSA is a query-anchored multiple sequence alignment: every row is the
// subject mapped into query coordinates (length = query length, '-' where
// the subject does not align). Row 0 is the query itself.
type MSA struct {
	Query seq.Sequence
	Rows  []Row
}

// Row is one aligned homolog.
type Row struct {
	ID       string
	Aligned  string  // query-coordinate aligned residues, '-' for gaps
	Identity float64 // identity to the query over aligned columns
	Coverage float64 // fraction of query columns covered
	Library  string  // which library the hit came from
}

// Depth returns the number of rows including the query.
func (m *MSA) Depth() int { return len(m.Rows) }

// Neff returns the effective number of sequences: rows are weighted by one
// over the count of rows within 80% identity of them (the standard
// position-independent sequence-weighting scheme). Deeper, more diverse
// alignments have higher Neff, which the folding surrogate uses as its main
// quality signal — exactly the "MSAs dictate the final quality of all
// predicted structures" dependence the paper describes.
func (m *MSA) Neff() float64 {
	n := len(m.Rows)
	if n == 0 {
		return 0
	}
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1 // self
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rowIdentity(m.Rows[i].Aligned, m.Rows[j].Aligned) >= 0.8 {
				counts[i]++
				counts[j]++
			}
		}
	}
	var neff float64
	for _, c := range counts {
		neff += 1 / float64(c)
	}
	return neff
}

func rowIdentity(a, b string) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	same, aligned := 0, 0
	for i := 0; i < n; i++ {
		if a[i] == '-' || b[i] == '-' {
			continue
		}
		aligned++
		if a[i] == b[i] {
			same++
		}
	}
	if aligned == 0 {
		return 0
	}
	return float64(same) / float64(aligned)
}

// ColumnProfile returns per-column amino-acid frequencies over the MSA
// (gaps excluded, Laplace-smoothed with the background distribution).
func (m *MSA) ColumnProfile() [][]float64 {
	l := m.Query.Len()
	prof := make([][]float64, l)
	for c := 0; c < l; c++ {
		counts := make([]float64, seq.NumAminoAcids)
		var total float64
		for a := 0; a < seq.NumAminoAcids; a++ {
			counts[a] = seq.BackgroundFreq[a]
			total += counts[a]
		}
		for _, row := range m.Rows {
			if c < len(row.Aligned) {
				if a := seq.Index(row.Aligned[c]); a >= 0 {
					counts[a]++
					total++
				}
			}
		}
		p := make([]float64, seq.NumAminoAcids)
		for a := range counts {
			p[a] = counts[a] / total
		}
		prof[c] = p
	}
	return prof
}

// ColumnCoverage returns, per query column, the fraction of rows with a
// residue there.
func (m *MSA) ColumnCoverage() []float64 {
	l := m.Query.Len()
	cov := make([]float64, l)
	if len(m.Rows) == 0 {
		return cov
	}
	for c := 0; c < l; c++ {
		n := 0
		for _, row := range m.Rows {
			if c < len(row.Aligned) && row.Aligned[c] != '-' {
				n++
			}
		}
		cov[c] = float64(n) / float64(len(m.Rows))
	}
	return cov
}

// TemplateHit is a structural-template hit from the PDB seqres search; the
// folding stage feeds these only to the two template-aware models.
type TemplateHit struct {
	ID       string
	Identity float64
	Coverage float64
	Family   int
}

// SearchConfig controls the search pipeline.
type SearchConfig struct {
	KmerK          int     // prefilter word length
	MinSharedKmers int     // prefilter threshold
	MaxHitsPerLib  int     // cap on accepted alignments per library
	MinIdentity    float64 // acceptance threshold on alignment identity
	MinCoverage    float64 // acceptance threshold on query coverage
	Gaps           GapParams
}

// DefaultSearchConfig mirrors a sensible HHblits-like operating point.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		KmerK:          4,
		MinSharedKmers: 3,
		MaxHitsPerLib:  128,
		MinIdentity:    0.18,
		MinCoverage:    0.35,
		Gaps:           DefaultGaps,
	}
}

// Searcher runs MSA construction against a set of libraries. Indexes are
// built once and shared by all queries (they are read-only after build, so
// concurrent Search calls are safe).
type Searcher struct {
	cfg     SearchConfig
	libs    map[string]*seqdb.Library
	indexes map[string]*seqdb.KmerIndex
}

// NewSearcher indexes the libraries.
func NewSearcher(libs map[string]*seqdb.Library, cfg SearchConfig) *Searcher {
	s := &Searcher{cfg: cfg, libs: libs, indexes: make(map[string]*seqdb.KmerIndex, len(libs))}
	for name, lib := range libs {
		s.indexes[name] = seqdb.NewKmerIndex(lib, cfg.KmerK)
	}
	return s
}

// Result is the output of feature generation for one query: the MSA and
// the structural template hits.
type Result struct {
	MSA       *MSA
	Templates []TemplateHit
	// WorkUnits approximates the CPU work done (cells of dynamic
	// programming), which the cluster simulator converts to time.
	WorkUnits int64
}

// Search builds the MSA and template set for one query across all
// libraries.
func (s *Searcher) Search(query seq.Sequence) (*Result, error) {
	if err := query.Validate(); err != nil {
		return nil, err
	}
	res := &Result{MSA: &MSA{Query: query}}
	res.MSA.Rows = append(res.MSA.Rows, Row{
		ID: query.ID, Aligned: query.Residues, Identity: 1, Coverage: 1, Library: "query",
	})

	names := make([]string, 0, len(s.libs))
	for name := range s.libs {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic library order

	for _, name := range names {
		lib := s.libs[name]
		hits := s.indexes[name].Query(query.Residues, s.cfg.MinSharedKmers)
		accepted := 0
		for _, h := range hits {
			if accepted >= s.cfg.MaxHitsPerLib {
				break
			}
			subject := lib.Entries[h.Entry].Seq
			aln, err := Local(query.Residues, subject.Residues, s.cfg.Gaps)
			if err != nil {
				return nil, fmt.Errorf("msa: aligning %s vs %s: %w", query.ID, subject.ID, err)
			}
			res.WorkUnits += int64(query.Len()) * int64(subject.Len())
			if aln.Score == 0 {
				continue
			}
			id := aln.Identity()
			cov := aln.Coverage(query.Len())
			if id < s.cfg.MinIdentity || cov < s.cfg.MinCoverage {
				continue
			}
			accepted++
			if name == "pdb_seqres" {
				res.Templates = append(res.Templates, TemplateHit{
					ID: subject.ID, Identity: id, Coverage: cov,
					Family: lib.Entries[h.Entry].Family,
				})
				continue
			}
			res.MSA.Rows = append(res.MSA.Rows, Row{
				ID:       subject.ID,
				Aligned:  projectToQuery(aln, query.Len()),
				Identity: id,
				Coverage: cov,
				Library:  name,
			})
		}
	}
	return res, nil
}

// projectToQuery maps the subject side of a local alignment into query
// coordinates, yielding a row of exactly queryLen characters.
func projectToQuery(aln *Alignment, queryLen int) string {
	row := make([]byte, queryLen)
	for i := range row {
		row[i] = '-'
	}
	q := aln.QueryStart
	for k := 0; k < len(aln.QueryAln); k++ {
		qc, sc := aln.QueryAln[k], aln.SubjectAln[k]
		switch {
		case qc != '-' && sc != '-':
			if q < queryLen {
				row[q] = sc
			}
			q++
		case qc != '-': // deletion in subject
			q++
		default: // insertion relative to query: not representable in query coords
		}
	}
	return string(row)
}

// Features is the feature bundle handed to the folding stage, the analogue
// of AlphaFold's input-feature pickle.
type Features struct {
	Query       seq.Sequence
	Profile     [][]float64
	Coverage    []float64
	Neff        float64
	Depth       int
	Templates   []TemplateHit
	MeanRowID   float64 // mean identity of MSA rows to the query
	SearchUnits int64
}

// ExtractFeatures converts a search result into folding features.
func ExtractFeatures(res *Result) *Features {
	m := res.MSA
	f := &Features{
		Query:       m.Query,
		Profile:     m.ColumnProfile(),
		Coverage:    m.ColumnCoverage(),
		Neff:        m.Neff(),
		Depth:       m.Depth(),
		Templates:   res.Templates,
		SearchUnits: res.WorkUnits,
	}
	if len(m.Rows) > 1 {
		var sum float64
		for _, r := range m.Rows[1:] {
			sum += r.Identity
		}
		f.MeanRowID = sum / float64(len(m.Rows)-1)
	}
	return f
}
