package msa

import (
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/seq"
)

// benchSeq returns a deterministic pseudo-random protein sequence.
func benchSeq(seed uint64, n int) string {
	r := rng.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = seq.Alphabet[r.Intn(seq.NumAminoAcids)]
	}
	return string(b)
}

// BenchmarkLocalAlign measures the Smith-Waterman kernel the library search
// path (Searcher.Search) calls for every candidate hit, on a genome-typical
// pair (~300 x ~280 residues). It runs on one P: a sync.Pool keeps its
// last item in a per-P slot other Ps cannot take, so with more than one P
// the benchmark goroutine moving between them makes dpPool miss and charge
// a fresh 2 MB of matrices to a few ops. That moves B/op by up to 1 KB
// from run to run while allocs/op stays 3.
func BenchmarkLocalAlign(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	q := benchSeq(3, 300)
	s := benchSeq(4, 280)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Local(q, s, DefaultGaps); err != nil {
			b.Fatal(err)
		}
	}
}
