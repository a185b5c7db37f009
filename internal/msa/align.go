package msa

import (
	"fmt"
	"math/bits"
	"sync"
)

// Alignment is a pairwise alignment of a query and a subject, expressed as
// gapped strings of equal length plus summary statistics.
type Alignment struct {
	QueryAln   string // query with '-' gaps
	SubjectAln string // subject with '-' gaps
	Score      int
	// QueryStart/QueryEnd delimit the aligned query region (0-based,
	// half-open); likewise for the subject.
	QueryStart, QueryEnd     int
	SubjectStart, SubjectEnd int
}

// Identity returns the fraction of aligned (non-gap on both sides) columns
// with identical residues, measured over aligned columns.
func (a *Alignment) Identity() float64 {
	matched, aligned := 0, 0
	for i := 0; i < len(a.QueryAln); i++ {
		q, s := a.QueryAln[i], a.SubjectAln[i]
		if q == '-' || s == '-' {
			continue
		}
		aligned++
		if q == s {
			matched++
		}
	}
	if aligned == 0 {
		return 0
	}
	return float64(matched) / float64(aligned)
}

// Coverage returns the fraction of the full query covered by the aligned
// region.
func (a *Alignment) Coverage(queryLen int) float64 {
	if queryLen == 0 {
		return 0
	}
	return float64(a.QueryEnd-a.QueryStart) / float64(queryLen)
}

// GapParams are affine gap penalties (positive numbers; a gap of length k
// costs Open + k*Extend).
type GapParams struct {
	Open   int
	Extend int
}

// DefaultGaps are BLOSUM62-appropriate penalties.
var DefaultGaps = GapParams{Open: 11, Extend: 1}

// negInf stands for an impossible alignment state: -2⁴⁰ where int has 64
// bits, -2²⁴ where it has 32, far below any score with room to subtract
// gap penalties without wrapping.
const negInf = int(-1) << (bits.UintSize/2 + 8)

// dpScratch is the reusable working set of one alignment call: the three
// Gotoh matrices as one flat backing array plus the traceback byte buffer.
// Gotoh needs the full matrices for traceback, but not 3(n+1) separate row
// allocations per call — the alignment kernels run millions of times per
// campaign (every library-search candidate), so the backing arrays are
// pooled and reused across calls and goroutines.
type dpScratch struct {
	dp []int  // M, X, Y concatenated: 3 * rows * cols
	tb []byte // qa then sa, each up to rows+cols
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

// matrices returns the three rows x cols matrices as flat slices (index
// with i*cols + j), growing the pooled backing array as needed.
func (s *dpScratch) matrices(rows, cols int) (M, X, Y []int) {
	rc := rows * cols
	if cap(s.dp) < 3*rc {
		s.dp = make([]int, 3*rc)
	}
	buf := s.dp[:3*rc]
	return buf[:rc], buf[rc : 2*rc], buf[2*rc : 3*rc]
}

// traceback returns two zero-length byte buffers with capacity n each.
func (s *dpScratch) traceback(n int) (qa, sa []byte) {
	if cap(s.tb) < 2*n {
		s.tb = make([]byte, 2*n)
	}
	buf := s.tb[:2*n]
	return buf[:0:n], buf[n : n : 2*n]
}

// Local computes a Smith-Waterman local alignment with affine gaps.
func Local(query, subject string, gp GapParams) (*Alignment, error) {
	n, m := len(query), len(subject)
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("msa: local alignment of empty sequence")
	}
	scratch := dpPool.Get().(*dpScratch)
	defer dpPool.Put(scratch)
	cols := m + 1
	M, X, Y := scratch.matrices(n+1, cols)
	for i := 0; i <= n; i++ {
		M[i*cols] = 0
		X[i*cols], Y[i*cols] = negInf, negInf
	}
	for j := 0; j <= m; j++ {
		M[j] = 0
		X[j], Y[j] = negInf, negInf
	}

	best, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		row := i * cols
		prev := row - cols
		qc := query[i-1]
		for j := 1; j <= m; j++ {
			s := Score(qc, subject[j-1])
			v := max3(M[prev+j-1], X[prev+j-1], Y[prev+j-1]) + s
			if v < 0 {
				v = 0
			}
			M[row+j] = v
			X[row+j] = maxInt(M[prev+j]-gp.Open-gp.Extend, X[prev+j]-gp.Extend)
			Y[row+j] = maxInt(M[row+j-1]-gp.Open-gp.Extend, Y[row+j-1]-gp.Extend)
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	if best == 0 {
		return &Alignment{}, nil // no positive-scoring local alignment
	}

	qa, sa := scratch.traceback(n + m)
	i, j := bi, bj
	state := 0
	for i > 0 && j > 0 {
		if state == 0 && M[i*cols+j] == 0 {
			break
		}
		switch state {
		case 0:
			qa = append(qa, query[i-1])
			sa = append(sa, subject[j-1])
			s := Score(query[i-1], subject[j-1])
			prev := M[i*cols+j] - s
			switch prev {
			case M[(i-1)*cols+j-1]:
				state = 0
			case X[(i-1)*cols+j-1]:
				state = 1
			case Y[(i-1)*cols+j-1]:
				state = 2
			default:
				state = 0 // reached a 0-clamped cell
			}
			i--
			j--
		case 1:
			qa = append(qa, query[i-1])
			sa = append(sa, '-')
			if X[i*cols+j] == M[(i-1)*cols+j]-gp.Open-gp.Extend {
				state = 0
			}
			i--
		default:
			qa = append(qa, '-')
			sa = append(sa, subject[j-1])
			if Y[i*cols+j] == M[i*cols+j-1]-gp.Open-gp.Extend {
				state = 0
			}
			j--
		}
	}
	reverse(qa)
	reverse(sa)
	return &Alignment{
		QueryAln: string(qa), SubjectAln: string(sa), Score: best,
		QueryStart: i, QueryEnd: bi, SubjectStart: j, SubjectEnd: bj,
	}, nil
}

func max3(a, b, c int) int { return maxInt(a, maxInt(b, c)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
