// Package metrics provides the summary statistics and table rendering the
// benchmark harness uses to report paper-versus-measured results.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	Median, P90, P99 float64
}

// Summarize computes descriptive statistics. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	variance := sumsq/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample
// using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FractionAbove returns the fraction of the sample strictly greater than
// the threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples; it returns an error on mismatch or degenerate variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("metrics: pearson length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("metrics: pearson needs at least 2 points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if vx <= 0 || vy <= 0 {
		return 0, fmt.Errorf("metrics: pearson with zero variance")
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Table renders aligned text tables for the bench reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with column alignment.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	writeRow := func(row []string) error {
		var b strings.Builder
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			b.WriteString(fmt.Sprintf("%-*s", widths[i]+2, cell))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if len(t.Header) > 0 {
		if err := writeRow(t.Header); err != nil {
			return err
		}
		var rule []string
		for i := 0; i < cols; i++ {
			rule = append(rule, strings.Repeat("-", widths[i]))
		}
		if err := writeRow(rule); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// GantRow renders one worker's timeline as an ASCII strip (the Fig. 2
// visual): '#' for busy, '.' for idle, over [0, horizon].
func GantRow(intervals [][2]float64, horizon float64, width int) string {
	if width <= 0 {
		width = 80
	}
	row := make([]byte, width)
	for i := range row {
		row[i] = '.'
	}
	if horizon <= 0 {
		return string(row)
	}
	for _, iv := range intervals {
		lo := int(iv[0] / horizon * float64(width))
		hi := int(iv[1] / horizon * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < width; i++ {
			if i >= 0 {
				row[i] = '#'
			}
		}
	}
	return string(row)
}
