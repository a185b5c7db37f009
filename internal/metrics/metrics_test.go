package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if q := Quantile(sorted, 0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 40 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(sorted, 0.5); q != 25 {
		t.Errorf("median = %v", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{60, 70, 80, 90}
	if f := FractionAbove(xs, 70); f != 0.5 {
		t.Errorf("fraction = %v", f)
	}
	if FractionAbove(nil, 1) != 0 {
		t.Error("empty fraction should be 0")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v, %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v, %v", r, err)
	}
	if _, err := Pearson(xs, ys[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Header: []string{"Preset", "pLDDT", "Count"}}
	tab.AddRow("reduced_db", 78.4, 559)
	tab.AddRow("genome", 79.5, 559)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "reduced_db") || !strings.Contains(out, "78.400") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Errorf("table lines = %d", len(lines))
	}
}

func TestGantRow(t *testing.T) {
	row := GantRow([][2]float64{{0, 50}, {75, 100}}, 100, 20)
	if len(row) != 20 {
		t.Fatalf("row length %d", len(row))
	}
	if row[0] != '#' || row[5] != '#' {
		t.Errorf("busy start missing: %s", row)
	}
	if row[12] != '.' {
		t.Errorf("idle gap missing: %s", row)
	}
	if row[19] != '#' {
		t.Errorf("busy end missing: %s", row)
	}
	if GantRow(nil, 0, 10) != ".........." {
		t.Error("degenerate horizon")
	}
}
