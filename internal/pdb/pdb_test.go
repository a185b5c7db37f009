package pdb

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func makeTestModel(t *testing.T) *Model {
	t.Helper()
	r := rng.New(1)
	res := "ACGDEF"
	cas := make([]geom.Vec3, len(res))
	scs := make([]geom.Vec3, len(res))
	bf := make([]float64, len(res))
	for i := range cas {
		cas[i] = geom.Vec3{X: float64(i) * 3.8, Y: r.NormFloat64(), Z: r.NormFloat64()}
		scs[i] = cas[i].Add(geom.Vec3{X: 0.5, Y: 1.5, Z: 0.2})
		bf[i] = 50 + 5*float64(i)
	}
	m, err := FromTrace("test-model", res, cas, scs, bf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromTraceValidation(t *testing.T) {
	ca := []geom.Vec3{{X: 1}}
	if _, err := FromTrace("x", "AC", ca, nil, nil); err == nil {
		t.Error("CA/residue count mismatch accepted")
	}
	if _, err := FromTrace("x", "A", ca, []geom.Vec3{{X: 1}, {X: 2}}, nil); err == nil {
		t.Error("SC count mismatch accepted")
	}
	if _, err := FromTrace("x", "A", ca, nil, []float64{1, 2}); err == nil {
		t.Error("b-factor count mismatch accepted")
	}
}

func TestGlycineHasNoCB(t *testing.T) {
	m := makeTestModel(t)
	for _, a := range m.Atoms {
		if a.ResName == "GLY" && a.Name == "CB" {
			t.Error("glycine was given a CB atom")
		}
	}
	// Non-glycine residues must have both CA and CB: 6 residues, 1 GLY.
	if got, want := len(m.Atoms), 6+5; got != want {
		t.Errorf("atom count = %d, want %d", got, want)
	}
}

func TestCACoords(t *testing.T) {
	m := makeTestModel(t)
	var cas []geom.Vec3
	for _, a := range m.Atoms {
		if a.Name == "CA" {
			cas = append(cas, a.Pos)
		}
	}
	if len(cas) != 6 {
		t.Fatalf("CA count = %d", len(cas))
	}
	if math.Abs(cas[1].X-3.8) > 1e-9 {
		t.Errorf("CA[1].X = %v", cas[1].X)
	}
}

func TestRoundTrip(t *testing.T) {
	m := makeTestModel(t)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID {
		t.Errorf("ID = %q, want %q", got.ID, m.ID)
	}
	if len(got.Atoms) != len(m.Atoms) {
		t.Fatalf("atom count %d vs %d", len(got.Atoms), len(m.Atoms))
	}
	for i := range m.Atoms {
		a, b := m.Atoms[i], got.Atoms[i]
		if a.Name != b.Name || a.ResName != b.ResName || a.ResSeq != b.ResSeq {
			t.Errorf("atom %d metadata mismatch: %+v vs %+v", i, a, b)
		}
		if a.Pos.Dist(b.Pos) > 0.002 { // PDB stores 3 decimals
			t.Errorf("atom %d position drifted: %v vs %v", i, a.Pos, b.Pos)
		}
		if math.Abs(a.BFactor-b.BFactor) > 0.01 {
			t.Errorf("atom %d b-factor %v vs %v", i, a.BFactor, b.BFactor)
		}
	}
}

func TestReadIgnoresNonAtomRecords(t *testing.T) {
	in := "HEADER    X\nREMARK hello\nATOM      1  CA  ALA A   1       1.000   2.000   3.000  1.00 90.00\nEND\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 {
		t.Fatalf("atoms = %d", len(m.Atoms))
	}
	if m.Atoms[0].BFactor != 90 {
		t.Errorf("b-factor = %v", m.Atoms[0].BFactor)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"ATOM  x\n",
		"ATOM      1  CA  ALA A   1       X.000   2.000   3.000  1.00 90.00\n",
		"ATOM      1  CA  ALA A   X       1.000   2.000   3.000  1.00 90.00\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("malformed record accepted: %q", in)
		}
	}
}
