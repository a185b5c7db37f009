package seq

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAlphabetRoundTrip(t *testing.T) {
	for i := 0; i < NumAminoAcids; i++ {
		if c := Alphabet[i]; Index(c) != i {
			t.Errorf("Index(%c) = %d, want %d", c, Index(c), i)
		}
	}
	if Index('X') != -1 || Index('-') != -1 || Index('*') != -1 {
		t.Error("non-canonical characters must map to -1")
	}
	if Index('a') != Index('A') {
		t.Error("lower-case must map like upper-case")
	}
}

func TestTablesCoverAlphabet(t *testing.T) {
	for i := 0; i < NumAminoAcids; i++ {
		c := Alphabet[i]
		if _, ok := ThreeLetter[c]; !ok {
			t.Errorf("ThreeLetter missing %c", c)
		}
	}
}

func TestBackgroundFreqSumsToOne(t *testing.T) {
	var sum float64
	for _, f := range BackgroundFreq {
		if f <= 0 {
			t.Fatal("background frequency must be positive")
		}
		sum += f
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("background frequencies sum to %v", sum)
	}
}

func TestValidate(t *testing.T) {
	good := Sequence{ID: "a", Residues: "ACDEFGHIKLMNPQRSTVWY"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	bad := Sequence{ID: "b", Residues: "ACDEFZ"}
	if err := bad.Validate(); err == nil {
		t.Error("invalid residue accepted")
	}
	empty := Sequence{ID: "c"}
	if err := empty.Validate(); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestIsHypothetical(t *testing.T) {
	h := Sequence{Description: "Hypothetical protein DVU_0042"}
	if !h.IsHypothetical() {
		t.Error("hypothetical not detected")
	}
	n := Sequence{Description: "sulfate adenylyltransferase"}
	if n.IsHypothetical() {
		t.Error("annotated protein flagged hypothetical")
	}
}

func TestReadFASTABasic(t *testing.T) {
	in := ">p1 hypothetical protein\nACDE\nFGHI\n>p2\nklmn\n"
	seqs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records", len(seqs))
	}
	if seqs[0].ID != "p1" || seqs[0].Description != "hypothetical protein" {
		t.Errorf("record 0 header = %q %q", seqs[0].ID, seqs[0].Description)
	}
	if seqs[0].Residues != "ACDEFGHI" {
		t.Errorf("record 0 seq = %q", seqs[0].Residues)
	}
	if seqs[1].Residues != "KLMN" {
		t.Errorf("record 1 seq = %q (case folding)", seqs[1].Residues)
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := []string{
		"ACDE\n",           // data before header
		">\nACDE\n",        // empty header
		">p1\n>p2\nACDE",   // first record empty
		">p1\nAC\n>last\n", // trailing empty record
	}
	for _, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in)); err == nil {
			t.Errorf("malformed input accepted: %q", in)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	seqs := []Sequence{
		{ID: "a", Description: "first", Residues: strings.Repeat("ACDEFGHIKL", 13)},
		{ID: "b", Residues: "MNPQRSTVWY"},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("round trip count %d", len(got))
	}
	for i := range seqs {
		if got[i].ID != seqs[i].ID || got[i].Residues != seqs[i].Residues || got[i].Description != seqs[i].Description {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], seqs[i])
		}
	}
}

func TestFASTAWrapsAt60(t *testing.T) {
	s := []Sequence{{ID: "x", Residues: strings.Repeat("A", 125)}}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 60 + 60 + 5
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if len(lines[1]) != 60 || len(lines[3]) != 5 {
		t.Errorf("wrap widths: %d, %d", len(lines[1]), len(lines[3]))
	}
}

// Property: any sequence over the canonical alphabet round-trips through
// FASTA unchanged.
func TestQuickFASTARoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		var b strings.Builder
		for _, c := range raw {
			b.WriteByte(Alphabet[int(c)%NumAminoAcids])
		}
		res := b.String()
		if res == "" {
			res = "A"
		}
		in := []Sequence{{ID: "q", Residues: res}}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, in); err != nil {
			return false
		}
		out, err := ReadFASTA(&buf)
		return err == nil && len(out) == 1 && out[0].Residues == res
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
