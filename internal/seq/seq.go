// Package seq provides the protein sequence model used throughout the
// reproduction: the 20-letter amino-acid alphabet with residue names and
// background frequencies, sequence records, and FASTA I/O.
package seq

import (
	"fmt"
	"strings"
)

// Alphabet is the canonical 20 amino acids, indexed 0..19 in this order.
const Alphabet = "ACDEFGHIKLMNPQRSTVWY"

// NumAminoAcids is the alphabet size.
const NumAminoAcids = len(Alphabet)

// aaIndex maps an amino-acid letter (upper case) to its alphabet index, or
// -1 if invalid.
var aaIndex [256]int8

func init() {
	for i := range aaIndex {
		aaIndex[i] = -1
	}
	for i := 0; i < len(Alphabet); i++ {
		aaIndex[Alphabet[i]] = int8(i)
		aaIndex[Alphabet[i]+('a'-'A')] = int8(i)
	}
}

// Index returns the alphabet index of an amino-acid letter, or -1 for any
// non-canonical character (including gaps and ambiguity codes).
func Index(c byte) int { return int(aaIndex[c]) }

// ThreeLetter maps one-letter codes to PDB-style three-letter residue names.
var ThreeLetter = map[byte]string{
	'A': "ALA", 'C': "CYS", 'D': "ASP", 'E': "GLU", 'F': "PHE",
	'G': "GLY", 'H': "HIS", 'I': "ILE", 'K': "LYS", 'L': "LEU",
	'M': "MET", 'N': "ASN", 'P': "PRO", 'Q': "GLN", 'R': "ARG",
	'S': "SER", 'T': "THR", 'V': "VAL", 'W': "TRP", 'Y': "TYR",
}

// BackgroundFreq is the approximate background frequency of each amino acid
// in UniProt-like databases, indexed by alphabet index. It sums to 1.
var BackgroundFreq = [NumAminoAcids]float64{
	// A      C      D      E      F      G      H      I      K      L
	0.0826, 0.0137, 0.0546, 0.0672, 0.0386, 0.0708, 0.0227, 0.0593, 0.0581, 0.0965,
	// M      N      P      Q      R      S      T      V      W      Y
	0.0241, 0.0406, 0.0475, 0.0393, 0.0553, 0.0660, 0.0535, 0.0687, 0.0110, 0.0292,
}

// Sequence is a named protein sequence.
type Sequence struct {
	ID          string // accession-like identifier
	Description string // free-text description (e.g. "hypothetical protein")
	Residues    string // one-letter amino-acid string, upper case
}

// Len returns the sequence length in residues.
func (s *Sequence) Len() int { return len(s.Residues) }

// Validate reports an error if the sequence contains non-canonical residues
// or is empty.
func (s *Sequence) Validate() error {
	if len(s.Residues) == 0 {
		return fmt.Errorf("seq: %s: empty sequence", s.ID)
	}
	for i := 0; i < len(s.Residues); i++ {
		if Index(s.Residues[i]) < 0 {
			return fmt.Errorf("seq: %s: invalid residue %q at position %d", s.ID, s.Residues[i], i)
		}
	}
	return nil
}

// IsHypothetical reports whether the sequence is annotated as a hypothetical
// protein, the class Section 4.6 of the paper analyses.
func (s *Sequence) IsHypothetical() bool {
	return strings.Contains(strings.ToLower(s.Description), "hypothetical")
}
