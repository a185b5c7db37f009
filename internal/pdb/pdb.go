// Package pdb provides minimal PDB-format reading and writing for the
// predicted models: enough to round-trip the Cα/side-chain-centroid
// representation the pipeline uses, with pLDDT stored in the B-factor
// column the way AlphaFold and the AlphaFold Database do.
package pdb

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/seq"
)

// Atom is one ATOM record.
type Atom struct {
	Serial  int
	Name    string // e.g. "CA", "CB"
	ResName string // three-letter residue name
	Chain   byte
	ResSeq  int
	Pos     geom.Vec3
	BFactor float64 // carries per-residue pLDDT, AlphaFold-style
}

// Model is a single-chain structural model.
type Model struct {
	ID    string
	Atoms []Atom
}

// FromTrace builds a model from a sequence, a Cα trace and matching
// side-chain centroids (scs may be nil) with per-residue B-factors (bf may
// be nil).
func FromTrace(id string, residues string, cas, scs []geom.Vec3, bf []float64) (*Model, error) {
	if len(cas) != len(residues) {
		return nil, fmt.Errorf("pdb: %d CA atoms for %d residues", len(cas), len(residues))
	}
	if scs != nil && len(scs) != len(cas) {
		return nil, fmt.Errorf("pdb: %d side-chain centroids for %d residues", len(scs), len(cas))
	}
	if bf != nil && len(bf) != len(cas) {
		return nil, fmt.Errorf("pdb: %d b-factors for %d residues", len(bf), len(cas))
	}
	m := &Model{ID: id}
	serial := 1
	for i := range cas {
		res3, ok := seq.ThreeLetter[residues[i]]
		if !ok {
			res3 = "UNK"
		}
		var b float64
		if bf != nil {
			b = bf[i]
		}
		m.Atoms = append(m.Atoms, Atom{
			Serial: serial, Name: "CA", ResName: res3, Chain: 'A',
			ResSeq: i + 1, Pos: cas[i], BFactor: b,
		})
		serial++
		if scs != nil && residues[i] != 'G' {
			m.Atoms = append(m.Atoms, Atom{
				Serial: serial, Name: "CB", ResName: res3, Chain: 'A',
				ResSeq: i + 1, Pos: scs[i], BFactor: b,
			})
			serial++
		}
	}
	return m, nil
}

// Write emits the model in PDB format.
func Write(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "HEADER    PREDICTED MODEL%svia repro pipeline\nTITLE     %s\n",
		strings.Repeat(" ", 10), m.ID); err != nil {
		return err
	}
	for _, a := range m.Atoms {
		name := a.Name
		if len(name) < 4 {
			name = " " + name // standard column alignment for short names
		}
		if _, err := fmt.Fprintf(bw, "ATOM  %5d %-4s %3s %c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f\n",
			a.Serial, name, a.ResName, a.Chain, a.ResSeq,
			a.Pos.X, a.Pos.Y, a.Pos.Z, 1.0, a.BFactor); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "TER\nEND"); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses ATOM records from a PDB stream; everything else is ignored.
func Read(r io.Reader) (*Model, error) {
	m := &Model{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.HasPrefix(line, "TITLE") {
			m.ID = strings.TrimSpace(line[6:])
			continue
		}
		if !strings.HasPrefix(line, "ATOM") {
			continue
		}
		if len(line) < 66 {
			return nil, fmt.Errorf("pdb: short ATOM record at line %d", lineNo)
		}
		serial, err := strconv.Atoi(strings.TrimSpace(line[6:11]))
		if err != nil {
			return nil, fmt.Errorf("pdb: bad serial at line %d: %w", lineNo, err)
		}
		resSeq, err := strconv.Atoi(strings.TrimSpace(line[22:26]))
		if err != nil {
			return nil, fmt.Errorf("pdb: bad resSeq at line %d: %w", lineNo, err)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(line[30:38]), 64)
		if err != nil {
			return nil, fmt.Errorf("pdb: bad x at line %d: %w", lineNo, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(line[38:46]), 64)
		if err != nil {
			return nil, fmt.Errorf("pdb: bad y at line %d: %w", lineNo, err)
		}
		z, err := strconv.ParseFloat(strings.TrimSpace(line[46:54]), 64)
		if err != nil {
			return nil, fmt.Errorf("pdb: bad z at line %d: %w", lineNo, err)
		}
		b, err := strconv.ParseFloat(strings.TrimSpace(line[60:66]), 64)
		if err != nil {
			return nil, fmt.Errorf("pdb: bad b-factor at line %d: %w", lineNo, err)
		}
		m.Atoms = append(m.Atoms, Atom{
			Serial:  serial,
			Name:    strings.TrimSpace(line[12:16]),
			ResName: strings.TrimSpace(line[17:20]),
			Chain:   line[21],
			ResSeq:  resSeq,
			Pos:     geom.Vec3{X: x, Y: y, Z: z},
			BFactor: b,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pdb: reading: %w", err)
	}
	return m, nil
}
