// Package relax implements the geometry-optimization ("relaxation") stage
// of the pipeline (Sections 3.2.3, 4.4 and 4.5 of the paper): a molecular-
// mechanics energy minimization that removes non-physical clashes and bumps
// from predicted models while perturbing the structure as little as
// possible.
//
// The protocol constants mirror the paper exactly: a harmonic positional
// restraint on every heavy atom with force constant 10 kcal·mol⁻¹·Å⁻², and
// minimization until the energy change between steps falls below
// 2.39 kcal·mol⁻¹. Relax always runs with them, and runs one
// protocol loop (minimize, count violations, repeat while violations
// remain) whose round cap is the platform's: ten rounds for the original
// AlphaFold protocol, one for the paper's optimized protocol.
//
// Structures are represented at the Cα + side-chain-centroid level; the
// CASP violation definitions the paper uses (clash: Cα–Cα < 1.9 Å, bump:
// Cα–Cα < 3.6 Å) are defined on Cα distances, so this resolution carries
// the full behaviour of the experiment.
//
// Every neighbour query goes through one spatial index, cellList
// (cells.go): the violation counts and the energy kernel's pair list alike.
//
// Violations are counted by one predicate (pairViolations) over the pairs
// a cellList offers: CountViolations rescans a whole trace, and
// ViolationTracker keeps the count of a trace that moves a few atoms at a
// time — it finds the moved atoms by comparing positions, rebins them in
// its cellList, and recounts only the pairs touching them, before and
// after the move. Relax counts only its output: its protocol loop counts
// the coordinates after each round, and the last round's count is
// Result.After, since the loop only ever exits right after counting. A
// caller that wants the input's count calls CountViolations.
//
// The energy kernel finds non-bonded partners through a Verlet pair list:
// every non-excluded pair within the repulsion cutoff plus a 2 Å skin,
// rebuilt from an O(atoms) cellList only once some atom has moved half
// the skin from where the list was built — a handful of times per
// restrained minimization, not once per evaluation. The list changes
// cost only: each atom's active pairs are summed in the order a scan of
// its 27 surrounding cutoff-sized cells meets them, so energies, forces
// and step counts are bitwise those of that per-evaluation scan, which
// the tests keep as energyForcesRef.
package relax

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// ForceField holds the energy parameters (kcal/mol, Å).
type ForceField struct {
	BondK      float64 // CA(i)-CA(i+1) and CA-SC bond strength
	CABond     float64 // equilibrium consecutive Cα distance
	SCBond     float64 // equilibrium Cα–side-chain distance
	RepK       float64 // soft-sphere repulsion strength
	CARepDist  float64 // Cα–Cα repulsion onset distance
	SCRepDist  float64 // repulsion onset for pairs involving side chains
	RestraintK float64 // positional restraint (10 in the paper)
}

// DefaultForceField returns the parameters used for the reproduction.
func DefaultForceField() ForceField {
	return ForceField{
		BondK:      100,
		CABond:     3.8,
		SCBond:     2.4,
		RepK:       60,
		CARepDist:  4.0,
		SCRepDist:  3.0,
		RestraintK: 10,
	}
}

// System is a minimizable structure: n residues, each with a Cα atom and a
// side-chain centroid pseudo-atom. Atom layout: index 2i = Cα of residue i,
// 2i+1 = side-chain of residue i.
type System struct {
	FF  ForceField
	N   int         // residues
	Pos []geom.Vec3 // 2N atoms
	Ref []geom.Vec3 // restraint reference (the unrelaxed input), 2N atoms

	// Reusable per-system scratch: the Verlet pair list with the cellList
	// that builds it, and the minimizer's force/velocity buffers. The energy
	// kernel runs thousands of times per relaxation, so these are allocated
	// once per system, not once per call. A System is therefore not safe
	// for concurrent use — the parallel execution layer gives each worker
	// its own System, which is the natural unit anyway.
	//
	// The list holds every non-excluded pair b > a within cut+skin of each
	// other at listPos, the positions it was built from; the pairs of atom
	// a are pairs[pairOff[a]:pairOff[a+1]]. It stays valid until the cutoff
	// changes or some atom strays moveLimit from its listPos.
	nb         cellList
	listCut    float64
	listPos    []geom.Vec3
	pairOff    []int32
	pairs      []int32
	hits       []hit
	listBuilds int // list builds so far, for tests
	forces     []geom.Vec3
	vel        []geom.Vec3
}

// NewSystem builds a system from Cα and side-chain traces.
func NewSystem(ca, sc []geom.Vec3, ff ForceField) (*System, error) {
	if len(ca) == 0 {
		return nil, fmt.Errorf("relax: empty structure")
	}
	if len(ca) != len(sc) {
		return nil, fmt.Errorf("relax: %d CA vs %d SC atoms", len(ca), len(sc))
	}
	n := len(ca)
	s := &System{FF: ff, N: n, Pos: make([]geom.Vec3, 2*n), Ref: make([]geom.Vec3, 2*n)}
	for i := 0; i < n; i++ {
		s.Pos[2*i] = ca[i]
		s.Pos[2*i+1] = sc[i]
	}
	copy(s.Ref, s.Pos)
	return s, nil
}

// CAInto writes the current Cα trace into dst (grown as needed) and
// returns it, letting the protocol loop reuse one buffer across rounds.
func (s *System) CAInto(dst []geom.Vec3) []geom.Vec3 {
	if cap(dst) < s.N {
		dst = make([]geom.Vec3, s.N)
	}
	dst = dst[:s.N]
	for i := range dst {
		dst[i] = s.Pos[2*i]
	}
	return dst
}

// SC returns the current side-chain centroids.
func (s *System) SC() []geom.Vec3 {
	out := make([]geom.Vec3, s.N)
	for i := range out {
		out[i] = s.Pos[2*i+1]
	}
	return out
}

// addBond accumulates one harmonic bond term into forces, returning its
// energy contribution (hoisted out of EnergyForces so the hot loop carries
// no per-call closure).
func (s *System) addBond(forces []geom.Vec3, a, b int, r0, k float64) float64 {
	d := s.Pos[a].Sub(s.Pos[b])
	r := d.Norm()
	if r < 1e-9 {
		return 0
	}
	dr := r - r0
	f := d.Scale(-2 * k * dr / r)
	forces[a] = forces[a].Add(f)
	forces[b] = forces[b].Sub(f)
	return k * dr * dr
}

// EnergyForces computes the total potential energy and per-atom forces
// (negative gradient).
func (s *System) EnergyForces(forces []geom.Vec3) float64 {
	for i := range forces {
		forces[i] = geom.Vec3{}
	}
	var e float64
	ff := &s.FF

	// Bonded terms.
	for i := 0; i < s.N; i++ {
		if i+1 < s.N {
			e += s.addBond(forces, 2*i, 2*(i+1), ff.CABond, ff.BondK)
		}
		e += s.addBond(forces, 2*i, 2*i+1, ff.SCBond, ff.BondK)
	}

	// Positional restraints (every atom, k = 10 as in the paper).
	for i := range s.Pos {
		d := s.Pos[i].Sub(s.Ref[i])
		e += ff.RestraintK * d.Norm2()
		forces[i] = forces[i].Sub(d.Scale(2 * ff.RestraintK))
	}

	// Non-bonded soft-sphere repulsion over the pair list. The ordering
	// contract: a pair inside its onset distance r0 <= cut lies in adjacent
	// floor(p/cut) cells, and the reference scan visits a's 27 such cells
	// in (dx,dy,dz) order, ascending index within each. Summing a's hits in
	// that order makes every sum bitwise what that scan produces.
	cut := math.Max(ff.CARepDist, ff.SCRepDist)
	if s.listStale(cut) {
		s.buildPairs(cut)
	}
	hits := s.hits
	for a, pa := range s.Pos {
		hits = hits[:0]
		for _, b := range s.pairs[s.pairOff[a]:s.pairOff[a+1]] {
			r0 := ff.SCRepDist
			if a%2 == 0 && b%2 == 0 {
				r0 = ff.CARepDist
			}
			d := pa.Sub(s.Pos[b])
			r := d.Norm()
			if r >= r0 || r < 1e-9 {
				continue
			}
			hits = append(hits, hit{b: b, d: d, r: r, dr: r0 - r})
		}
		if len(hits) > 1 {
			ka := cellOf(pa, cut)
			for i := range hits {
				kb := cellOf(s.Pos[hits[i].b], cut)
				hits[i].rank = int64((kb[0]-ka[0])*9+(kb[1]-ka[1])*3+kb[2]-ka[2])<<32 + int64(hits[i].b)
				for j := i; j > 0 && hits[j].rank < hits[j-1].rank; j-- {
					hits[j], hits[j-1] = hits[j-1], hits[j]
				}
			}
		}
		for _, h := range hits {
			e += ff.RepK * h.dr * h.dr
			f := h.d.Scale(2 * ff.RepK * h.dr / h.r)
			forces[a] = forces[a].Add(f)
			forces[h.b] = forces[h.b].Sub(f)
		}
	}
	s.hits = hits
	return e
}

// hit is one listed pair that is inside its onset distance now. rank
// orders a's hits: the partner's cell offset (dx,dy,dz) from a's cell,
// then the partner's index.
type hit struct {
	b     int32
	rank  int64
	d     geom.Vec3
	r, dr float64
}

// skin is how far beyond the cutoff the pair list reaches: two atoms may
// each move moveLimit (a hair under skin/2, so that rounding cannot matter)
// before a pair the list left out can come within the cutoff.
const (
	skin       = 2.0
	moveLimit2 = 0.249 * skin * skin
)

func (s *System) listStale(cut float64) bool {
	if cut != s.listCut || len(s.listPos) != len(s.Pos) {
		return true
	}
	for i, p := range s.Pos {
		if p.Sub(s.listPos[i]).Norm2() > moveLimit2 {
			return true
		}
	}
	return false
}

// buildPairs bins the atoms once and lists every non-excluded pair within
// cut+skin. The list is sized from the atom count (the CASP-like models
// average one such partner b > a per atom, a protein-dense packing about
// seven), so a fresh System allocates a fixed handful of buffers and a
// rebuild none.
func (s *System) buildPairs(cut float64) {
	n := len(s.Pos)
	s.listBuilds++
	s.listCut = cut
	s.listPos = append(s.listPos[:0], s.Pos...)
	s.pairOff = grown(s.pairOff, n+1)
	if s.pairs == nil {
		s.pairs = make([]int32, 0, 8*n)
		s.hits = make([]hit, 0, 16)
	}
	reach := cut + skin
	s.nb.bind(s.Pos, reach)
	next, pairs := s.nb.next, s.pairs[:0]
	for a, pa := range s.Pos {
		s.pairOff[a] = int32(len(pairs))
		// Freshly bound lists run in descending index order, so each walk
		// ends at the first point not above a.
		for _, b := range s.nb.near(pa) {
			for ; int(b) > a; b = next[b] {
				if !s.excluded(a, int(b)) && pa.Sub(s.Pos[b]).Norm2() < reach*reach {
					pairs = append(pairs, b)
				}
			}
		}
	}
	s.pairs = pairs
	s.pairOff[n] = int32(len(pairs))
}

// excluded reports whether the non-bonded term is skipped for an atom pair:
// atoms of the same residue and bonded/adjacent backbone pairs.
func (s *System) excluded(a, b int) bool {
	ra, rb := a/2, b/2
	if ra == rb {
		return true
	}
	diff := ra - rb
	if diff < 0 {
		diff = -diff
	}
	// Consecutive residues: their CA-CA is a bond and the SC positions are
	// geometrically constrained by it; exclude to avoid fighting the bond
	// terms.
	return diff == 1
}
