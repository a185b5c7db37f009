// Package fold implements the deep-learning inference surrogate that stands
// in for AlphaFold2 (Section 3.2.2 of the paper). The real network and its
// weights are unavailable here, so the engine simulates the *observable
// behaviour* of AlphaFold inference that the paper's experiments measure:
//
//   - five models per target, two of which consume structural templates;
//   - iterative recycling, with the ColabFold-style dynamic early stop on
//     distogram convergence (tolerance 0.5 for the genome preset, 0.1 for
//     super; up to 20 recycles, degraded toward 6 for long sequences);
//   - prediction quality that improves with MSA depth (Neff) and recycle
//     count, with a small population of "challenging" targets that only
//     converge near the recycle limit (Section 4.2's improvement tail);
//   - pLDDT and pTMS confidence estimates used for model ranking;
//   - compute cost scaling with ensembles × recycles × L^1.5 and an
//     out-of-memory failure mode for long sequences under the casp14
//     8-ensemble preset (Table 1's missing 8 longest sequences).
//
// Ground-truth geometry comes from a NativeProvider "physics oracle": the
// simulated native structure the network is assumed to have learned.
// Inference output approaches the oracle structure as effective compute
// grows; the pipeline itself never sees the oracle.
package fold

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Native is a ground-truth structure: Cα trace plus side-chain centroids.
type Native struct {
	CA []geom.Vec3
	SC []geom.Vec3
}

// Len returns the residue count.
func (n *Native) Len() int { return len(n.CA) }

// NativeProvider supplies the simulated ground-truth structure for a target
// (the role nature plays for the real AlphaFold). Implementations must be
// deterministic.
type NativeProvider interface {
	NativeOf(id string, length int) *Native
}

// SSKind is a secondary-structure state.
type SSKind byte

const (
	Helix SSKind = 'H'
	Sheet SSKind = 'E'
	Coil  SSKind = 'C'
)

// GenerateTopology builds a deterministic, compact, protein-like Cα trace
// of the given length from a topology seed. Equal seeds and lengths yield
// identical structures; different seeds yield structurally dissimilar folds
// (TM-score between random pairs is low). Chains are built from secondary-
// structure segments with ideal local geometry and a centroid-seeking bias
// that keeps the fold globular.
func GenerateTopology(seed uint64, length int) *Native {
	if length <= 0 {
		return &Native{}
	}
	base := rng.New(seed).SplitNamed("topology")
	// Independent streams per phase: the segment decomposition consumes a
	// length-dependent number of draws, so the geometry walk must NOT share
	// its stream — otherwise the same seed at two lengths would produce
	// unrelated folds, breaking the family-structure conservation the
	// Section 4.6 analysis depends on (same seed => identical chain prefix).
	ssR := base.SplitNamed("ss")
	geoR := base.SplitNamed("geo")
	scR := base.SplitNamed("sc")

	// Draw a segment decomposition: alternating SS segments.
	ss := make([]SSKind, length)
	pos := 0
	for pos < length {
		kind := Coil
		segLen := 2 + ssR.Intn(4)
		switch ssR.Intn(3) {
		case 0:
			kind = Helix
			segLen = 6 + ssR.Intn(12)
		case 1:
			kind = Sheet
			segLen = 4 + ssR.Intn(6)
		}
		for i := 0; i < segLen && pos < length; i++ {
			ss[pos] = kind
			pos++
		}
	}

	ca := make([]geom.Vec3, length)
	// Excluded volume: the chain is self-avoiding at the clearance radius,
	// so generated natives are free of clashes and bumps (the violations
	// the relaxation experiments plant are added on top, deliberately).
	const clearance = 4.4
	occupied := newOccupancyGrid(clearance)

	// Current frame: position plus direction.
	dir := geom.Vec3{X: 1}
	up := geom.Vec3{Z: 1}
	cur := geom.Vec3{}
	phase := 0.0

	// proposeStep returns the ideal next position per the SS rule.
	proposeStep := func(i int) geom.Vec3 {
		switch ss[i] {
		case Helix:
			// Advance along a coarse helix: 1.5 Å rise, ~5.4 Å circumradius
			// projected onto the Cα virtual-bond representation.
			phase += 100 * math.Pi / 180
			lateral := up.Cross(dir).Unit()
			step := dir.Scale(1.5).
				Add(lateral.Scale(2.3 * math.Cos(phase))).
				Add(up.Scale(2.3 * math.Sin(phase)))
			return cur.Add(step.Unit().Scale(3.8))
		case Sheet:
			// Extended: nearly straight with slight pleat.
			pleat := up.Scale(0.6 * math.Cos(phase))
			phase += math.Pi
			return cur.Add(dir.Add(pleat).Unit().Scale(3.8))
		default:
			// Coil: redirect; bias back toward the centroid of what is
			// built so far to stay globular.
			centroid := geom.Centroid(ca[:i+1])
			bias := centroid.Sub(cur).Unit().Scale(0.8)
			wobble := geom.Vec3{
				X: geoR.NormFloat64(), Y: geoR.NormFloat64(), Z: geoR.NormFloat64(),
			}.Unit()
			dir = dir.Add(wobble).Add(bias).Unit()
			return cur.Add(dir.Scale(3.8))
		}
	}

	for i := 0; i < length; i++ {
		ca[i] = cur
		occupied.add(cur)

		next := proposeStep(i)
		// Collision avoidance: if the proposal lands too close to the
		// existing chain (excluding the bonded predecessor), rotate the
		// step around the current position until clear, preferring the
		// most-clear candidate if nothing fully clears.
		best := next
		bestClear := occupied.clearance(next, cur)
		for try := 0; bestClear < clearance && try < 24; try++ {
			axis := geom.Vec3{X: geoR.NormFloat64(), Y: geoR.NormFloat64(), Z: geoR.NormFloat64() + 1e-3}
			rot := geom.RotationAboutAxis(axis, (0.3+geoR.Float64())*math.Pi)
			cand := cur.Add(rot.MulVec(next.Sub(cur)))
			if c := occupied.clearance(cand, cur); c > bestClear {
				bestClear = c
				best = cand
			}
		}
		if best != next {
			// The detour redirects the chain; update the frame to follow.
			dir = best.Sub(cur).Unit()
		}
		cur = best
		// Occasionally re-randomize the helical frame so helices do not all
		// share an axis.
		if i%17 == 16 {
			dir = dir.Add(geom.Vec3{
				X: geoR.NormFloat64() * 0.5, Y: geoR.NormFloat64() * 0.5, Z: geoR.NormFloat64() * 0.5,
			}).Unit()
			up = dir.Cross(geom.Vec3{X: geoR.NormFloat64(), Y: geoR.NormFloat64(), Z: 1}).Unit()
			if up.Norm() < 1e-9 {
				up = geom.Vec3{Z: 1}
			}
		}
	}

	// Side-chain centroids: 2.4 Å from Cα, pointing away from the local
	// backbone direction with a deterministic wobble.
	sc := make([]geom.Vec3, length)
	for i := range sc {
		var tangent geom.Vec3
		switch {
		case i == 0 && length > 1:
			tangent = ca[1].Sub(ca[0])
		case i == length-1 && length > 1:
			tangent = ca[i].Sub(ca[i-1])
		case length == 1:
			tangent = geom.Vec3{X: 1}
		default:
			tangent = ca[i+1].Sub(ca[i-1])
		}
		centroid := geom.Centroid(ca)
		out := ca[i].Sub(centroid).Unit()
		if out.Norm() < 1e-9 {
			out = geom.Vec3{Z: 1}
		}
		perp := out.Sub(tangent.Unit().Scale(out.Dot(tangent.Unit())))
		if perp.Norm() < 1e-9 {
			perp = geom.Vec3{Z: 1}
		}
		wob := geom.Vec3{X: scR.NormFloat64(), Y: scR.NormFloat64(), Z: scR.NormFloat64()}.Scale(0.25)
		sc[i] = ca[i].Add(perp.Unit().Add(wob).Unit().Scale(2.4))
	}
	return &Native{CA: ca, SC: sc}
}

// occupancyGrid is a spatial hash used for self-avoidance during chain
// growth.
type occupancyGrid struct {
	cell  float64
	cells map[[3]int][]geom.Vec3
}

func newOccupancyGrid(cell float64) *occupancyGrid {
	return &occupancyGrid{cell: cell, cells: make(map[[3]int][]geom.Vec3)}
}

func (g *occupancyGrid) key(p geom.Vec3) [3]int {
	return [3]int{
		int(math.Floor(p.X / g.cell)),
		int(math.Floor(p.Y / g.cell)),
		int(math.Floor(p.Z / g.cell)),
	}
}

func (g *occupancyGrid) add(p geom.Vec3) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], p)
}

// clearance returns the distance from p to the nearest occupied point,
// ignoring points within bond distance of `exclude` (the bonded
// predecessor), capped at one cell ring (anything farther counts as clear).
func (g *occupancyGrid) clearance(p, exclude geom.Vec3) float64 {
	k := g.key(p)
	best := 2 * g.cell
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				for _, q := range g.cells[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
					if q.Dist(exclude) < 1e-9 {
						continue
					}
					if d := p.Dist(q); d < best {
						best = d
					}
				}
			}
		}
	}
	return best
}

// ComposeDomains concatenates several domain folds into one multi-domain
// native structure, translating each successive domain so domains touch but
// do not interpenetrate. This models multi-domain architecture and the
// "novel arrangements of known domains" of Section 4.6.
func ComposeDomains(domains []*Native, seed uint64) *Native {
	out := &Native{}
	if len(domains) == 0 {
		return out
	}
	r := rng.New(seed).SplitNamed("compose")
	offset := geom.Vec3{}
	for d, dom := range domains {
		if dom.Len() == 0 {
			continue
		}
		// Center the domain, rotate it deterministically, then place it.
		center := geom.Centroid(dom.CA)
		rot := geom.RotationAboutAxis(geom.Vec3{
			X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64() + 1e-3,
		}, r.Float64()*2*math.Pi)
		radius := radiusOfGyration(dom.CA) + 4
		if d > 0 {
			dir := geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}.Unit()
			offset = offset.Add(dir.Scale(radius * 1.8))
		}
		for i := range dom.CA {
			out.CA = append(out.CA, rot.MulVec(dom.CA[i].Sub(center)).Add(offset))
			out.SC = append(out.SC, rot.MulVec(dom.SC[i].Sub(center)).Add(offset))
		}
	}
	return out
}

// FitLength adapts a native structure to exactly n residues by truncating
// or by extending the terminus with a coil walk (deterministic in seed).
func FitLength(nat *Native, n int, seed uint64) *Native {
	if nat.Len() == n {
		return nat
	}
	if nat.Len() > n {
		return &Native{CA: nat.CA[:n], SC: nat.SC[:n]}
	}
	out := &Native{CA: geom.Clone(nat.CA), SC: geom.Clone(nat.SC)}
	r := rng.New(seed).SplitNamed("fitlength")
	cur := geom.Vec3{}
	dir := geom.Vec3{X: 1}
	if k := nat.Len(); k > 0 {
		cur = nat.CA[k-1]
		if k > 1 {
			dir = nat.CA[k-1].Sub(nat.CA[k-2]).Unit()
		}
	}
	for out.Len() < n {
		dir = dir.Add(geom.Vec3{
			X: r.NormFloat64() * 0.7, Y: r.NormFloat64() * 0.7, Z: r.NormFloat64() * 0.7,
		}).Unit()
		cur = cur.Add(dir.Scale(3.8))
		out.CA = append(out.CA, cur)
		out.SC = append(out.SC, cur.Add(dir.Cross(geom.Vec3{Z: 1}).Unit().Scale(2.4)))
	}
	return out
}

func radiusOfGyration(pts []geom.Vec3) float64 {
	if len(pts) == 0 {
		return 0
	}
	c := geom.Centroid(pts)
	var sum float64
	for _, p := range pts {
		sum += p.Dist2(c)
	}
	return math.Sqrt(sum / float64(len(pts)))
}

// FamilyTopologySeed maps a domain family of the shared universe to its
// fold topology seed. Both the pipeline's ground-truth provider and the
// structural database builder (the pdb70 stand-in) use this mapping, which
// is what makes "structure is more conserved than sequence" hold in the
// simulation: every member of a family folds to the same topology
// regardless of how far its sequence has diverged.
func FamilyTopologySeed(universeSeed uint64, family int) uint64 {
	h := universeSeed ^ 0x517cc1b727220a95
	h ^= uint64(family) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}
