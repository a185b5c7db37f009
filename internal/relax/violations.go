package relax

import (
	"sync"

	"repro/internal/geom"
)

// Violations are the CASP-style structural flaw counts of Section 3.2.3.
type Violations struct {
	Clashes int // Cα–Cα pairs closer than 1.9 Å
	Bumps   int // Cα–Cα pairs closer than 3.6 Å (including clashes)
}

// violationReach is the longest Cα–Cα distance that counts as a violation.
const violationReach = 3.6

// pairViolations is the one violation predicate: what a Cα pair at
// distance d (sequence separation at least 2) adds to the counts.
// CountViolations and ViolationTracker both count through it.
func pairViolations(d float64) Violations {
	var v Violations
	if d < 1.9 {
		v.Clashes = 1
	}
	if d < violationReach {
		v.Bumps = 1
	}
	return v
}

// cellPool recycles cellLists for the package-level entry points
// (CountViolations) that have no System to hang scratch off.
var cellPool = sync.Pool{New: func() any { return new(cellList) }}

// CountViolations counts clashes and bumps over Cα pairs with sequence
// separation of at least 2.
func CountViolations(ca []geom.Vec3) Violations {
	var v Violations
	l := cellPool.Get().(*cellList)
	defer cellPool.Put(l)
	l.bind(ca, violationReach)
	next := l.next
	for i, p := range ca {
		// Freshly bound lists run in descending index order, so each walk
		// ends at the first point closer along the chain than i+2.
		for _, j := range l.near(p) {
			for ; int(j) >= i+2; j = next[j] {
				pv := pairViolations(p.Dist(ca[j]))
				v.Clashes += pv.Clashes
				v.Bumps += pv.Bumps
			}
		}
	}
	return v
}

// ViolationTracker holds the violation counts of a Cα trace that moves a
// few atoms at a time, and recounts only the pairs a move touched: where a
// pull shifts some 30 of T1080's 1,400 atoms, CountViolations would rescan
// all of them. Its counts always equal CountViolations of the trace last
// passed in. A ViolationTracker is not safe for concurrent use.
type ViolationTracker struct {
	pos     []geom.Vec3 // the trace as last counted
	v       Violations
	cells   cellList
	moved   []int32
	inMoved []bool // per atom: listed in moved
}

// NewViolationTracker counts ca and starts tracking it. The tracker keeps
// its own copy of the positions.
func NewViolationTracker(ca []geom.Vec3) *ViolationTracker {
	t := &ViolationTracker{
		pos:     append([]geom.Vec3(nil), ca...),
		v:       CountViolations(ca),
		inMoved: make([]bool, len(ca)),
		moved:   make([]int32, 0, 64), // a pull moves about 30
	}
	t.cells.bind(t.pos, violationReach)
	return t
}

// Violations returns the counts of the trace last counted.
func (t *ViolationTracker) Violations() Violations { return t.v }

// Update recounts after ca, a trace of the tracked length, replaced the
// tracked one, and returns the new counts. The atoms whose position
// compares unequal to the tracked one are the moved ones, wherever they
// lie along the chain: every pair touching one is subtracted at the old
// positions and added at the new, each pair once.
func (t *ViolationTracker) Update(ca []geom.Vec3) Violations {
	t.moved = t.moved[:0]
	for i := range t.pos {
		if ca[i] != t.pos[i] {
			t.moved = append(t.moved, int32(i))
			t.inMoved[i] = true
		}
	}
	t.tally(-1)
	for _, a := range t.moved {
		t.pos[a] = ca[a]
		t.cells.move(a, ca[a])
	}
	t.tally(+1)
	for _, a := range t.moved {
		t.inMoved[a] = false
	}
	return t.v
}

// tally adds sign times the violations of every counted pair touching a
// moved atom at the tracked positions. A pair of two moved atoms is taken
// from its higher-indexed end only.
func (t *ViolationTracker) tally(sign int) {
	for _, a := range t.moved {
		p := t.pos[a]
		for _, b := range t.cells.near(p) {
			for ; b >= 0; b = t.cells.next[b] {
				if b == a || b == a-1 || b == a+1 || t.inMoved[b] && b < a {
					continue
				}
				pv := pairViolations(p.Dist(t.pos[b]))
				t.v.Clashes += sign * pv.Clashes
				t.v.Bumps += sign * pv.Bumps
			}
		}
	}
}
