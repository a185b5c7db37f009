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

// gridPool recycles grids for the package-level entry points
// (CountViolations) that have no System to hang scratch off.
var gridPool = sync.Pool{New: func() any { return new(grid) }}

// CountViolations counts clashes and bumps over Cα pairs with sequence
// separation of at least 2.
func CountViolations(ca []geom.Vec3) Violations {
	var v Violations
	g := gridPool.Get().(*grid)
	defer gridPool.Put(g)
	g.rebind(ca, violationReach)
	for i, p := range ca {
		for _, j := range g.near(i, p) {
			if int(j) < i+2 {
				continue
			}
			pv := pairViolations(p.Dist(ca[j]))
			v.Clashes += pv.Clashes
			v.Bumps += pv.Bumps
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
			if b == a || b == a-1 || b == a+1 || t.inMoved[b] && b < a {
				continue
			}
			pv := pairViolations(p.Dist(t.pos[b]))
			t.v.Clashes += sign * pv.Clashes
			t.v.Bumps += sign * pv.Bumps
		}
	}
}

// cellList bins points like grid, in cells a little over 2·reach wide,
// but keeps each occupied cell's points in a linked list, so one point can
// move in O(1) where grid would rebind them all. A cell keeps its id once
// emptied.
type cellList struct {
	cellTable
	cell       float64
	head       []int32 // per cell id: its first point, -1 if none
	next, prev []int32 // per point: its cell's next and previous points, -1 at the ends
	id         []int32 // per point: its cell's id
	buf        []int32 // near's result
}

// bind bins pos, for queries within reach.
func (l *cellList) bind(pos []geom.Vec3, reach float64) {
	n := len(pos)
	l.cell = reachCell(reach)
	l.reset(n)
	if cap(l.head) < n {
		l.head = make([]int32, 0, n)
	}
	l.head = l.head[:0]
	l.next = grown(l.next, n)
	l.prev = grown(l.prev, n)
	l.id = grown(l.id, n)
	if l.buf == nil {
		l.buf = make([]int32, 0, 64) // a query meets a few dozen points
	}
	for i, p := range pos {
		l.link(int32(i), cellOf(p, l.cell))
	}
}

// link puts point a at the head of cell c's list.
func (l *cellList) link(a int32, c [3]int) {
	id := l.add(c)
	for int(id) >= len(l.head) {
		l.head = append(l.head, -1)
	}
	h := l.head[id]
	l.id[a], l.prev[a], l.next[a] = id, -1, h
	if h >= 0 {
		l.prev[h] = a
	}
	l.head[id] = a
}

// move rebins point a, now at p, if it left its cell.
func (l *cellList) move(a int32, p geom.Vec3) {
	id, c := l.id[a], cellOf(p, l.cell)
	if l.cells[id] == c {
		return
	}
	prev, next := l.prev[a], l.next[a]
	if prev >= 0 {
		l.next[prev] = next
	} else {
		l.head[id] = next
	}
	if next >= 0 {
		l.prev[next] = prev
	}
	l.link(a, c)
}

// near returns every point that can lie within reach of position p. The
// result is valid until the next call.
func (l *cellList) near(p geom.Vec3) []int32 {
	c := cellOf(p, l.cell)
	side := nearSide(p, c, l.cell)
	out := l.buf[:0]
	for _, x := range [2]int{c[0], side[0]} {
		for _, y := range [2]int{c[1], side[1]} {
			for _, z := range [2]int{c[2], side[2]} {
				if t := l.table[l.slot([3]int{x, y, z})]; t != 0 {
					for b := l.head[t-1]; b >= 0; b = l.next[b] {
						out = append(out, b)
					}
				}
			}
		}
	}
	l.buf = out
	return out
}
