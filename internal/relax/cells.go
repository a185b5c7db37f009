package relax

import (
	"math"

	"repro/internal/geom"
)

// cellList answers "which points can lie within reach of this one" for a
// fixed reach, in O(points) time and memory however far apart the points
// lie. It is the package's one spatial index: CountViolations borrows one
// per count, System.buildPairs keeps one per system, and ViolationTracker
// keeps one per tracked trace and moves its points as they move.
//
// Points are binned by floor(p/cell) per axis into cubic cells a little
// over 2·reach wide, so everything within reach of a point is in its own
// cell or, per axis, the one cell beyond the nearer face: eight cells. A
// cellTable maps each occupied cell's coordinates to a dense id, and each
// cell keeps its points in a singly linked list, so a point that moves is
// rebinned in time proportional to its old cell's occupancy. A cell keeps
// its id once emptied. Buffers are grow-only: steady-state binds allocate
// nothing.
//
// bind links the points in index order, each at the head of its list, so
// until a point moves every list runs in descending index order.
// CountViolations and buildPairs, which want only the partners on one
// side of a point, end each walk at the first point on the other side;
// ViolationTracker, whose lists lose that order as its points move, walks
// them whole. No caller depends on the order beyond that: the counts are
// sums of integers, and EnergyForces orders what it sums by itself.
type cellList struct {
	cellTable
	cell float64
	head []int32 // per cell id: its first point, -1 if none
	next []int32 // per point: its cell's next point, -1 at the end
	id   []int32 // per point: its cell's id
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
	l.id = grown(l.id, n)
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
	l.id[a], l.next[a] = id, l.head[id]
	l.head[id] = a
}

// move rebins point a, now at p, if it left its cell.
func (l *cellList) move(a int32, p geom.Vec3) {
	id, c := l.id[a], cellOf(p, l.cell)
	if l.cells[id] == c {
		return
	}
	at := &l.head[id]
	for *at != a {
		at = &l.next[*at]
	}
	*at = l.next[a]
	l.link(a, c)
}

// near returns, for each of the eight cells that can hold a point within
// reach of position p, the first point of its list, or -1 if it holds
// none; next links each list's points. Callers walk the lists in place.
func (l *cellList) near(p geom.Vec3) (firsts [8]int32) {
	c := cellOf(p, l.cell)
	side := nearSide(p, c, l.cell)
	k := 0
	for _, x := range [2]int{c[0], side[0]} {
		for _, y := range [2]int{c[1], side[1]} {
			for _, z := range [2]int{c[2], side[2]} {
				firsts[k] = -1
				if t := l.table[l.slot([3]int{x, y, z})]; t != 0 {
					firsts[k] = l.head[t-1]
				}
				k++
			}
		}
	}
	return firsts
}

// cellTable maps cell coordinates to dense ids, in order of first
// appearance, through an open-addressing table.
type cellTable struct {
	table []int32  // id+1 per slot, 0 = empty; len is a power of two
	cells [][3]int // per id: cell coordinates
}

// reset empties the table and sizes it for at least n cells.
func (t *cellTable) reset(n int) {
	size := 4
	for size < 2*n {
		size <<= 1
	}
	t.table = grown(t.table, size)
	clear(t.table)
	if cap(t.cells) < n {
		t.cells = make([][3]int, 0, n)
	}
	t.cells = t.cells[:0]
}

// slot returns the table slot of cell c: the one holding its id, or the
// empty one where it belongs.
func (t *cellTable) slot(c [3]int) int {
	h := uint64(c[0])*0x9E3779B97F4A7C15 ^ uint64(c[1])*0xC2B2AE3D27D4EB4F ^ uint64(c[2])*0x165667B19E3779F9
	mask := len(t.table) - 1
	i := int(h>>32) & mask
	for id := t.table[i]; id != 0 && t.cells[id-1] != c; id = t.table[i] {
		i = (i + 1) & mask
	}
	return i
}

// add returns the id of cell c, giving it the next id if it is new. The
// table doubles once it is half full.
func (t *cellTable) add(c [3]int) int32 {
	sl := t.slot(c)
	if id := t.table[sl]; id != 0 {
		return id - 1
	}
	t.cells = append(t.cells, c)
	t.table[sl] = int32(len(t.cells))
	if 2*len(t.cells) > len(t.table) {
		t.table = make([]int32, 2*len(t.table))
		for id, c := range t.cells {
			t.table[t.slot(c)] = int32(id + 1)
		}
	}
	return int32(len(t.cells) - 1)
}

// grown returns buf with length n, reallocating only when it must.
func grown(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// cellOf returns the coordinates of the cell of side cell that holds p.
func cellOf(p geom.Vec3, cell float64) [3]int {
	return [3]int{
		int(math.Floor(p.X / cell)),
		int(math.Floor(p.Y / cell)),
		int(math.Floor(p.Z / cell)),
	}
}

// nearSide returns, per axis, the neighbour of p's cell c (of side cell)
// beyond the face p is nearer to. With cell >= 2·reach, c and these
// neighbours span the eight cells that can hold a point within reach of p.
func nearSide(p geom.Vec3, c [3]int, cell float64) [3]int {
	var side [3]int
	for ax, x := range [3]float64{p.X, p.Y, p.Z} {
		side[ax] = c[ax] - 1
		if q := x / cell; q-math.Floor(q) >= 0.5 {
			side[ax] = c[ax] + 1
		}
	}
	return side
}

// reachCell is the side of the cells a cellList bins at for queries within
// reach. The margin over 2·reach dwarfs the rounding of p/cell (for |p| up
// to ~1e9 cells), so a query's choice of cells can never cost a neighbour.
func reachCell(reach float64) float64 { return 2 * reach * (1 + 1e-6) }
