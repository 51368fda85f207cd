package routeidx

import (
	"fmt"
	"sort"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/routing"
)

// Route returns a path from src to dst, hop-identical to what
// routing.Detour would produce on the same formation result and model.
// It allocates a fresh path per query; batch callers should use
// RouteAppend or RouteMany.
func (ix *Index) Route(src, dst grid.Point) (routing.Path, error) {
	path, _, err := ix.run(src, dst, nil, true)
	if err != nil {
		return nil, err
	}
	return path, nil
}

// RouteAppend is Route appending into buf[:0], so a caller issuing many
// queries reuses one allocation. On error the returned slice still owns
// the buffer — pass it back in on the next call to keep the capacity.
func (ix *Index) RouteAppend(src, dst grid.Point, buf routing.Path) (routing.Path, error) {
	path, _, err := ix.run(src, dst, buf, true)
	return path, err
}

// Hops returns the hop count of the route without materializing the
// path — the cheapest form of the query, since greedy runs are jumped
// over without emitting their cells.
func (ix *Index) Hops(src, dst grid.Point) (int, error) {
	_, hops, err := ix.run(src, dst, nil, false)
	return hops, err
}

// run simulates Detour's walk exactly, in bulk: greedy dimension-order
// runs collapse into binary-searched segment jumps against the row and
// column interval tables, and wall-following episodes run Detour's own
// right-hand step against the forbidden-cell plane. Decisions, hop
// counts and failure modes therefore match Detour on every query.
func (ix *Index) run(src, dst grid.Point, buf routing.Path, wantPath bool) (routing.Path, int, error) {
	topo := ix.src.topo
	if !ix.allowed(src) {
		return buf, 0, &routing.UnroutableError{Role: "source", Point: src, Model: ix.model}
	}
	if !ix.allowed(dst) {
		return buf, 0, &routing.UnroutableError{Role: "destination", Point: dst, Model: ix.model}
	}
	path := buf[:0]
	if wantPath {
		path = append(path, src)
	}
	cur := src
	hops := 0
	maxHops := ix.maxHops

	// Wall-following state, mirroring Detour's: heading and the distance
	// at which the wall was hit.
	wall := false
	var heading mesh.Direction
	hitDist := 0

	for cur != dst && hops < maxHops {
		if !wall {
			dir, _ := routing.DirToward(topo, cur, dst)
			segLen := ix.distAlong(cur, dst, dir)
			bt := ix.firstBlocked(cur, dir, segLen)
			free := segLen
			if bt > 0 {
				free = bt - 1
			}
			if rem := maxHops - hops; free > rem {
				free = rem
			}
			if free > 0 {
				cur, path = ix.emit(path, cur, dir, free, wantPath)
				hops += free
			}
			if bt == 0 || free < bt-1 || hops >= maxHops {
				// Ran the greedy segment to its end (coordinate
				// resolved) or out of budget; loop re-evaluates.
				continue
			}
			// The greedy hop out of cur is blocked: enter wall mode with
			// the obstacle on the right, exactly as Detour does.
			wall = true
			heading = routing.TurnLeft(dir)
			hitDist = topo.Dist(cur, dst)
			continue
		}

		// Leave wall mode when strictly closer than the hit point and a
		// greedy step is available — checked before each wall step, as
		// in Detour.
		if topo.Dist(cur, dst) < hitDist {
			if dir, ok := routing.DirToward(topo, cur, dst); ok {
				if next, ok := topo.NeighborIn(cur, dir); ok && ix.allowed(next) {
					wall = false
					if wantPath {
						path = append(path, next)
					}
					cur = next
					hops++
					continue
				}
			}
		}

		// Right-hand rule — Detour's wall step.
		next, h, ok := ix.rightHandStep(cur, heading)
		if !ok {
			return path, hops, fmt.Errorf("routeidx: stuck at %v (isolated node)", cur)
		}
		heading = h
		if wantPath {
			path = append(path, next)
		}
		cur = next
		hops++
	}
	if cur != dst {
		return path, hops, fmt.Errorf("routeidx: hop budget %d exhausted between %v and %v", maxHops, src, dst)
	}
	return path, hops, nil
}

// distAlong returns how many steps in direction d resolve cur's
// coordinate to dst's along that axis (wrap-aware on tori). d must be
// the direction DirToward picked, so the count is positive.
func (ix *Index) distAlong(cur, dst grid.Point, d mesh.Direction) int {
	switch d {
	case mesh.East:
		return ix.axisDist(dst.X-cur.X, ix.w)
	case mesh.West:
		return ix.axisDist(cur.X-dst.X, ix.w)
	case mesh.North:
		return ix.axisDist(dst.Y-cur.Y, ix.h)
	default: // South
		return ix.axisDist(cur.Y-dst.Y, ix.h)
	}
}

func (ix *Index) axisDist(d, size int) int {
	if ix.torus {
		return ((d % size) + size) % size
	}
	return d
}

// emit advances cur by count cells in direction d, appending the cells
// to path when wantPath is set; hops-only queries jump straight to the
// segment end.
func (ix *Index) emit(path routing.Path, cur grid.Point, d mesh.Direction, count int, wantPath bool) (grid.Point, routing.Path) {
	dl := d.Delta()
	x, y := cur.X, cur.Y
	if !wantPath {
		x += dl.X * count
		y += dl.Y * count
		if ix.torus {
			x = ((x % ix.w) + ix.w) % ix.w
			y = ((y % ix.h) + ix.h) % ix.h
		}
		return grid.Pt(x, y), path
	}
	for i := 0; i < count; i++ {
		x += dl.X
		y += dl.Y
		if ix.torus {
			if x < 0 {
				x += ix.w
			} else if x >= ix.w {
				x -= ix.w
			}
			if y < 0 {
				y += ix.h
			} else if y >= ix.h {
				y -= ix.h
			}
		}
		path = append(path, grid.Pt(x, y))
	}
	return grid.Pt(x, y), path
}

// inside reports whether p lies on the machine.
func (ix *Index) inside(p grid.Point) bool {
	return p.X >= 0 && p.X < ix.w && p.Y >= 0 && p.Y < ix.h
}

// rightHand lists, per heading, the directions Detour's right-hand rule
// tries in order: right, straight, left, back.
var rightHand = func() (t [4][4]mesh.Direction) {
	for _, h := range mesh.Directions {
		t[h] = [4]mesh.Direction{routing.TurnRight(h), h, routing.TurnLeft(h), h.Opposite()}
	}
	return t
}()

// rightHandStep is Detour's wall step: from p with heading h, move to
// the first allowed neighbor of right, straight, left and back, and
// head that way. ok is false when p has no allowed neighbor.
func (ix *Index) rightHandStep(p grid.Point, h mesh.Direction) (next grid.Point, heading mesh.Direction, ok bool) {
	for _, d := range &rightHand[h&3] {
		q := p.Add(d.Delta())
		if uint(q.X) >= uint(ix.w) || uint(q.Y) >= uint(ix.h) {
			if !ix.torus {
				continue
			}
			q = grid.Pt((q.X+ix.w)%ix.w, (q.Y+ix.h)%ix.h) // back across the seam
		}
		if !ix.occ.has(q.X, q.Y) {
			return q, d, true
		}
	}
	return p, h, false
}

// allowed reports whether p may carry traffic under the index's model:
// inside the machine and in no obstacle, read off the forbidden-cell
// plane the row spans are mirrored into. The obstacles partition exactly
// the cells the model forbids (disabled regions, faulty blocks or fault
// components), so this is routing.Model.Allowed with no label plane.
func (ix *Index) allowed(p grid.Point) bool {
	return ix.inside(p) && !ix.occ.has(p.X, p.Y)
}

// firstBlocked returns the 1-based offset along d of the first forbidden
// cell within segLen steps of cur (0 = the whole segment is clear). One
// or two binary searches on the global interval tables; torus segments
// that cross the seam split into two linear pieces.
func (ix *Index) firstBlocked(cur grid.Point, d mesh.Direction, segLen int) int {
	if segLen == 0 {
		return 0
	}
	var spans []span
	var from, size int
	switch d {
	case mesh.East, mesh.West:
		spans = ix.rows.line(cur.Y)
		from, size = cur.X, ix.w
	default:
		spans = ix.cols.line(cur.X)
		from, size = cur.Y, ix.h
	}
	if len(spans) == 0 {
		return 0
	}
	if d == mesh.East || d == mesh.North { // ascending coordinate
		a, b := from+1, from+segLen
		if b < size {
			return firstAsc(spans, a, b, from, 0)
		}
		if t := firstAsc(spans, a, size-1, from, 0); t > 0 {
			return t
		}
		return firstAsc(spans, 0, b-size, from, size)
	}
	a, b := from-segLen, from-1 // descending coordinate
	if a >= 0 {
		return firstDesc(spans, a, b, from, 0)
	}
	if t := firstDesc(spans, 0, b, from, 0); t > 0 {
		return t
	}
	return firstDesc(spans, size+a, size-1, from, size)
}

// firstAsc finds the smallest blocked coordinate in [lo, hi] and returns
// its offset from origin (+add for the wrapped piece of a torus
// segment). Spans are disjoint and sorted, so both lo and hi orders
// agree and one binary search suffices.
func firstAsc(spans []span, lo, hi, origin, add int) int {
	if lo > hi {
		return 0
	}
	i := sort.Search(len(spans), func(i int) bool { return int(spans[i].hi) >= lo })
	if i == len(spans) || int(spans[i].lo) > hi {
		return 0
	}
	x := lo
	if int(spans[i].lo) > x {
		x = int(spans[i].lo)
	}
	return x - origin + add
}

// firstDesc finds the largest blocked coordinate in [lo, hi] — the first
// one met traveling in the descending sense — and returns its offset
// from origin (+sub for the wrapped piece).
func firstDesc(spans []span, lo, hi, origin, sub int) int {
	if lo > hi {
		return 0
	}
	i := sort.Search(len(spans), func(i int) bool { return int(spans[i].lo) > hi }) - 1
	if i < 0 || int(spans[i].hi) < lo {
		return 0
	}
	x := hi
	if int(spans[i].hi) < x {
		x = int(spans[i].hi)
	}
	return origin - x + sub
}
