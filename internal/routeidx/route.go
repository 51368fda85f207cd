package routeidx

import (
	"fmt"

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
// runs collapse into segment jumps found by word scans of the row plane
// and its twin, and wall-following episodes run Detour's own right-hand
// step against the row plane. Decisions, hop counts and failure modes
// therefore match Detour on every query.
func (ix *Index) run(src, dst grid.Point, buf routing.Path, wantPath bool) (routing.Path, int, error) {
	topo := ix.topo
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
	cur, hops, maxHops := src, 0, ix.maxHops
	// Wall-following state, mirroring Detour's: heading and the distance
	// at which the wall was hit.
	wall, heading, hitDist := false, mesh.Direction(0), 0

	for cur != dst && hops < maxHops {
		if !wall {
			dir, _ := routing.DirToward(topo, cur, dst)
			segLen := ix.distAlong(cur, dst, dir)
			bt := ix.firstBlocked(cur, dir, segLen)
			free := segLen
			if bt > 0 {
				free = bt - 1
			}
			free = min(free, maxHops-hops)
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
			dir, _ := routing.DirToward(topo, cur, dst) // cur != dst
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
	dl := d.Delta()
	dist, size := (dst.X-cur.X)*dl.X, ix.w
	if dl.X == 0 {
		dist, size = (dst.Y-cur.Y)*dl.Y, ix.h
	}
	if ix.torus {
		dist = (dist%size + size) % size
	}
	return dist
}

// wrap maps (x, y), at most one machine side off it, back onto a torus.
func (ix *Index) wrap(x, y int) grid.Point {
	if ix.torus {
		x, y = (x+ix.w)%ix.w, (y+ix.h)%ix.h
	}
	return grid.Pt(x, y)
}

// emit advances cur by count cells in direction d, appending the cells
// to path when wantPath is set; hops-only queries jump straight to the
// segment end.
func (ix *Index) emit(path routing.Path, cur grid.Point, d mesh.Direction, count int, wantPath bool) (grid.Point, routing.Path) {
	dl := d.Delta()
	if !wantPath {
		return ix.wrap(cur.X+dl.X*count, cur.Y+dl.Y*count), path
	}
	for i := 0; i < count; i++ {
		cur = ix.wrap(cur.X+dl.X, cur.Y+dl.Y)
		path = append(path, cur)
	}
	return cur, path
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
		dl := d.Delta()
		if q := ix.wrap(p.X+dl.X, p.Y+dl.Y); ix.allowed(q) {
			return q, d, true
		}
	}
	return p, h, false
}

// allowed reports whether p may carry traffic under the index's model:
// inside the machine and not forbidden in the row plane, which holds
// exactly the cells the model forbids (disabled, unsafe or faulty), so
// this is routing.Model.Allowed read off one bit.
func (ix *Index) allowed(p grid.Point) bool {
	return uint(p.X) < uint(ix.w) && uint(p.Y) < uint(ix.h) && !ix.rows.has(p.Y, p.X)
}

// firstBlocked returns the 1-based offset along d of the first forbidden
// cell within segLen steps of cur (0 = the whole segment is clear): a
// word scan of cur's row, or of cur's column in the twin. Torus segments
// that cross the seam split into two linear pieces.
func (ix *Index) firstBlocked(cur grid.Point, d mesh.Direction, segLen int) int {
	if segLen == 0 {
		return 0
	}
	pl, line, from, size := &ix.rows, cur.Y, cur.X, ix.w
	if d == mesh.North || d == mesh.South {
		pl, line, from, size = &ix.cols, cur.X, cur.Y, ix.h
	}
	if d == mesh.East || d == mesh.North { // ascending coordinate
		a, b := from+1, from+segLen
		if c := pl.first(line, a, min(b, size-1), true); c >= 0 {
			return c - from
		}
		if c := pl.first(line, 0, b-size, true); c >= 0 { // the wrapped piece
			return c - from + size
		}
		return 0
	}
	a, b := from-segLen, from-1 // descending coordinate
	if c := pl.first(line, max(a, 0), b, false); c >= 0 {
		return from - c
	}
	if c := pl.first(line, size+a, size-1, false); c >= 0 { // the wrapped piece
		return from - c + size
	}
	return 0
}
