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
// column interval tables, and wall-following episodes replay the blocked
// region's precomputed boundary ring with an O(1) validity check per
// step. Any situation the precomputed contour cannot cover — a wall
// state outside every ring, or a ring cell forbidden in the real map by
// a second region — falls back to running the right-hand automaton
// inline, which is Detour's own wall step. Decisions, hop counts and
// failure modes therefore match Detour on every query.
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
	// at which the wall was hit, plus the precomputed ring being
	// replayed (ringAt < 0 = inline automaton).
	wall := false
	var heading mesh.Direction
	hitDist := 0
	var ring []ringStep
	ringAt := -1
	var wallReg *regionIdx

	for cur != dst && hops < maxHops {
		if !wall {
			dir, _ := routing.DirToward(topo, cur, dst)
			segLen := ix.distAlong(cur, dst, dir)
			bt, breg := ix.firstBlocked(cur, dir, segLen)
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
			// the obstacle on the right, exactly as Detour does, and try
			// to pick up the blocking region's precomputed ring at the
			// entry state.
			wall = true
			heading = routing.TurnLeft(dir)
			hitDist = topo.Dist(cur, dst)
			wallReg = breg
			ring, ringAt = nil, -1
			if breg != nil {
				if rp, ok := breg.pos[ringStep{p: cur, h: heading}]; ok {
					ring = breg.rings[rp.ring]
					ringAt = int(rp.idx)
				}
			}
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

		if ringAt >= 0 {
			ni := ringAt + 1
			if ni == len(ring) {
				ni = 0
			}
			st := ring[ni]
			// The idealized automaton rejected every direction Detour
			// probes before st.h for reasons (mesh border, this region's
			// cells) that hold in the real map too, so st is Detour's
			// choice whenever st.p is really allowed.
			if ix.allowed(st.p) {
				ringAt = ni
				heading = st.h
				if wantPath {
					path = append(path, st.p)
				}
				cur = st.p
				hops++
				continue
			}
			ringAt = -1 // the real map deviates here; go inline
		}

		// Inline right-hand rule — Detour's wall step verbatim.
		moved := false
		for _, d := range [4]mesh.Direction{routing.TurnRight(heading), heading, routing.TurnLeft(heading), heading.Opposite()} {
			next, ok := topo.NeighborIn(cur, d)
			if !ok {
				continue
			}
			if !ix.allowed(next) {
				// Remember whose wall rejected the probe — the contour
				// re-acquisition below follows that region's ring.
				wallReg = ix.regionAt(next)
				continue
			}
			heading = d
			if wantPath {
				path = append(path, next)
			}
			cur = next
			hops++
			moved = true
			break
		}
		if !moved {
			return path, hops, fmt.Errorf("routeidx: stuck at %v (isolated node)", cur)
		}
		// Back onto a precomputed contour as soon as the automaton's
		// state reappears in the wall region's ring: entry states on a
		// rho tail, and deviations forced by a second region, converge
		// onto a registered cycle within a few steps.
		if wallReg != nil {
			if rp, ok := wallReg.pos[ringStep{p: cur, h: heading}]; ok {
				ring = wallReg.rings[rp.ring]
				ringAt = int(rp.idx)
			}
		}
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

// allowed reports whether p may carry traffic under the index's model:
// inside the machine and in no obstacle (regionAt(p) == nil, read off
// the forbidden-cell plane the row spans are mirrored into). The
// obstacles partition exactly the cells the model forbids (disabled
// regions, faulty blocks or fault components), so this is
// routing.Model.Allowed with no label plane.
func (ix *Index) allowed(p grid.Point) bool {
	return ix.inside(p) && !ix.occ.has(p.X, p.Y)
}

// regionAt returns the compiled region owning obstacle cell p, nil for
// allowed cells — one binary search on p's row table. p must be inside
// the machine.
func (ix *Index) regionAt(p grid.Point) *regionIdx {
	spans := ix.rows[p.Y]
	i := sort.Search(len(spans), func(i int) bool { return int(spans[i].hi) >= p.X })
	if i < len(spans) && int(spans[i].lo) <= p.X {
		return spans[i].reg
	}
	return nil
}

// firstBlocked returns the 1-based offset along d of the first forbidden
// cell within segLen steps of cur (0 = the whole segment is clear) and
// the compiled region owning that cell. One or two binary searches on
// the global interval tables; torus segments that cross the seam split
// into two linear pieces.
func (ix *Index) firstBlocked(cur grid.Point, d mesh.Direction, segLen int) (int, *regionIdx) {
	if segLen == 0 {
		return 0, nil
	}
	var spans []span
	var from, size int
	switch d {
	case mesh.East, mesh.West:
		spans = ix.rows[cur.Y]
		from, size = cur.X, ix.w
	default:
		spans = ix.cols[cur.X]
		from, size = cur.Y, ix.h
	}
	if len(spans) == 0 {
		return 0, nil
	}
	if d == mesh.East || d == mesh.North { // ascending coordinate
		a, b := from+1, from+segLen
		if b < size {
			return firstAsc(spans, a, b, from, 0)
		}
		if t, rp := firstAsc(spans, a, size-1, from, 0); t > 0 {
			return t, rp
		}
		return firstAsc(spans, 0, b-size, from, size)
	}
	a, b := from-segLen, from-1 // descending coordinate
	if a >= 0 {
		return firstDesc(spans, a, b, from, 0)
	}
	if t, rp := firstDesc(spans, 0, b, from, 0); t > 0 {
		return t, rp
	}
	return firstDesc(spans, size+a, size-1, from, size)
}

// firstAsc finds the smallest blocked coordinate in [lo, hi] and returns
// its offset from origin (+add for the wrapped piece of a torus
// segment). Spans are disjoint and sorted, so both lo and hi orders
// agree and one binary search suffices.
func firstAsc(spans []span, lo, hi, origin, add int) (int, *regionIdx) {
	if lo > hi {
		return 0, nil
	}
	i := sort.Search(len(spans), func(i int) bool { return int(spans[i].hi) >= lo })
	if i == len(spans) || int(spans[i].lo) > hi {
		return 0, nil
	}
	x := lo
	if int(spans[i].lo) > x {
		x = int(spans[i].lo)
	}
	return x - origin + add, spans[i].reg
}

// firstDesc finds the largest blocked coordinate in [lo, hi] — the first
// one met traveling in the descending sense — and returns its offset
// from origin (+sub for the wrapped piece).
func firstDesc(spans []span, lo, hi, origin, sub int) (int, *regionIdx) {
	if lo > hi {
		return 0, nil
	}
	i := sort.Search(len(spans), func(i int) bool { return int(spans[i].lo) > hi }) - 1
	if i < 0 || int(spans[i].hi) < lo {
		return 0, nil
	}
	x := hi
	if int(spans[i].hi) < x {
		x = int(spans[i].hi)
	}
	return origin - x + sub, spans[i].reg
}
