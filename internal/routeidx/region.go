package routeidx

import (
	"slices"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/region"
	"ocpmesh/internal/routing"
)

// xrun is one maximal interval of region cells within a single row or
// column of the region's bounding box.
type xrun struct{ lo, hi int32 }

// ringStep is one state of the wall-following automaton: the cell the
// walker stands on and the heading it arrived with. It doubles as the
// key of the ring position map.
type ringStep struct {
	p grid.Point
	h mesh.Direction
}

// ringPos locates a wall state on one of a region's boundary rings.
type ringPos struct {
	ring, idx int32
}

// regionIdx is the compiled form of one obstacle. It is a pure function
// of (topology, cell set): nothing here depends on other regions, which
// is exactly why an incremental rebuild may carry a regionIdx over
// unchanged whenever the region's own cells did not change — the result
// is byte-identical to recompiling, by construction.
type regionIdx struct {
	bounds grid.Rect
	size   int
	// rowRuns[y-bounds.MinY] and colRuns[x-bounds.MinX] hold the sorted
	// maximal cell intervals of each row/column — the region's
	// contribution to the global interval tables.
	rowRuns [][]xrun
	colRuns [][]xrun
	// corners are the cells of the boundary rings where the heading
	// changes, sorted canonically — the compressed corner array of the
	// contour.
	corners []grid.Point
	// rings are the wall-following contour cycles of the region in
	// (cell, heading) state space, traced by Detour's right-hand
	// automaton on the idealized map containing only this region's cells
	// and the mesh borders. pos maps each on-cycle state to its ring and
	// offset; states whose trajectory never closed (rare rho-shaped
	// tails) are absent and route via the inline automaton instead.
	rings [][]ringStep
	pos   map[ringStep]ringPos
}

// compileRegion builds the compiled form of one obstacle: its row runs
// are the region's own, and one row-major pass over its cells extends
// or opens the column runs.
func compileRegion(topo *mesh.Topology, reg *region.Region) *regionIdx {
	r := &regionIdx{bounds: reg.Bounds(), size: reg.Size()}
	r.rowRuns = make([][]xrun, r.bounds.MaxY-r.bounds.MinY+1)
	r.colRuns = make([][]xrun, r.bounds.MaxX-r.bounds.MinX+1)
	for _, run := range reg.Runs() {
		row := &r.rowRuns[run.Y-r.bounds.MinY]
		*row = append(*row, xrun{lo: int32(run.Lo), hi: int32(run.Hi)})
		for x := run.Lo; x <= run.Hi; x++ {
			col := r.colRuns[x-r.bounds.MinX]
			if n := len(col); n > 0 && col[n-1].hi == int32(run.Y-1) {
				col[n-1].hi++
			} else {
				r.colRuns[x-r.bounds.MinX] = append(col, xrun{lo: int32(run.Y), hi: int32(run.Y)})
			}
		}
	}

	// Trace the wall-following contour from every possible wall-entry
	// state: a greedy walker blocked stepping from c into region cell b
	// enters wall mode at c heading TurnLeft(direction of the blocked
	// step). A trajectory that touches the mesh border may lawfully
	// follow it (Detour does the same), so the budget covers the border
	// circumference as well as the region shell.
	budget := 8*r.size + 8*(topo.Width()+topo.Height()) + 64
	reg.EachNode(func(b grid.Point) {
		for _, d := range mesh.Directions {
			c, ok := topo.NeighborIn(b, d)
			if !ok || r.has(c) {
				continue
			}
			blocked := d.Opposite() // the greedy step c -> b that got blocked
			r.trace(topo, ringStep{p: c, h: routing.TurnLeft(blocked)}, budget)
		}
	})

	for _, ring := range r.rings {
		for i, s := range ring {
			next := ring[(i+1)%len(ring)]
			if next.h != s.h {
				r.corners = append(r.corners, s.p)
			}
		}
	}
	grid.SortPoints(r.corners)
	r.corners = slices.Compact(r.corners)
	return r
}

// has reports whether p is one of the region's cells, read off its row
// runs (a disabled region, being orthogonally convex, has one per row).
func (r *regionIdx) has(p grid.Point) bool {
	if p.Y < r.bounds.MinY || p.Y > r.bounds.MaxY {
		return false
	}
	for _, run := range r.rowRuns[p.Y-r.bounds.MinY] {
		if int(run.lo) <= p.X && p.X <= int(run.hi) {
			return true
		}
	}
	return false
}

// eachRun calls fn for every row run (row true, line y) and column run
// (row false, line x) of the region — its contribution to the global
// interval tables.
func (r *regionIdx) eachRun(fn func(row bool, line int, run xrun)) {
	for i, runs := range r.rowRuns {
		for _, run := range runs {
			fn(true, r.bounds.MinY+i, run)
		}
	}
	for i, runs := range r.colRuns {
		for _, run := range runs {
			fn(false, r.bounds.MinX+i, run)
		}
	}
}

// trace follows the idealized wall-following automaton from start until
// the trajectory closes into a cycle, merges into an already-registered
// cycle, or exhausts the budget. Only the cyclic part is registered:
// ring following relies on modular successor arithmetic, which is
// meaningless for tail states.
//
// The cycle is found with Brent's algorithm, so the trajectory itself is
// never stored: a contour that follows the mesh border runs to
// thousands of states, and only its ring is kept. Every state the
// search visits is checked against registered cycles and dead ends, so
// the trace stops wherever a step-by-step walk would. A cycle whose
// closing state lies past the budget is not registered; Brent's search
// meets it within three times that distance.
func (r *regionIdx) trace(topo *mesh.Topology, start ringStep, budget int) {
	if _, ok := r.pos[start]; ok {
		return
	}
	tortoise, hare := start, start
	power, lam := 1, 0
	for steps := 0; ; steps++ {
		if steps > 3*budget+3 {
			return
		}
		next, ok := r.wallStep(topo, hare)
		if !ok {
			return // isolated pocket of the idealized map
		}
		if _, ok := r.pos[next]; ok {
			return // tail into a previously registered cycle
		}
		hare = next
		lam++
		if hare == tortoise {
			break
		}
		if lam == power {
			tortoise, power, lam = hare, 2*power, 0
		}
	}
	// The cycle starts at the first state mu whose lam-th successor is
	// itself.
	tortoise, hare = start, start
	for i := 0; i < lam; i++ {
		hare, _ = r.wallStep(topo, hare)
	}
	mu := 0
	for tortoise != hare {
		tortoise, _ = r.wallStep(topo, tortoise)
		hare, _ = r.wallStep(topo, hare)
		mu++
	}
	if mu+lam > budget {
		return
	}
	ring := make([]ringStep, lam)
	if r.pos == nil {
		r.pos = make(map[ringStep]ringPos, lam)
	}
	ri := int32(len(r.rings))
	for i := range ring {
		ring[i] = tortoise
		r.pos[tortoise] = ringPos{ring: ri, idx: int32(i)}
		tortoise, _ = r.wallStep(topo, tortoise)
	}
	r.rings = append(r.rings, ring)
}

// wallStep is one step of Detour's right-hand rule on the idealized map:
// prefer turning right, then straight, then left, then back, taking the
// first direction whose neighbor exists and is not a region cell.
func (r *regionIdx) wallStep(topo *mesh.Topology, st ringStep) (ringStep, bool) {
	for _, d := range [4]mesh.Direction{routing.TurnRight(st.h), st.h, routing.TurnLeft(st.h), st.h.Opposite()} {
		if next, ok := topo.NeighborIn(st.p, d); ok && !r.has(next) {
			return ringStep{p: next, h: d}, true
		}
	}
	return ringStep{}, false
}

// detourCosts returns the hop cost of traveling from ring offset i to
// offset j along the precomputed (clockwise, obstacle-on-the-right)
// sense and against it. Rings are cyclic, so both are O(1) modular
// arithmetic — the precomputed detour-cost table of the contour.
func detourCosts(ringLen, i, j int) (cw, ccw int) {
	cw = ((j-i)%ringLen + ringLen) % ringLen
	ccw = (ringLen - cw) % ringLen
	return cw, ccw
}

// DetourCosts reports the clockwise and counterclockwise hop costs
// between two wall states (cell + arrival heading) on the boundary ring
// of the region owning forbidden cell b. ok is false when b is not a
// forbidden cell of the index or either state is not on a precomputed
// ring. It exposes the ring cost tables for planning and tests; the
// router itself replays rings step by step because leave-checks can cut
// an episode short at any offset.
func (ix *Index) DetourCosts(b grid.Point, from, to grid.Point, fromHeading, toHeading mesh.Direction) (cw, ccw int, ok bool) {
	if !ix.inside(b) {
		return 0, 0, false
	}
	rp := ix.regionAt(b)
	if rp == nil {
		return 0, 0, false
	}
	pf, okf := rp.pos[ringStep{p: from, h: fromHeading}]
	pt, okt := rp.pos[ringStep{p: to, h: toHeading}]
	if !okf || !okt || pf.ring != pt.ring {
		return 0, 0, false
	}
	cw, ccw = detourCosts(len(rp.rings[pf.ring]), int(pf.idx), int(pt.idx))
	return cw, ccw, true
}

// Corners returns the sorted corner array of the region owning forbidden
// cell b (nil when b is not forbidden). The caller must not mutate it.
func (ix *Index) Corners(b grid.Point) []grid.Point {
	if !ix.inside(b) {
		return nil
	}
	if rp := ix.regionAt(b); rp != nil {
		return rp.corners
	}
	return nil
}
