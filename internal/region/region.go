// Package region extracts and analyzes the paper's two kinds of fault
// regions from label vectors: the rectangular faulty blocks produced by
// phase 1 (safe/unsafe) and the orthogonal-convex disabled regions
// produced by phase 2 (enabled/disabled).
//
// It also provides the invariant checkers used throughout the test suite:
// blocks must be disjoint rectangles at the definition-specific minimum
// distance; disabled regions must be orthogonal convex polygons whose
// corner nodes are all faulty (Theorem 1, Lemma 1) and must equal the
// rectilinear convex closure of their faults when that closure is
// connected (Theorem 2).
package region

import (
	"fmt"
	"sort"

	"ocpmesh/internal/geometry"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Connectivity selects how cells are grouped into regions.
type Connectivity int

const (
	// Conn8 groups edge-adjacent and corner-touching cells, matching the
	// paper's convention that diagonally adjacent faults share a region.
	// It is the zero value, hence the default of core.Config.
	Conn8 Connectivity = iota
	// Conn4 groups edge-adjacent cells only.
	Conn4
)

// String returns the connectivity name.
func (c Connectivity) String() string {
	if c == Conn8 {
		return "8-connected"
	}
	return "4-connected"
}

// Region is a connected group of nodes carrying the same label, together
// with the faults it contains.
type Region struct {
	// Nodes is the full node set of the region.
	Nodes *grid.PointSet
	// Faults is the subset of Nodes that is faulty.
	Faults *grid.PointSet

	// min memoizes the canonical (row-major minimal) node. Regions are
	// never mutated once built, so the scan runs at most once per region
	// instead of once per UpdateRegions call that carries it along.
	min    grid.Point
	minSet bool
}

// Canonical returns the row-major minimal node of the region, the key
// region lists are ordered by. It is memoized on first use; extract and
// UpdateRegions compute it for every region they return, so calls on a
// published list only read.
func (r *Region) Canonical() grid.Point {
	if !r.minSet {
		r.min = minNode(r)
		r.minSet = true
	}
	return r.min
}

// Bounds returns the bounding rectangle of the region.
func (r *Region) Bounds() grid.Rect { return r.Nodes.Bounds() }

// Diameter returns the L1 diameter d(B) of the region.
func (r *Region) Diameter() int { return r.Nodes.Diameter() }

// Size returns the number of nodes in the region.
func (r *Region) Size() int { return r.Nodes.Len() }

// NonfaultyCount returns the number of nonfaulty nodes captured by the
// region — the quantity the paper's algorithm minimizes.
func (r *Region) NonfaultyCount() int { return r.Nodes.Len() - r.Faults.Len() }

// IsRectangle reports whether the region fills its bounding rectangle.
func (r *Region) IsRectangle() bool { return geometry.IsRectangle(r.Nodes) }

// IsOrthogonallyConvex reports whether the region satisfies Definition 1.
func (r *Region) IsOrthogonallyConvex() bool { return geometry.IsOrthogonallyConvex(r.Nodes) }

// String summarizes the region.
func (r *Region) String() string {
	return fmt.Sprintf("region{%v, %d nodes, %d faulty}", r.Bounds(), r.Size(), r.Faults.Len())
}

// neighborsFunc returns the adjacency used to group cells: the
// topology's own (so torus regions merge across the wraparound seam),
// plus the diagonals for Conn8.
func neighborsFunc(topo *mesh.Topology, conn Connectivity) func(grid.Point) []grid.Point {
	// One scratch slice per extraction: the flood fills below consume
	// each result before asking for the next, so reusing the backing
	// array is safe and spares an allocation per visited cell.
	buf := make([]grid.Point, 0, 8)
	return func(p grid.Point) []grid.Point {
		out := topo.AppendNeighbors(p, buf[:0])
		if conn == Conn8 {
			for _, d := range [4]grid.Point{{X: -1, Y: -1}, {X: 1, Y: -1}, {X: -1, Y: 1}, {X: 1, Y: 1}} {
				q := topo.Wrap(p.Add(d))
				if topo.Contains(q) {
					out = append(out, q)
				}
			}
		}
		buf = out
		return out
	}
}

// component floods the connected component of start among the cells with
// label want, marking every visited cell in seen. queue is scratch
// storage for the BFS worklist (head-indexed, never shrunk); the
// (possibly grown) slice is returned so callers can reuse it across
// components instead of reallocating per flood.
func component(topo *mesh.Topology, labels []bool, want bool, neighbors func(grid.Point) []grid.Point, start grid.Point, seen *grid.PointSet, queue []grid.Point) (*grid.PointSet, []grid.Point, grid.Rect) {
	comp := grid.NewPointSet()
	bounds := grid.Empty().Include(start)
	queue = append(queue[:0], start)
	seen.Add(start)
	comp.Add(start)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, q := range neighbors(p) {
			if labels[topo.Index(q)] == want && !seen.Has(q) {
				seen.Add(q)
				comp.Add(q)
				bounds = bounds.Include(q)
				queue = append(queue, q)
			}
		}
	}
	return comp, queue, bounds
}

// regionFaults returns the faulty subset of comp, iterating whichever
// set is smaller rather than cloning the whole component.
func regionFaults(comp, faults *grid.PointSet) *grid.PointSet {
	small, other := comp, faults
	if faults.Len() < comp.Len() {
		small, other = faults, comp
	}
	out := grid.NewPointSetCap(small.Len())
	small.Each(func(p grid.Point) {
		if other.Has(p) {
			out.Add(p)
		}
	})
	return out
}

// extract groups the true-labeled cells of want into regions. The cell
// count is known before any set is built, so the cell and seen sets are
// sized up front and the flood fills share one worklist — region
// extraction stays free of incremental map and slice growth, which
// profiles showed dominating formation allocation churn.
func extract(topo *mesh.Topology, faults *grid.PointSet, labels []bool, want bool, conn Connectivity) []*Region {
	n := 0
	for _, l := range labels {
		if l == want {
			n++
		}
	}
	cells := grid.NewPointSetCap(n)
	for i, l := range labels {
		if l == want {
			cells.Add(topo.PointAt(i))
		}
	}
	neighbors := neighborsFunc(topo, conn)
	seen := grid.NewPointSetCap(n)
	queue := make([]grid.Point, 0, n)
	var out []*Region
	for _, start := range cells.Points() { // canonical order => deterministic output
		if seen.Has(start) {
			continue
		}
		var comp *grid.PointSet
		comp, queue, _ = component(topo, labels, want, neighbors, start, seen, queue)
		// Starts are visited in canonical order, so the first cell reached
		// in each component is its minimal node.
		out = append(out, &Region{Nodes: comp, Faults: regionFaults(comp, faults), min: start, minSet: true})
	}
	return out
}

// minNode returns the canonical (row-major minimal) node of the region,
// the key extract orders its output by.
func minNode(r *Region) grid.Point {
	first := true
	var best grid.Point
	r.Nodes.Each(func(p grid.Point) {
		if first || p.Less(best) {
			best = p
			first = false
		}
	})
	return best
}

// UpdateRegions incrementally updates a region list after a label delta.
// touched must cover every cell whose label changed AND, for every
// region affected by the delta, that region's full former footprint
// (incremental formation guarantees this by resetting whole block
// footprints). The function re-extracts only the components reachable
// from touched cells, keeps every old region the delta could not have
// reached, and returns the combined list in the same canonical order as
// a from-scratch extraction — bit for bit.
func UpdateRegions(topo *mesh.Topology, faults *grid.PointSet, labels []bool, want bool, conn Connectivity, old []*Region, touched *grid.PointSet) []*Region {
	neighbors := neighborsFunc(topo, conn)
	// touched.Len() is only a lower bound on the re-extracted area (a
	// fresh component may grow past the touched footprint), but it is the
	// best O(perturbation) hint available without scanning all labels.
	seen := grid.NewPointSetCap(touched.Len())
	queue := make([]grid.Point, 0, touched.Len())
	var fresh []*Region
	// hot accumulates the bounding box of touched ∪ seen during walks
	// that run anyway, so the survivor loop below can rule most regions
	// out with a rectangle test instead of hashed map lookups.
	hot := grid.Empty()
	// Start order is immaterial: components are order-independent and
	// fresh is sorted by canonical node below, so the unordered walk
	// skips the Points() allocation and sort.
	touched.Each(func(start grid.Point) {
		hot = hot.Include(start)
		if seen.Has(start) || labels[topo.Index(start)] != want {
			return
		}
		var comp *grid.PointSet
		var cb grid.Rect
		comp, queue, cb = component(topo, labels, want, neighbors, start, seen, queue)
		hot = hot.Include(grid.Pt(cb.MinX, cb.MinY)).Include(grid.Pt(cb.MaxX, cb.MaxY))
		fresh = append(fresh, &Region{Nodes: comp, Faults: regionFaults(comp, faults)})
	})
	// Only the handful of fresh components need sorting: old is already
	// in canonical order (this function's own postcondition), and a
	// subsequence of a sorted list stays sorted, so survivors merge in
	// O(len(old)) without re-keying and re-sorting the whole list.
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Canonical().Less(fresh[j].Canonical()) })
	out := make([]*Region, 0, len(fresh)+len(old))
	fi := 0
	for _, r := range old {
		// A surviving region is untouched and disjoint from every fresh
		// component. touched covers an affected region's entire former
		// footprint (the documented contract) and a fresh component
		// overlapping any of its cells has necessarily swallowed all of
		// them, so both conditions hold for every cell or for none — one
		// representative-cell membership test decides survival in O(1)
		// instead of a walk over the region's area.
		p := r.Canonical()
		if hot.Contains(p) && (touched.Has(p) || seen.Has(p)) {
			continue
		}
		for fi < len(fresh) && fresh[fi].Canonical().Less(p) {
			out = append(out, fresh[fi])
			fi++
		}
		out = append(out, r)
	}
	return append(out, fresh[fi:]...)
}

// FaultyBlocks groups the unsafe nodes (phase-1 labels, true = unsafe)
// into faulty blocks. Blocks are returned in canonical order. Because
// blocks are rectangles, 4- and 8-connectivity give the same grouping for
// Definition 2a; Definition 2b blocks can touch corners (distance-2
// diagonal blocks never touch, so Conn4 is used and matches the paper's
// "disjoint" claim).
func FaultyBlocks(topo *mesh.Topology, faults *grid.PointSet, unsafe []bool) []*Region {
	return extract(topo, faults, unsafe, true, Conn4)
}

// DisabledRegions groups the disabled nodes (phase-2 labels, true =
// enabled, so regions collect the false entries) into disabled regions
// using the given connectivity. The paper's convention is Conn8.
func DisabledRegions(topo *mesh.Topology, faults *grid.PointSet, enabled []bool, conn Connectivity) []*Region {
	return extract(topo, faults, enabled, false, conn)
}

// AssignToBlocks maps each disabled region to the index of the faulty
// block containing it. Disabled nodes are a subset of unsafe nodes, so
// every region lies inside exactly one block; a region spanning no block
// or several is reported as an error.
func AssignToBlocks(regions, blocks []*Region) ([]int, error) {
	owner := make([]int, len(regions))
	for ri, r := range regions {
		owner[ri] = -1
		for bi, b := range blocks {
			if r.Nodes.SubsetOf(b.Nodes) {
				owner[ri] = bi
				break
			}
		}
		if owner[ri] == -1 {
			return nil, fmt.Errorf("region: %v not contained in any faulty block", r)
		}
	}
	return owner, nil
}
