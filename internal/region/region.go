// Package region extracts and analyzes the paper's two kinds of fault
// regions from packed label planes: the rectangular faulty blocks
// produced by phase 1 (safe/unsafe) and the orthogonal-convex disabled
// regions produced by phase 2 (enabled/disabled). A region is stored as
// its row runs plus its sorted faults, flooded off the planes by one
// Builder.
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
	"math"
	"sort"
	"sync"

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

// Run is one maximal interval of a region's cells within a row: columns
// Lo..Hi (inclusive) of row Y, in machine (wrapped) coordinates.
type Run struct{ Y, Lo, Hi int }

// View is a lazily built, read-only PointSet view of a region's cells
// or faults, built on the first call (once, safe for concurrent use).
type View func() *grid.PointSet

// Equal reports whether two views hold the same points.
func (v View) Equal(o View) bool { return v().Equal(o()) }

// Region is a connected group of nodes carrying the same label, together
// with the faults it contains, stored as row runs. A disabled region
// (Theorem 1) or a block has one run per row; a torus region crossing
// the x seam or a fault cluster may have more. Regions are never
// mutated once built.
type Region struct {
	// Nodes and Faults are views for the geometry checkers, sweeps and
	// tools; the delta and serving paths read the runs.
	Nodes, Faults View

	runs   []Run        // sorted row-major
	faults []grid.Point // sorted row-major

	once              sync.Once
	nodeSet, faultSet *grid.PointSet
}

func newRegion(runs []Run, faults []grid.Point) *Region {
	r := &Region{runs: runs, faults: faults}
	r.Nodes = func() *grid.PointSet { r.views(); return r.nodeSet }
	r.Faults = func() *grid.PointSet { r.views(); return r.faultSet }
	return r
}

func (r *Region) views() {
	r.once.Do(func() {
		r.nodeSet = grid.NewPointSetCap(r.Size())
		r.EachNode(func(p grid.Point) { r.nodeSet.Add(p) })
		r.faultSet = grid.PointSetOf(r.faults...)
	})
}

// regionOf returns the region with the given nodes and faults.
func regionOf(nodes, faults *grid.PointSet) *Region {
	var runs []Run
	for _, p := range nodes.Points() {
		if n := len(runs); n > 0 && runs[n-1].Y == p.Y && runs[n-1].Hi == p.X-1 {
			runs[n-1].Hi = p.X
			continue
		}
		runs = append(runs, Run{Y: p.Y, Lo: p.X, Hi: p.X})
	}
	return newRegion(runs, faults.Points())
}

// Lanes returns the lanes of word k of the run's row (64 columns per
// word, the grid.BitGrid packing) that the run covers; k must lie in
// [Lo/64, Hi/64].
func (r Run) Lanes(k int) uint64 { return lanes(k, r.Lo, r.Hi) }

// Runs returns the region's row runs, sorted row-major. Read-only.
func (r *Region) Runs() []Run { return r.runs }

// EachNode calls fn for every node of the region in row-major order.
func (r *Region) EachNode(fn func(grid.Point)) {
	for _, run := range r.runs {
		for x := run.Lo; x <= run.Hi; x++ {
			fn(grid.Pt(x, run.Y))
		}
	}
}

// Canonical returns the row-major minimal node of the region, the key
// region lists are ordered by: the start of its first run.
func (r *Region) Canonical() grid.Point { return grid.Pt(r.runs[0].Lo, r.runs[0].Y) }

// Has reports whether p is a node of the region.
func (r *Region) Has(p grid.Point) bool {
	i := sort.Search(len(r.runs), func(i int) bool {
		run := r.runs[i]
		return run.Y > p.Y || run.Y == p.Y && run.Hi >= p.X
	})
	return i < len(r.runs) && r.runs[i].Y == p.Y && r.runs[i].Lo <= p.X
}

// Bounds returns the bounding rectangle of the region.
func (r *Region) Bounds() grid.Rect {
	b := grid.Empty()
	for _, run := range r.runs {
		b = b.Include(grid.Pt(run.Lo, run.Y)).Include(grid.Pt(run.Hi, run.Y))
	}
	return b
}

// Diameter returns the L1 diameter d(B) of the region. It is realized on
// the rotated coordinates u=x+y, v=x-y, whose extremes lie on run ends.
func (r *Region) Diameter() int {
	minU, maxU, minV, maxV := math.MaxInt, math.MinInt, math.MaxInt, math.MinInt
	for _, run := range r.runs {
		minU, maxU = min(minU, run.Lo+run.Y), max(maxU, run.Hi+run.Y)
		minV, maxV = min(minV, run.Lo-run.Y), max(maxV, run.Hi-run.Y)
	}
	return max(maxU-minU, maxV-minV)
}

// Size returns the number of nodes in the region.
func (r *Region) Size() int {
	n := 0
	for _, run := range r.runs {
		n += run.Hi - run.Lo + 1
	}
	return n
}

// FaultCount returns the number of faulty nodes in the region.
func (r *Region) FaultCount() int { return len(r.faults) }

// NonfaultyCount returns the number of nonfaulty nodes captured by the
// region — the quantity the paper's algorithm minimizes.
func (r *Region) NonfaultyCount() int { return r.Size() - len(r.faults) }

// IsRectangle reports whether the region fills its bounding rectangle.
func (r *Region) IsRectangle() bool { return geometry.IsRectangle(r.Nodes()) }

// IsOrthogonallyConvex reports whether the region satisfies Definition 1.
func (r *Region) IsOrthogonallyConvex() bool { return geometry.IsOrthogonallyConvex(r.Nodes()) }

// String summarizes the region.
func (r *Region) String() string {
	return fmt.Sprintf("region{%v, %d nodes, %d faulty}", r.Bounds(), r.Size(), len(r.faults))
}

// FaultPlane packs faults into a plane over topo, the fault input of a
// Builder.
func FaultPlane(topo *mesh.Topology, faults []grid.Point) *grid.BitGrid {
	g := grid.NewBitGrid(topo.Width(), topo.Height())
	for _, p := range faults {
		g.Set(p.X, p.Y, true)
	}
	return g
}

func labelPlane(topo *mesh.Topology, labels []bool) *grid.BitGrid {
	g := grid.NewBitGrid(topo.Width(), topo.Height())
	g.SetBools(labels)
	return g
}

// FaultyBlocks groups the unsafe nodes (phase-1 labels, true = unsafe)
// into faulty blocks. Blocks are returned in canonical order. Because
// blocks are rectangles, 4- and 8-connectivity give the same grouping for
// Definition 2a; Definition 2b blocks can touch corners (distance-2
// diagonal blocks never touch, so Conn4 is used and matches the paper's
// "disjoint" claim).
func FaultyBlocks(topo *mesh.Topology, faults *grid.PointSet, unsafe []bool) []*Region {
	return NewBuilder(topo, FaultPlane(topo, faults.Points())).Build(labelPlane(topo, unsafe), true, Conn4, nil)
}

// DisabledRegions groups the disabled nodes (phase-2 labels, true =
// enabled, so regions collect the false entries) into disabled regions
// using the given connectivity. The paper's convention is Conn8.
func DisabledRegions(topo *mesh.Topology, faults *grid.PointSet, enabled []bool, conn Connectivity) []*Region {
	return NewBuilder(topo, FaultPlane(topo, faults.Points())).Build(labelPlane(topo, enabled), false, conn, nil)
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
			if r.Nodes().SubsetOf(b.Nodes()) {
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
