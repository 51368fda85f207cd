package region

import (
	"slices"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Unwrap is UnwrapRegion for a bare node set. A set on a bounded mesh,
// or an empty one, comes back unchanged.
func Unwrap(topo *mesh.Topology, nodes *grid.PointSet) (*grid.PointSet, bool) {
	if topo.Kind() != mesh.Torus2D || nodes.Len() == 0 {
		return nodes, true
	}
	flat, ok := UnwrapRegion(topo, regionOf(nodes, grid.NewPointSet()))
	if !ok {
		return nil, false
	}
	return flat.Nodes(), true
}

// UnwrapRegion translates a torus region into flat coordinates so the
// planar geometry checks apply: nodes and faults are rotated so the
// wraparound seam passes through an empty column and an empty row. It
// reports ok=false when the region wraps a full ring (occupies every
// column or every row): it then has no planar embedding, so the planar
// checks do not apply (a ring-wrapping region has no boundary in that
// dimension and "corner node" loses its meaning). On a bounded mesh r
// is returned unchanged.
func UnwrapRegion(topo *mesh.Topology, r *Region) (*Region, bool) {
	if topo.Kind() != mesh.Torus2D {
		return r, true
	}
	cols, rows := make([]bool, topo.Width()), make([]bool, topo.Height())
	r.EachNode(func(p grid.Point) { cols[p.X], rows[p.Y] = true, true })
	freeCol, freeRow := slices.Index(cols, false), slices.Index(rows, false)
	if freeCol < 0 || freeRow < 0 {
		return nil, false
	}
	nodes, faults := grid.NewPointSet(), grid.NewPointSet()
	shift := func(p grid.Point) grid.Point {
		return grid.Pt(mod(p.X-freeCol-1, topo.Width()), mod(p.Y-freeRow-1, topo.Height()))
	}
	r.EachNode(func(p grid.Point) { nodes.Add(shift(p)) })
	for _, p := range r.faults {
		faults.Add(shift(p))
	}
	return regionOf(nodes, faults), true
}

func mod(v, m int) int {
	v %= m
	if v < 0 {
		v += m
	}
	return v
}
