package routing

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Router computes a path online, the way a message header would be routed
// hop by hop.
type Router interface {
	Name() string
	// Route returns a valid path from src to dst on g, or an error when
	// the router cannot deliver (which for non-adaptive routers can
	// happen even if a path exists).
	Route(g *Graph, src, dst grid.Point) (Path, error)
}

// XY is deterministic dimension-order routing: first resolve the x
// offset, then the y offset. On a fault-free machine it is minimal and
// deadlock-free; any forbidden node on the fixed path is a routing
// failure (the weakness that motivates fault-model work).
type XY struct{}

// Name implements Router.
func (XY) Name() string { return "xy" }

// Route implements Router.
func (XY) Route(g *Graph, src, dst grid.Point) (Path, error) {
	if err := g.CheckEndpoints(src, dst); err != nil {
		return nil, err
	}
	topo := g.topo
	path := Path{src}
	cur := src
	for cur != dst {
		d, ok := xyNextDir(topo, cur, dst)
		if !ok {
			return nil, fmt.Errorf("routing: xy: no progress direction from %v to %v", cur, dst)
		}
		next, ok := topo.NeighborIn(cur, d)
		if !ok {
			return nil, fmt.Errorf("routing: xy: fell off the mesh at %v", cur)
		}
		if !g.Allowed(next) {
			return nil, fmt.Errorf("routing: xy: blocked at %v by forbidden node %v", cur, next)
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// DirToward returns the dimension-order direction of travel from cur
// toward dst — the greedy decision Detour and XY take each hop —
// exported so the precompiled index router (internal/routeidx) can
// reproduce it exactly. ok is false when cur == dst.
func DirToward(topo *mesh.Topology, cur, dst grid.Point) (mesh.Direction, bool) {
	return xyNextDir(topo, cur, dst)
}

// xyNextDir returns the dimension-order direction of travel from cur
// toward dst: x first, then y, with wraparound awareness on tori.
func xyNextDir(topo *mesh.Topology, cur, dst grid.Point) (mesh.Direction, bool) {
	if cur.X != dst.X {
		return stepDir(topo, cur.X, dst.X, topo.Width(), mesh.West, mesh.East), true
	}
	if cur.Y != dst.Y {
		return stepDir(topo, cur.Y, dst.Y, topo.Height(), mesh.South, mesh.North), true
	}
	return 0, false
}

// stepDir picks the shorter of the two travel senses along one dimension
// (wrap-aware on tori; ties go to the positive sense).
func stepDir(topo *mesh.Topology, cur, dst, span int, neg, pos mesh.Direction) mesh.Direction {
	if topo.Kind() == mesh.Torus2D {
		fwd := ((dst-cur)%span + span) % span
		if fwd <= span-fwd {
			return pos
		}
		return neg
	}
	if dst < cur {
		return neg
	}
	return pos
}
