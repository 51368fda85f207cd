package routing

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Detour is a wall-following fault-tolerant router in the spirit of the
// f-ring/extended-e-cube family the paper cites: it routes greedily
// toward the destination (x offset first) and, when the greedy hop is
// blocked by a forbidden region, follows the region's boundary — needing
// only the local knowledge a real node has: which of its neighbors are
// usable — until it can make fresh progress toward the destination.
//
// Convex fault regions are exactly what makes this strategy effective:
// following the boundary of an orthogonal convex polygon never
// backtracks past the obstacle, whereas concave regions (U/H shapes) can
// trap a boundary-follower. Detour is not guaranteed to deliver on
// arbitrary multi-obstacle configurations; it returns an error when its
// hop budget is exhausted, and the experiments measure its delivery rate
// and stretch against the BFS oracle.
type Detour struct {
	// MaxHops bounds the walk; 0 means 4 x machine size.
	MaxHops int
}

// Name implements Router.
func (Detour) Name() string { return "detour" }

// Route implements Router. It allocates a fresh path per query; batch
// callers should use RouteAppend with a reused buffer.
func (d Detour) Route(g *Graph, src, dst grid.Point) (Path, error) {
	path, err := d.RouteAppend(g, src, dst, nil)
	if err != nil {
		return nil, err
	}
	return path, nil
}

// RouteAppend routes src to dst appending into buf[:0], so a caller
// issuing many queries reuses one allocation. On error the returned
// slice still owns the (partially written) buffer — pass it back in on
// the next call to keep the capacity.
func (d Detour) RouteAppend(g *Graph, src, dst grid.Point, buf Path) (Path, error) {
	if err := g.CheckEndpoints(src, dst); err != nil {
		return buf, err
	}
	topo := g.topo
	maxHops := d.MaxHops
	if maxHops == 0 {
		maxHops = 4 * topo.Size()
	}

	path := append(buf[:0], src)
	cur := src
	// Wall-following state: in wall mode we keep the obstacle on our
	// right hand and remember how close to dst we were when we hit it;
	// we leave wall mode at any node strictly closer than that.
	wall := false
	var heading mesh.Direction
	hitDist := 0

	for cur != dst && path.Len() < maxHops {
		if !wall {
			dir, _ := xyNextDir(topo, cur, dst)
			if next, ok := topo.NeighborIn(cur, dir); ok && g.Allowed(next) {
				path = append(path, next)
				cur = next
				continue
			}
			// Blocked: enter wall mode heading "left" of the blocked
			// direction so the obstacle starts on our right.
			wall = true
			heading = TurnLeft(dir)
			hitDist = topo.Dist(cur, dst)
		}

		// Leave wall mode when strictly closer than the hit point and a
		// greedy step is available.
		if topo.Dist(cur, dst) < hitDist {
			if dir, ok := xyNextDir(topo, cur, dst); ok {
				if next, ok := topo.NeighborIn(cur, dir); ok && g.Allowed(next) {
					wall = false
					path = append(path, next)
					cur = next
					continue
				}
			}
		}

		// Right-hand rule: prefer turning right, then straight, then
		// left, then back.
		moved := false
		for _, dir := range [4]mesh.Direction{TurnRight(heading), heading, TurnLeft(heading), heading.Opposite()} {
			if next, ok := topo.NeighborIn(cur, dir); ok && g.Allowed(next) {
				heading = dir
				path = append(path, next)
				cur = next
				moved = true
				break
			}
		}
		if !moved {
			return path, fmt.Errorf("routing: detour: stuck at %v (isolated node)", cur)
		}
	}
	if cur != dst {
		return path, fmt.Errorf("routing: detour: hop budget %d exhausted between %v and %v", maxHops, src, dst)
	}
	return path, nil
}

// TurnRight returns the direction 90 degrees clockwise of d (in the
// paper's coordinates: north -> east -> south -> west). Exported so the
// precompiled index router (internal/routeidx) can replay the exact
// wall-following automaton.
func TurnRight(d mesh.Direction) mesh.Direction {
	switch d {
	case mesh.North:
		return mesh.East
	case mesh.East:
		return mesh.South
	case mesh.South:
		return mesh.West
	default:
		return mesh.North
	}
}

// TurnLeft returns the direction 90 degrees counterclockwise of d.
func TurnLeft(d mesh.Direction) mesh.Direction {
	switch d {
	case mesh.North:
		return mesh.West
	case mesh.West:
		return mesh.South
	case mesh.South:
		return mesh.East
	default:
		return mesh.North
	}
}
