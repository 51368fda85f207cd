package routing

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// AdaptiveMinimal is fully adaptive minimal routing in the spirit of the
// paper's reference [9] (Wu, "Fault-tolerant adaptive and minimal routing
// in mesh-connected multicomputers using extended safety levels"): every
// hop moves strictly closer to the destination, but unlike XY the router
// may pick either productive dimension, sidestepping fault regions while
// keeping the path minimal. Convex fault regions are what make such
// progressive (never-backtracking) routing work: a minimal path around an
// orthogonal convex polygon exists whenever one of the two productive
// "staircases" is clear.
//
// The router uses one step of lookahead (it avoids a productive neighbor
// from which no productive move would remain except into the region),
// mirroring the safety information nodes exchange in [9]. It fails rather
// than misroute: a failure means no minimal path was found, not that the
// destination is unreachable.
type AdaptiveMinimal struct{}

// Name implements Router.
func (AdaptiveMinimal) Name() string { return "adaptive-minimal" }

// Route implements Router.
func (AdaptiveMinimal) Route(g *Graph, src, dst grid.Point) (Path, error) {
	if err := g.CheckEndpoints(src, dst); err != nil {
		return nil, err
	}
	topo := g.topo
	path := Path{src}
	cur := src
	for cur != dst {
		candidates := productiveDirs(topo, cur, dst)
		next := grid.Point{}
		found := false
		// Prefer a productive neighbor that keeps another productive
		// option open (one-step lookahead), falling back to any
		// productive neighbor.
		var fallback grid.Point
		haveFallback := false
		for _, d := range candidates {
			q, ok := topo.NeighborIn(cur, d)
			if !ok || !g.Allowed(q) {
				continue
			}
			if !haveFallback {
				fallback, haveFallback = q, true
			}
			if q == dst || len(allowedProductive(g, q, dst)) > 0 {
				next, found = q, true
				break
			}
		}
		if !found && haveFallback {
			next, found = fallback, true
		}
		if !found {
			return nil, fmt.Errorf("routing: adaptive: no minimal step from %v toward %v", cur, dst)
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// productiveDirs lists the directions that reduce the distance to dst,
// larger remaining offset first (a common adaptivity heuristic: keep the
// dimension with more slack for later).
func productiveDirs(topo *mesh.Topology, cur, dst grid.Point) []mesh.Direction {
	var out []mesh.Direction
	dx, dy := 0, 0
	var xDir, yDir mesh.Direction
	if cur.X != dst.X {
		xDir = stepDir(topo, cur.X, dst.X, topo.Width(), mesh.West, mesh.East)
		dx = wrapAbs(topo, cur.X-dst.X, topo.Width())
	}
	if cur.Y != dst.Y {
		yDir = stepDir(topo, cur.Y, dst.Y, topo.Height(), mesh.South, mesh.North)
		dy = wrapAbs(topo, cur.Y-dst.Y, topo.Height())
	}
	switch {
	case dx == 0 && dy == 0:
	case dx == 0:
		out = append(out, yDir)
	case dy == 0:
		out = append(out, xDir)
	case dx >= dy:
		out = append(out, xDir, yDir)
	default:
		out = append(out, yDir, xDir)
	}
	return out
}

// allowedProductive returns the allowed productive neighbors of cur.
func allowedProductive(g *Graph, cur, dst grid.Point) []grid.Point {
	var out []grid.Point
	for _, d := range productiveDirs(g.topo, cur, dst) {
		if q, ok := g.topo.NeighborIn(cur, d); ok && g.Allowed(q) {
			out = append(out, q)
		}
	}
	return out
}

func wrapAbs(topo *mesh.Topology, delta, span int) int {
	if delta < 0 {
		delta = -delta
	}
	if topo.Kind() == mesh.Torus2D && span-delta < delta {
		return span - delta
	}
	return delta
}
