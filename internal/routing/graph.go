// Package routing implements the consumer the paper builds its fault
// model for: fault-tolerant routing in a 2-D mesh whose fault regions
// have been shaped by the formation algorithm.
//
// Two fault models are compared, exactly the comparison that motivates
// the paper:
//
//   - ModelBlocks: the classical rectangular faulty-block model. Every
//     unsafe node (faulty or not) is off limits; messages route around
//     whole rectangles.
//   - ModelRegions: the refined model after the enabled/disabled phase.
//     Only disabled nodes are off limits; the nonfaulty nodes reactivated
//     by Definition 3 carry traffic, so detours are shorter and more
//     sources/destinations are reachable.
//
// The package provides a breadth-first oracle (exact shortest paths under
// either model), two online routers (dimension-order XY and a
// wall-following detour router that needs only local obstacle knowledge),
// and a channel-dependency-graph tool for deadlock analysis of a routing
// function on a concrete fault configuration.
package routing

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Labels is the read-only label view routing runs on: the machine and
// each node's fault, phase-1 (unsafe) and phase-2 (enabled) label.
// *core.Result and the packed *core.Frame both satisfy it.
type Labels interface {
	Topology() *mesh.Topology
	IsFaulty(p grid.Point) bool
	IsUnsafe(p grid.Point) bool
	IsEnabled(p grid.Point) bool
}

// Model selects which nodes a message may traverse.
type Model int

const (
	// ModelBlocks forbids all unsafe nodes (the rectangular faulty-block
	// fault model).
	ModelBlocks Model = iota
	// ModelRegions forbids only disabled nodes (the paper's refined
	// orthogonal-convex-polygon fault model).
	ModelRegions
	// ModelFaultsOnly forbids only the faulty nodes themselves — the
	// unconstrained optimum, used as a yardstick in experiments.
	ModelFaultsOnly
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case ModelBlocks:
		return "blocks"
	case ModelRegions:
		return "regions"
	case ModelFaultsOnly:
		return "faults-only"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Allowed reports whether p may carry messages under the model.
func (m Model) Allowed(l Labels, p grid.Point) bool {
	return l.Topology().Contains(p) && m.allows(l, p)
}

// allows is Allowed for a node known to be inside the machine.
func (m Model) allows(l Labels, p grid.Point) bool {
	switch m {
	case ModelBlocks:
		return !l.IsUnsafe(p)
	case ModelRegions:
		return l.IsEnabled(p)
	case ModelFaultsOnly:
		return !l.IsFaulty(p)
	default:
		return false
	}
}

// Path is a sequence of adjacent machine nodes from source to
// destination, inclusive.
type Path []grid.Point

// Len returns the hop count of the path (len-1, 0 for empty or
// single-node paths).
func (p Path) Len() int {
	if len(p) < 2 {
		return 0
	}
	return len(p) - 1
}

// Validate checks that the path starts at src, ends at dst, takes only
// topology-adjacent steps and visits only allowed nodes.
func (p Path) Validate(l Labels, m Model, src, dst grid.Point) error {
	if len(p) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	if p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("routing: path endpoints %v..%v, want %v..%v", p[0], p[len(p)-1], src, dst)
	}
	for i, q := range p {
		if !m.Allowed(l, q) {
			return fmt.Errorf("routing: path visits forbidden node %v", q)
		}
		if i > 0 && l.Topology().Dist(p[i-1], q) != 1 {
			return fmt.Errorf("routing: non-adjacent step %v -> %v", p[i-1], q)
		}
	}
	return nil
}

// Graph is a routing view of a formation's labels under one fault model.
type Graph struct {
	labels Labels
	topo   *mesh.Topology
	model  Model
}

// NewGraph returns the routing view of l under model m.
func NewGraph(l Labels, m Model) *Graph { return &Graph{labels: l, topo: l.Topology(), model: m} }

// Allowed reports whether p may carry messages.
func (g *Graph) Allowed(p grid.Point) bool { return g.topo.Contains(p) && g.model.allows(g.labels, p) }

// Topo returns the underlying machine topology.
func (g *Graph) Topo() *mesh.Topology { return g.topo }

// Labels returns the label view the graph routes over. Index-backed
// routers use it to check that graph and index describe the same
// snapshot.
func (g *Graph) Labels() Labels { return g.labels }

// Model returns the fault model the graph routes under.
func (g *Graph) Model() Model { return g.model }

// Neighbors returns the allowed machine neighbors of p.
func (g *Graph) Neighbors(p grid.Point) []grid.Point {
	var out []grid.Point
	for _, q := range g.topo.Neighbors(p) {
		if g.Allowed(q) {
			out = append(out, q)
		}
	}
	return out
}

// ShortestPath returns an exact shortest path from src to dst under the
// model, or ok=false when dst is unreachable. It is the oracle the online
// routers are measured against.
func (g *Graph) ShortestPath(src, dst grid.Point) (Path, bool) {
	if !g.Allowed(src) || !g.Allowed(dst) {
		return nil, false
	}
	if src == dst {
		return Path{src}, true
	}
	topo := g.topo
	prev := make(map[grid.Point]grid.Point, topo.Size())
	prev[src] = src
	queue := []grid.Point{src}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range g.Neighbors(p) {
			if _, seen := prev[q]; seen {
				continue
			}
			prev[q] = p
			if q == dst {
				var rev Path
				for at := dst; at != src; at = prev[at] {
					rev = append(rev, at)
				}
				rev = append(rev, src)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev, true
			}
			queue = append(queue, q)
		}
	}
	return nil, false
}

// Distances returns the hop distance from src to every reachable allowed
// node.
func (g *Graph) Distances(src grid.Point) map[grid.Point]int {
	out := make(map[grid.Point]int)
	if !g.Allowed(src) {
		return out
	}
	out[src] = 0
	queue := []grid.Point{src}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range g.Neighbors(p) {
			if _, seen := out[q]; !seen {
				out[q] = out[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return out
}

// ReachableFrom returns how many allowed nodes src can reach (including
// itself), a capacity metric of the fault model.
func (g *Graph) ReachableFrom(src grid.Point) int { return len(g.Distances(src)) }
