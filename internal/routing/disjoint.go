package routing

import (
	"fmt"

	"ocpmesh/internal/grid"
)

// DisjointResult is the outcome of a k-node-disjoint path query.
type DisjointResult struct {
	// Paths are the node-disjoint routes found, each a valid path from
	// src to dst sharing no intermediate node with any other;
	// len(Paths) == Found.
	Paths []Path
	// Requested is the k asked for; Found is the maximum number of
	// node-disjoint paths that exist, capped at Requested. Found <
	// Requested is graceful degradation, not an error: by Menger's
	// theorem Found then equals the size of a minimum vertex cut
	// separating src from dst.
	Requested, Found int
}

// KDisjointPaths returns up to k pairwise node-disjoint paths from src
// to dst under g's fault model. Disjoint paths are the fault-independence
// currency of mesh routing: k node-disjoint routes survive any k-1
// additional node failures.
//
// The construction is max-flow with node splitting: every node except
// the endpoints becomes an in/out pair joined by a capacity-1 arc, mesh
// links become capacity-1 arcs between allowed neighbors, and augmenting
// paths are found by breadth-first search (Edmonds-Karp). Unit node
// capacities make the extracted flow paths vertex-disjoint, and k
// augmentation rounds cost O(k·E). In a 2-D mesh the answer never
// exceeds 4 (the degree bound), but k is not restricted.
func KDisjointPaths(g *Graph, src, dst grid.Point, k int) (DisjointResult, error) {
	if k < 1 {
		return DisjointResult{}, fmt.Errorf("routing: disjoint: k must be >= 1, got %d", k)
	}
	if err := g.CheckEndpoints(src, dst); err != nil {
		return DisjointResult{}, err
	}
	if src == dst {
		return DisjointResult{Paths: []Path{{src}}, Requested: k, Found: 1}, nil
	}

	topo := g.topo
	n := topo.Size()
	// Flow-network node ids: 2*idx is the in-copy, 2*idx+1 the out-copy.
	in := func(p grid.Point) int32 { return int32(2 * topo.Index(p)) }
	out := func(p grid.Point) int32 { return int32(2*topo.Index(p) + 1) }

	type arc struct {
		to  int32
		cap int32
		rev int32 // index of the reverse arc in adj[to]
	}
	adj := make([][]arc, 2*n)
	addArc := func(u, v, c int32) {
		adj[u] = append(adj[u], arc{to: v, cap: c, rev: int32(len(adj[v]))})
		adj[v] = append(adj[v], arc{to: u, cap: 0, rev: int32(len(adj[u]) - 1)})
	}
	for _, p := range topo.Points() {
		if !g.Allowed(p) {
			continue
		}
		nodeCap := int32(1)
		if p == src || p == dst {
			nodeCap = int32(k)
		}
		addArc(in(p), out(p), nodeCap)
		for _, q := range topo.Neighbors(p) {
			if g.Allowed(q) {
				addArc(out(p), in(q), 1)
			}
		}
	}

	source, sink := out(src), in(dst)
	// prev[v] identifies the arc the BFS used to reach v.
	type hop struct {
		node int32
		arc  int32
	}
	prev := make([]hop, 2*n)
	visited := make([]bool, 2*n)
	queue := make([]int32, 0, 2*n)

	flow := 0
	for flow < k {
		for i := range visited {
			visited[i] = false
		}
		queue = append(queue[:0], source)
		visited[source] = true
		reached := false
		for qi := 0; qi < len(queue) && !reached; qi++ {
			u := queue[qi]
			for ai, a := range adj[u] {
				if a.cap == 0 || visited[a.to] {
					continue
				}
				visited[a.to] = true
				prev[a.to] = hop{node: u, arc: int32(ai)}
				if a.to == sink {
					reached = true
					break
				}
				queue = append(queue, a.to)
			}
		}
		if !reached {
			break
		}
		// Unit capacities on every interior arc: each augmenting path
		// carries exactly one unit.
		for v := sink; v != source; v = prev[v].node {
			h := prev[v]
			adj[h.node][h.arc].cap--
			adj[adj[h.node][h.arc].to][adj[h.node][h.arc].rev].cap++
		}
		flow++
	}

	// Decompose the flow into node paths: from src, repeatedly follow an
	// outgoing arc that carries flow (its reverse arc gained capacity),
	// consuming each unit as it is walked. Unit node capacities guarantee
	// the walk never revisits an interior node, and flow conservation
	// guarantees it terminates at dst.
	res := DisjointResult{Requested: k, Found: flow}
	for range flow {
		path := Path{src}
		cur := src
		for cur != dst {
			advanced := false
			u := out(cur)
			for ai := range adj[u] {
				a := &adj[u][ai]
				rev := &adj[a.to][a.rev]
				if rev.cap == 0 || a.to%2 != 0 || a.to == in(cur) {
					continue
				}
				rev.cap--
				cur = topo.PointAt(int(a.to / 2))
				path = append(path, cur)
				advanced = true
				break
			}
			if !advanced {
				// Unreachable by flow conservation; guard against a bug
				// rather than looping forever.
				return res, fmt.Errorf("routing: disjoint: flow decomposition stalled at %v", cur)
			}
		}
		res.Paths = append(res.Paths, path)
	}
	return res, nil
}
