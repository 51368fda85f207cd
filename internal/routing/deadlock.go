package routing

import (
	"fmt"
	"sort"

	"ocpmesh/internal/grid"
)

// Channel identifies one virtual channel of one unidirectional physical
// link.
type Channel struct {
	From, To grid.Point
	VC       int
}

// String renders the channel.
func (c Channel) String() string { return fmt.Sprintf("%v->%v@%d", c.From, c.To, c.VC) }

// VCPolicy assigns a virtual channel class to each hop of a path
// (hop i is path[i] -> path[i+1]). The classic single-channel policy is
// SingleVC; deadlock-free schemes split traffic into classes so the
// channel dependency graph stays acyclic.
type VCPolicy func(path Path, hop int) int

// SingleVC puts every hop on virtual channel 0.
func SingleVC(Path, int) int { return 0 }

// CDG is a channel dependency graph: an edge a -> b records that some
// message holds channel a while requesting channel b. Wormhole routing is
// deadlock-free iff the CDG of its routing function is acyclic (Dally &
// Seitz); the convexity of fault regions is what lets the paper's routing
// consumers keep the CDG acyclic with few virtual channels.
type CDG struct {
	edges map[Channel]map[Channel]struct{}
}

// NewCDG returns an empty dependency graph.
func NewCDG() *CDG { return &CDG{edges: make(map[Channel]map[Channel]struct{})} }

// AddPath records the channel dependencies of one routed path under the
// VC policy.
func (c *CDG) AddPath(p Path, policy VCPolicy) {
	for i := 0; i+2 < len(p); i++ {
		a := Channel{From: p[i], To: p[i+1], VC: policy(p, i)}
		b := Channel{From: p[i+1], To: p[i+2], VC: policy(p, i+1)}
		c.addEdge(a, b)
	}
}

func (c *CDG) addEdge(a, b Channel) {
	m, ok := c.edges[a]
	if !ok {
		m = make(map[Channel]struct{})
		c.edges[a] = m
	}
	m[b] = struct{}{}
}

// Size returns the number of dependency edges.
func (c *CDG) Size() int {
	n := 0
	for _, m := range c.edges {
		n += len(m)
	}
	return n
}

// FindCycle returns a dependency cycle (as a channel sequence whose last
// element depends on the first) and true, or nil and false when the graph
// is acyclic and the routing function is deadlock-free on the analyzed
// traffic.
func (c *CDG) FindCycle() ([]Channel, bool) {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[Channel]int, len(c.edges))
	var stack []Channel

	// Deterministic iteration for reproducible counterexamples.
	starts := make([]Channel, 0, len(c.edges))
	for ch := range c.edges {
		starts = append(starts, ch)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].String() < starts[j].String() })

	var visit func(ch Channel) ([]Channel, bool)
	visit = func(ch Channel) ([]Channel, bool) {
		state[ch] = inStack
		stack = append(stack, ch)
		next := make([]Channel, 0, len(c.edges[ch]))
		for n := range c.edges[ch] {
			next = append(next, n)
		}
		sort.Slice(next, func(i, j int) bool { return next[i].String() < next[j].String() })
		for _, n := range next {
			switch state[n] {
			case inStack:
				// Extract the cycle from the stack.
				for i, s := range stack {
					if s == n {
						out := make([]Channel, len(stack)-i)
						copy(out, stack[i:])
						return out, true
					}
				}
			case unvisited:
				if cyc, found := visit(n); found {
					return cyc, true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[ch] = done
		return nil, false
	}

	for _, ch := range starts {
		if state[ch] == unvisited {
			if cyc, found := visit(ch); found {
				return cyc, true
			}
			stack = stack[:0]
		}
	}
	return nil, false
}

// AnalyzeDeadlock routes every given (src, dst) pair with the router,
// accumulates the channel dependency graph under the VC policy, and
// reports whether the analyzed traffic admits a deadlock cycle.
// Undeliverable pairs are skipped and counted.
func AnalyzeDeadlock(g *Graph, r Router, policy VCPolicy, pairs [][2]grid.Point) (cdg *CDG, undeliverable int, err error) {
	cdg = NewCDG()
	for _, pr := range pairs {
		path, rerr := r.Route(g, pr[0], pr[1])
		if rerr != nil {
			undeliverable++
			continue
		}
		if verr := path.Validate(g.labels, g.model, pr[0], pr[1]); verr != nil {
			return nil, 0, fmt.Errorf("routing: %s produced invalid path: %w", r.Name(), verr)
		}
		cdg.AddPath(path, policy)
	}
	return cdg, undeliverable, nil
}

// AllPairs enumerates every ordered pair of distinct allowed nodes of g —
// the complete traffic pattern for exhaustive deadlock analysis on small
// machines.
func AllPairs(g *Graph) [][2]grid.Point {
	var nodes []grid.Point
	for _, p := range g.topo.Points() {
		if g.Allowed(p) {
			nodes = append(nodes, p)
		}
	}
	var out [][2]grid.Point
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d {
				out = append(out, [2]grid.Point{s, d})
			}
		}
	}
	return out
}
