// Package safety implements the extended-safety-level substrate of the
// paper's reference [9] (Wu, "Fault-tolerant adaptive and minimal routing
// in mesh-connected multicomputers using extended safety levels", IEEE
// TPDS 11(2), 2000), adapted to the refined fault model: after the
// two-phase formation, every enabled node learns — again through nothing
// but iterative neighbor exchanges — its distance to the nearest disabled
// node in each of the four directions. A productive direction whose
// safety distance exceeds the remaining offset is guaranteed clear, which
// is exactly the information [9] uses to route minimally without global
// fault knowledge.
//
// The label is a 4-vector of capped distances computed as a monotone
// (component-wise decreasing) fixpoint on the same simnet engines as the
// paper's boolean phases, so the distributed cost model is identical:
// the field stabilizes in O(max distance) lock-step rounds.
package safety

import (
	"fmt"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
)

// Vector holds, per canonical direction (west, east, south, north), the
// hop distance from a node to the nearest disabled node strictly in that
// direction along the grid line, capped at the field's Cap. Disabled
// nodes carry the zero vector.
type Vector [4]int

// Clear reports whether the direction is free of disabled nodes for at
// least dist hops.
func (v Vector) Clear(d mesh.Direction, dist int) bool { return v[d] > dist }

// Field is the computed safety field of one formation result.
type Field struct {
	topo    *mesh.Topology
	vectors []Vector
	// Cap is the value meaning "no disabled node before the cap" —
	// chosen larger than any in-machine distance.
	Cap int
	// Rounds is the number of lock-step rounds the fixpoint needed.
	Rounds int
}

// At returns the vector of node p.
func (f *Field) At(p grid.Point) Vector { return f.vectors[f.topo.Index(p)] }

// rule is the distributed update rule. env.Aux carries the enabled
// labels; disabled nodes (and fail-stop faulty nodes) present the zero
// vector, and an enabled node's distance in direction d is one more than
// its d-neighbor's, clamped to the cap. The all-zero vector doubles as
// the "I am disabled" marker: an enabled node always has all components
// >= 1.
type rule struct {
	cap int
}

func (rule) Name() string { return "safety/extended-levels" }

func (r rule) capVector() Vector {
	return Vector{r.cap, r.cap, r.cap, r.cap}
}

// Init implements simnet.GenericRule.
func (r rule) Init(env *simnet.Env, p grid.Point) Vector {
	if !env.Aux.Get(p.X, p.Y) {
		return Vector{} // disabled
	}
	return r.capVector()
}

// GhostLabel implements simnet.GenericRule: the ghost ring is enabled and
// fault-free all the way out.
func (r rule) GhostLabel() Vector { return r.capVector() }

// FaultyLabel implements simnet.GenericRule.
func (rule) FaultyLabel() Vector { return Vector{} }

// Step implements simnet.GenericRule.
func (r rule) Step(env *simnet.Env, p grid.Point, cur Vector, nbr [4]Vector) Vector {
	if !env.Aux.Get(p.X, p.Y) {
		return Vector{} // disabled nodes stay zero
	}
	var next Vector
	for i, d := range mesh.Directions {
		n := nbr[i]
		if n == (Vector{}) {
			next[i] = 1 // the neighbor itself is disabled
			continue
		}
		v := n[d] + 1
		if v > r.cap {
			v = r.cap
		}
		next[i] = v
	}
	return next
}

// Compute derives the safety field from a formation result on the chosen
// engine (the engines are result-equivalent, as for the boolean phases).
func Compute(res *core.Result, engine core.EngineKind) (*Field, error) {
	env, err := simnet.NewEnv(res.Topo, res.Faults, res.Enabled)
	if err != nil {
		return nil, err
	}
	r := rule{cap: res.Topo.Width() + res.Topo.Height()}
	var out *simnet.GenericResult[Vector]
	if engine == core.EngineChannels {
		out, err = simnet.RunChannelsGeneric[Vector](env, r, simnet.GenericOptions[Vector]{})
	} else {
		out, err = simnet.RunSequentialGeneric[Vector](env, r, simnet.GenericOptions[Vector]{})
	}
	if err != nil {
		return nil, fmt.Errorf("safety: %w", err)
	}
	return &Field{topo: res.Topo, vectors: out.Labels, Cap: r.cap, Rounds: out.Rounds}, nil
}
