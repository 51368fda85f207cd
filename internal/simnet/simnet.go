// Package simnet simulates the mesh-connected multicomputer substrate the
// paper's algorithms run on: every node repeatedly exchanges a one-bit
// status with its four neighbors in synchronous, lock-step rounds and
// updates its own status with a purely local rule, until no status changes
// anywhere (a distributed fixpoint).
//
// Three engines compute the fixpoint:
//
//   - ChannelEngine is the faithful distributed simulation: one goroutine
//     per nonfaulty node, one buffered channel per link direction, and a
//     coordinator that releases rounds in lock step (the paper assumes a
//     synchronous system where "each round of exchange and update is done
//     in a lock-step mode"). Faulty nodes are fail-stop: they run no
//     goroutine and send nothing; their neighbors substitute the rule's
//     FaultyLabel, which models the paper's assumption that each node
//     knows the status of its neighbors.
//
//   - SeqEngine computes the same synchronous fixpoint with a sequential
//     double-buffered sweep. It is deterministic and fast, suitable for
//     large parameter sweeps; TestEnginesAgree pins it to ChannelEngine.
//
//   - BitsetEngine packs 64 labels per word, builds the round-0 plane a
//     word at a time and advances whole words per kernel call on one
//     goroutine — the same word kernel incremental deltas run
//     (RunBitsetFrontier). It is the production engine behind
//     incremental formation, pinned to SeqEngine by the differential
//     matrix.
//
// Every engine reports the number of rounds in which at least one status
// changed — the quantity plotted in the paper's Figure 5(a)/(b).
package simnet

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
)

// Env is the fixed context of a labeling run: the machine and the fault
// pattern. Aux optionally carries a packed per-node boolean attribute
// computed by an earlier phase (phase 2 of the paper consumes phase 1's
// unsafe plane this way); scalar rules read one bit with Aux.Get, the
// bitset engine a word at a time.
type Env struct {
	Topo   *mesh.Topology
	Faulty *grid.PointSet
	Aux    *grid.BitGrid
}

// NewEnv returns an Env after validating that every fault is a machine
// node and that aux, when present, has one entry per node. aux is a
// row-major label vector (indexed by Topo.Index), packed into Env.Aux.
func NewEnv(topo *mesh.Topology, faulty *grid.PointSet, aux []bool) (*Env, error) {
	if topo == nil {
		return nil, fmt.Errorf("simnet: nil topology")
	}
	if faulty == nil {
		faulty = grid.NewPointSet()
	}
	// Each skips the sort Points would pay; the least outside fault is
	// reported, as a sorted scan would.
	var outside *grid.Point
	faulty.Each(func(p grid.Point) {
		if !topo.Contains(p) && (outside == nil || p.Less(*outside)) {
			outside = &p
		}
	})
	if outside != nil {
		return nil, fmt.Errorf("simnet: fault %v outside %v", *outside, topo)
	}
	env := &Env{Topo: topo, Faulty: faulty}
	if aux != nil {
		if len(aux) != topo.Size() {
			return nil, fmt.Errorf("simnet: aux has %d entries, want %d", len(aux), topo.Size())
		}
		env.Aux = grid.NewBitGrid(topo.Width(), topo.Height())
		env.Aux.SetBools(aux)
	}
	return env, nil
}

// Rule is a local status-update rule. Labels are booleans; the meaning of
// true is rule-specific (e.g. "unsafe" in phase 1, "enabled" in phase 2).
// Rules must be monotone in the current label (once changed, a label never
// changes back) for the fixpoint to be well defined — the property the
// paper's Definition 3 establishes against the naive recursive rule.
type Rule interface {
	// Name identifies the rule in traces and experiment output.
	Name() string
	// Init returns node p's label before the first round.
	Init(env *Env, p grid.Point) bool
	// Step returns node p's next label given its current label and the
	// labels of its four neighbors in canonical direction order
	// (west, east, south, north). Missing neighbors of a bounded mesh
	// carry GhostLabel; faulty neighbors carry FaultyLabel.
	Step(env *Env, p grid.Point, cur bool, nbr [4]bool) bool
	// GhostLabel is the label presented by the paper's ghost nodes (the
	// permanently safe, enabled ring outside a bounded mesh).
	GhostLabel() bool
	// FaultyLabel is the label a fail-stop faulty node presents to its
	// neighbors.
	FaultyLabel() bool
}

// Options tunes an engine run; Result is its outcome. They are the
// boolean instances of the generic runners' types.
type (
	Options = GenericOptions[bool]
	Result  = GenericResult[bool]
)

// Engine computes the synchronous fixpoint of a rule.
type Engine interface {
	Name() string
	Run(env *Env, rule Rule, opt Options) (*Result, error)
}
