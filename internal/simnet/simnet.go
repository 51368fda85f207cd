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
//   - BitsetEngine packs 64 labels per word and advances whole words per
//     kernel call over row bands; it is the production engine behind
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
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
)

// Env is the fixed context of a labeling run: the machine and the fault
// pattern. Aux optionally carries a per-node-index boolean attribute
// computed by an earlier phase (phase 2 of the paper consumes phase 1's
// unsafe labels this way).
type Env struct {
	Topo   *mesh.Topology
	Faulty *grid.PointSet
	Aux    []bool
}

// NewEnv returns an Env after validating that every fault is a machine
// node and that Aux, when present, has one entry per node.
func NewEnv(topo *mesh.Topology, faulty *grid.PointSet, aux []bool) (*Env, error) {
	if topo == nil {
		return nil, fmt.Errorf("simnet: nil topology")
	}
	if faulty == nil {
		faulty = grid.NewPointSet()
	}
	for _, p := range faulty.Points() {
		if !topo.Contains(p) {
			return nil, fmt.Errorf("simnet: fault %v outside %v", p, topo)
		}
	}
	if aux != nil && len(aux) != topo.Size() {
		return nil, fmt.Errorf("simnet: aux has %d entries, want %d", len(aux), topo.Size())
	}
	return &Env{Topo: topo, Faulty: faulty, Aux: aux}, nil
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

// Options tunes an engine run.
type Options struct {
	// MaxRounds bounds the number of rounds; 0 means Topo.Size()+1, a
	// safe bound for any monotone rule (each round must flip at least one
	// of the at-most-Size labels). Exceeding the bound is an error.
	MaxRounds int
	// OnRound, when non-nil, observes the label vector after each
	// changing round. The slice must not be retained or mutated.
	OnRound func(round int, labels []bool)
	// Recorder, when non-nil, receives one obs.ERound event per changing
	// round (round index, labels changed, status messages exchanged) and
	// feeds the simnet_rounds / simnet_messages counters. Both engines
	// emit identical event streams for the same run. A nil Recorder
	// costs nothing.
	Recorder *obs.Recorder
	// Phase labels the recorded events (e.g. "phase1"); it defaults to
	// the rule name.
	Phase string
	// Costs, when non-nil, accumulates the run's distributed-cost
	// accounting (rounds, messages, label flips, words touched) into the
	// convergence observatory's counter fabric, and — when the collector
	// carries a tracker — records the last round each node's label
	// changed. Independent of Recorder; a nil collector costs nothing.
	Costs *costs.Phase
	// Pool, when non-nil, is the worker pool the bitset engine's row
	// bands fan out over instead of spawning goroutines per run; the
	// caller owns it (and its Close). A pool too small for the run's tile
	// count is ignored. Nil makes each run use a private pool.
	Pool *WorkerPool
}

// Result is the outcome of a run.
type Result struct {
	// Labels holds the fixpoint label of every node, indexed by
	// Topo.Index. Faulty nodes carry the rule's FaultyLabel.
	Labels []bool
	// Rounds is the number of rounds in which at least one label changed.
	// A configuration already at fixpoint stabilizes in 0 rounds. (Nodes
	// need one extra quiet round to detect termination; the paper's
	// Figure 5 counts changing rounds, as we do.)
	Rounds int
}

// Engine computes the synchronous fixpoint of a rule.
type Engine interface {
	Name() string
	Run(env *Env, rule Rule, opt Options) (*Result, error)
}
