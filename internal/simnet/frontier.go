package simnet

import (
	"fmt"
	"sort"

	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
)

// FrontierResult is the outcome of a frontier-driven run.
type FrontierResult struct {
	// Changed lists the indexes of the nodes whose label flipped during
	// the run, in ascending order. Labels reset by the caller before the
	// run are not included; callers tracking the full dirty set must
	// union their own resets in.
	Changed []int
	// Rounds is the number of waves in which at least one label changed,
	// the frontier analogue of Result.Rounds.
	Rounds int
}

// frontierUpdate is one pending label change of a frontier wave.
type frontierUpdate[T comparable] struct {
	idx   int
	label T
}

// RunFrontierGeneric computes the fixpoint of a monotone rule by
// wave-synchronous worklist iteration restricted to the closure of a
// seed frontier, mutating labels in place. It is the node-granularity
// reference for RunBitsetFrontier, the word-granularity engine behind
// incremental formation: the parity tests pin the two on labels,
// changed sets, rounds and trace events.
//
// labels must hold one entry per node and be a fixpoint of the rule
// everywhere outside the seed's closure; inside, it must sit at or below
// the new fixpoint (monotone rules then converge to the same least
// fixpoint the full synchronous engines compute — bit for bit). seed
// lists the node indexes to recompute first; faulty nodes are skipped
// (their labels are pinned by the caller).
//
// Each wave recomputes every frontier node from the previous wave's
// labels (double-buffered, like the synchronous engines), then seeds the
// next wave with the neighbors of the nodes that changed. Waves are
// processed in ascending index order, so the run is deterministic.
//
// With a Recorder, each changing wave emits one obs.ERound event whose
// Msgs field counts the status messages needed to recompute that wave
// (one per live incident link of each recomputed node).
func RunFrontierGeneric[T comparable](env *Env, rule GenericRule[T], labels []T, seed []int, opt GenericOptions[T]) (*FrontierResult, error) {
	topo := env.Topo
	if len(labels) != topo.Size() {
		return nil, fmt.Errorf("simnet: frontier labels have %d entries, want %d", len(labels), topo.Size())
	}
	maxRounds := opt.maxRounds(env)
	rec := opt.Recorder
	phase := opt.Phase
	if rec != nil && phase == "" {
		phase = rule.Name()
	}
	countMsgs := rec != nil || opt.Costs != nil

	inFrontier := make([]bool, topo.Size())
	frontier := make([]int, 0, len(seed))
	for _, i := range seed {
		if i < 0 || i >= topo.Size() {
			return nil, fmt.Errorf("simnet: frontier seed index %d out of range [0,%d)", i, topo.Size())
		}
		if inFrontier[i] || env.Faulty.Has(topo.PointAt(i)) {
			continue
		}
		inFrontier[i] = true
		frontier = append(frontier, i)
	}

	var (
		changedAll []int
		updates    []frontierUpdate[T]
		rounds     int
	)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		opt.Costs.Frontier(len(frontier))
		// Evaluate the whole wave against the current labels before
		// applying any update, so every node reads the previous wave.
		updates = updates[:0]
		msgs := 0
		for _, i := range frontier {
			p := topo.PointAt(i)
			if countMsgs {
				for _, d := range mesh.Directions {
					if q, ok := topo.NeighborIn(p, d); ok && !env.Faulty.Has(q) {
						msgs++
					}
				}
			}
			next := rule.Step(env, p, labels[i], genericNeighborLabels(env, rule, labels, p))
			if next != labels[i] {
				updates = append(updates, frontierUpdate[T]{idx: i, label: next})
			}
			inFrontier[i] = false
		}
		if len(updates) == 0 {
			break
		}
		frontier = frontier[:0]
		for _, u := range updates {
			labels[u.idx] = u.label
			changedAll = append(changedAll, u.idx)
			for _, q := range topo.Neighbors(topo.PointAt(u.idx)) {
				j := topo.Index(q)
				if !inFrontier[j] && !env.Faulty.Has(q) {
					inFrontier[j] = true
					frontier = append(frontier, j)
				}
			}
		}
		rounds++
		opt.Costs.Round(rounds, len(updates), msgs)
		if rec != nil {
			rec.Emit(obs.Event{
				Type: obs.ERound, Phase: phase, Round: rounds, Changed: len(updates), Msgs: msgs,
			})
			rec.Counter("simnet_rounds").Inc()
			rec.Counter("simnet_messages").Add(int64(msgs))
		}
		if opt.OnRound != nil {
			opt.OnRound(rounds, labels)
		}
		if rounds > maxRounds {
			return nil, fmt.Errorf("simnet: rule %q did not stabilize within %d rounds (non-monotone rule?)",
				rule.Name(), maxRounds)
		}
	}
	sort.Ints(changedAll)
	if opt.Costs != nil {
		// Frontier-shrinkage monitor: under a monotone rule every node
		// settles on its first flip, so the sorted change list must be
		// duplicate-free — a repeat means a node re-entered the frontier
		// and flipped again (non-monotone behavior the incremental engine
		// is not sound against). Reported as an invariant_violation
		// event, never a panic.
		for i := 1; i < len(changedAll); i++ {
			if changedAll[i] == changedAll[i-1] {
				opt.Costs.Violation()
				if rec != nil {
					rec.Emit(obs.Event{
						Type: obs.EInvariantViolation, Name: "frontier_shrink", Phase: phase,
						Err: fmt.Sprintf("node %d flipped more than once across %d waves", changedAll[i], rounds),
					})
				}
			}
		}
	}
	return &FrontierResult{Changed: changedAll, Rounds: rounds}, nil
}
