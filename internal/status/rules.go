// Package status implements the paper's node-status rules as local
// simnet.Rule values, plus the fixpoint checker for the naive recursive
// enabled/disabled definition whose "double status" problem (Figure 2)
// motivates the paper's Definition 3.
//
// Node classifications (paper Section 3):
//
//   - faulty vs nonfaulty: fixed input (the fault pattern).
//   - safe vs unsafe: phase 1. All faulty nodes are unsafe. Definition 2a
//     makes a nonfaulty node unsafe when it has two or more unsafe
//     neighbors; Definition 2b when it has an unsafe neighbor in both
//     dimensions. Connected unsafe nodes form the rectangular faulty
//     blocks.
//   - enabled vs disabled: phase 2 (Definition 3). Unsafe nodes start
//     disabled, safe nodes enabled; a nonfaulty unsafe node becomes
//     enabled when it has two or more enabled neighbors. Connected
//     disabled nodes form the disabled regions — the orthogonal convex
//     polygons of the title.
//
// Ghost nodes (outside a bounded mesh) are safe and enabled; fail-stop
// faulty nodes present unsafe/disabled to their neighbors.
package status

import (
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/simnet"
)

// SafetyDef selects the phase-1 safe/unsafe definition.
type SafetyDef int

const (
	// Def2a: a nonfaulty node is unsafe if it has two or more unsafe
	// neighbors. Faulty blocks are disjoint rectangles at pairwise
	// distance >= 3.
	Def2a SafetyDef = iota
	// Def2b: a nonfaulty node is unsafe if it has an unsafe neighbor in
	// both dimensions. Blocks capture fewer nonfaulty nodes and sit at
	// pairwise distance >= 2.
	Def2b
)

// String returns the definition name.
func (d SafetyDef) String() string {
	switch d {
	case Def2a:
		return "def2a"
	case Def2b:
		return "def2b"
	default:
		return "def?"
	}
}

// UnsafeRule returns the phase-1 rule for the given definition. The label
// is "unsafe": faulty nodes are permanently unsafe, ghosts are safe, and
// the rule is monotone (safe -> unsafe only).
func UnsafeRule(def SafetyDef) simnet.Rule { return unsafeRule{def: def} }

type unsafeRule struct {
	def SafetyDef
}

func (r unsafeRule) Name() string { return "unsafe/" + r.def.String() }

// Init implements simnet.Rule: every nonfaulty node starts safe. (The
// paper stresses that each nonfaulty node must initially be assigned the
// safe status for the iterative definition to be well defined.)
func (unsafeRule) Init(*simnet.Env, grid.Point) bool { return false }

// GhostLabel implements simnet.Rule: ghosts are safe.
func (unsafeRule) GhostLabel() bool { return false }

// FaultyLabel implements simnet.Rule: faulty nodes are unsafe.
func (unsafeRule) FaultyLabel() bool { return true }

// Step implements simnet.Rule.
func (r unsafeRule) Step(_ *simnet.Env, _ grid.Point, cur bool, nbr [4]bool) bool {
	if cur {
		return true // monotone: once unsafe, always unsafe
	}
	w, e, s, n := nbr[mesh.West], nbr[mesh.East], nbr[mesh.South], nbr[mesh.North]
	switch r.def {
	case Def2a:
		count := 0
		for _, u := range nbr {
			if u {
				count++
			}
		}
		return count >= 2
	default: // Def2b
		return (w || e) && (s || n)
	}
}

// InitWord implements simnet.WordRule: faulty lanes start unsafe, every
// other lane safe, so the round-0 word is the fault word itself.
func (unsafeRule) InitWord(faulty, _, valid uint64) uint64 { return faulty & valid }

// StepWord implements simnet.WordRule: Step over 64 lanes at once. Both
// definitions reduce to a few word-wide boolean operations; Def 2a's
// "two or more of four" threshold is the carry-save atLeastTwo counter.
func (r unsafeRule) StepWord(cur, west, east, south, north uint64) uint64 {
	if r.def == Def2a {
		return cur | atLeastTwo(west, east, south, north)
	}
	return cur | (west|east)&(south|north) // Def2b: an unsafe neighbor in both dimensions
}

// atLeastTwo returns, per lane, whether at least two of a, b, c, d are
// set: a carry-save add of the four one-bit inputs. The pairwise sums
// are s1 = a XOR b and s2 = c XOR d with carries c1 = a AND b and
// c2 = c AND d; the total is >= 2 exactly when a pair carried or both
// pairs contributed a single one.
func atLeastTwo(a, b, c, d uint64) uint64 {
	return a&b | c&d | (a^b)&(c^d)
}

// EnabledRule returns the phase-2 rule (Definition 3). The label is
// "enabled": safe nodes and ghosts are enabled, faulty nodes permanently
// disabled, and a nonfaulty unsafe node becomes enabled once it sees two
// or more enabled neighbors. env.Aux must carry the phase-1 unsafe plane.
func EnabledRule() simnet.Rule { return enabledRule{} }

type enabledRule struct{}

func (enabledRule) Name() string { return "enabled/def3" }

// Init implements simnet.Rule: safe nodes start enabled, unsafe nodes
// disabled. This explicit initialization (rather than a recursive
// definition) is what makes the enabled/disabled status well defined.
func (enabledRule) Init(env *simnet.Env, p grid.Point) bool {
	return !env.Aux.Get(p.X, p.Y) // enabled iff safe
}

// GhostLabel implements simnet.Rule: ghosts are enabled.
func (enabledRule) GhostLabel() bool { return true }

// FaultyLabel implements simnet.Rule: faulty nodes are disabled.
func (enabledRule) FaultyLabel() bool { return false }

// Step implements simnet.Rule.
func (enabledRule) Step(_ *simnet.Env, _ grid.Point, cur bool, nbr [4]bool) bool {
	if cur {
		return true // monotone: once enabled, always enabled
	}
	count := 0
	for _, e := range nbr {
		if e {
			count++
		}
	}
	return count >= 2
}

// InitWord implements simnet.WordRule: safe lanes (aux clear) start
// enabled; faulty lanes and padding stay clear.
func (enabledRule) InitWord(faulty, aux, valid uint64) uint64 { return ^aux &^ faulty & valid }

// StepWord implements simnet.WordRule: a disabled lane becomes enabled
// when at least two of its four neighbor lanes are enabled.
func (enabledRule) StepWord(cur, west, east, south, north uint64) uint64 {
	return cur | atLeastTwo(west, east, south, north)
}

// IsRecursiveEnabledFixpoint checks a complete enabled/disabled assignment
// against the naive RECURSIVE definition the paper rejects: "an unsafe
// node is enabled if it has two or more enabled neighbors; otherwise it is
// disabled". It reports whether the assignment is consistent with that
// definition. Figure 2(b) exhibits a configuration with two distinct
// consistent assignments (double status); TestFigure2DoubleStatus uses
// this checker to demonstrate the problem.
//
// enabled is indexed by env.Topo.Index; env.Aux must carry the unsafe
// plane.
func IsRecursiveEnabledFixpoint(env *simnet.Env, enabled []bool) bool {
	for _, p := range env.Topo.Points() {
		i := env.Topo.Index(p)
		if env.Faulty.Has(p) {
			if enabled[i] {
				return false // faulty nodes must be disabled
			}
			continue
		}
		if !env.Aux.Get(p.X, p.Y) {
			if !enabled[i] {
				return false // safe nodes must be enabled
			}
			continue
		}
		count := 0
		for _, d := range mesh.Directions {
			q, ok := env.Topo.NeighborIn(p, d)
			switch {
			case !ok:
				count++ // ghost: enabled
			case env.Faulty.Has(q):
				// disabled
			case enabled[env.Topo.Index(q)]:
				count++
			}
		}
		if enabled[i] != (count >= 2) {
			return false
		}
	}
	return true
}
