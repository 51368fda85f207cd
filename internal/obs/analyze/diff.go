package analyze

import (
	"fmt"
	"sort"

	"ocpmesh/internal/obs"
)

// Comparable reduces a trace to its engine-invariant skeleton: the
// events that must be identical between two runs of the same
// configuration on different fixpoint engines (the PR 3 invariance
// property), with everything machine- or engine-dependent zeroed —
// sequence numbers, timestamps, durations, and the engine name itself.
// Kept are phase_start (phase, rule), round (phase, round, changed,
// msgs), phase_end (phase, rounds), figure brackets, sweep_start,
// sweep_cell (x, rep, value, ok), sweep_point (x, n, value), route
// outcomes, wormhole summaries and deltas.
func Comparable(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		switch e.Type {
		case obs.EPhaseStart, obs.ERound, obs.EPhaseEnd,
			obs.EFigureStart, obs.EFigureEnd, obs.ESweepStart,
			obs.ESweepCell, obs.ESweepPoint, obs.ERoute,
			obs.EWormhole, obs.EDelta:
			e.Seq, e.TNS, e.DurNS = 0, 0, 0
			e.Engine = ""
			out = append(out, e)
		}
	}
	return out
}

// DiffOptions tunes Diff.
type DiffOptions struct {
	// Unordered compares the comparable skeletons as multisets instead
	// of ordered streams. Needed for sweep traces recorded with more
	// than one worker, where cell scheduling interleaves events
	// nondeterministically; single-formation traces diff ordered.
	Unordered bool
	// MaxDiffs caps the reported divergences (0 = 10).
	MaxDiffs int
}

// Diff compares the engine-invariant skeletons of two traces and
// returns human-readable divergences, empty when the traces are
// equivalent. It is the offline check of the engine-invariance
// property: a sequential and a bitset run of the same configuration
// must produce identical skeletons.
func Diff(a, b []obs.Event, opt DiffOptions) []string {
	max := opt.MaxDiffs
	if max <= 0 {
		max = 10
	}
	ca, cb := Comparable(a), Comparable(b)
	if opt.Unordered {
		sortEvents(ca)
		sortEvents(cb)
	}
	var diffs []string
	if len(ca) != len(cb) {
		diffs = append(diffs, fmt.Sprintf("comparable event count: %d vs %d", len(ca), len(cb)))
	}
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	for i := 0; i < n && len(diffs) < max; i++ {
		if ca[i] != cb[i] {
			diffs = append(diffs, fmt.Sprintf("event %d: %s vs %s", i, eventKey(ca[i]), eventKey(cb[i])))
		}
	}
	return diffs
}

// eventKey renders the discriminating fields of a comparable event.
func eventKey(e obs.Event) string {
	return fmt.Sprintf("{%s phase=%s rule=%s name=%s round=%d rounds=%d changed=%d msgs=%d x=%g rep=%d n=%d value=%g ok=%t hops=%d err=%s}",
		e.Type, e.Phase, e.Rule, e.Name, e.Round, e.Rounds, e.Changed, e.Msgs,
		e.X, e.Rep, e.N, e.Value, e.OK, e.Hops, e.Err)
}

// sortEvents orders comparable events by their full key, giving a
// canonical multiset order.
func sortEvents(events []obs.Event) {
	sort.Slice(events, func(i, j int) bool {
		return eventKey(events[i]) < eventKey(events[j])
	})
}
