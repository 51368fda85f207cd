package core

import (
	"fmt"
	"strings"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
)

// Violation is one failed paper-invariant monitor check.
type Violation struct {
	// Monitor names the checker: "rounds_bound", "phase_monotone", or
	// "frontier_shrink".
	Monitor string
	// Phase is the fixpoint phase the violation occurred in.
	Phase string
	// Detail is the human-readable description.
	Detail string
}

// Error summarizes a non-empty violation list for StrictInvariants.
func violationError(vs []Violation) error {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s[%s]: %s", v.Monitor, v.Phase, v.Detail)
	}
	return fmt.Errorf("core: %d invariant violation(s): %s", len(vs), strings.Join(parts, "; "))
}

// monitorForm runs the paper-invariant monitors over a finished
// formation and flushes the per-phase cost collectors: it emits one
// "costs" event per phase, one "block_converge" event per (block, phase)
// pair, and one "invariant_violation" event per failed check — events,
// not panics, so a violating run still produces a result and a full
// trace. The caller turns the returned violations into an error under
// Config.StrictInvariants. On the way out the collectors' per-node
// trackers are scrubbed (sparse-zeroed over the block nodes when the
// flip accounting proves that restores all-zero) and released to the
// fabric's free list for the next formation.
//
// Checks:
//
//   - rounds_bound: each phase's changing rounds must not exceed
//     max d(B) over the faulty blocks (the paper's Theorems 1 and 2
//     round bound). The bound is not a theorem: phase 1 exceeds it when
//     the unsafe closure merges blocks in a cascade, phase 2 when a
//     region snakes around internal faults. Dense patterns (~8%+) do so
//     often, and rare patterns at the paper's own density (<= 1%) do
//     too — a 100 x 100 mesh with 85 uniform faults takes 9 rounds
//     against max d(B) = 7 (TestMonitorFlagsGenuineRoundsBound,
//     TestRoundsBoundedByBlockDiameter and EXPERIMENTS.md). That is
//     exactly what the monitor is for: it makes the bound's edge visible
//     in production traces instead of only in property tests.
//
//   - phase_monotone: labels move one way only — a phase-1 flip must end
//     unsafe (safe->unsafe), a phase-2 flip must end enabled on an
//     unsafe node (disabled->enabled, Definition 3's monotone rule) —
//     and no node flips twice (the flip total must equal the count of
//     distinct changed nodes). The per-node check walks only the faulty
//     blocks' nodes — every legal flip ends unsafe and hence inside a
//     block, so monitor work is proportional to the faulty region, not
//     the machine (the 5%-overhead budget of BenchmarkOverhead). A flip
//     landing outside every block escapes the walk but not the monitor:
//     it leaves the distinct count short of the flip total, which the
//     mismatch check reports.
//
//   - frontier_shrink violations are detected inside the frontier engine
//     (see runFrontierGeneric) and carried here through the collector's
//     violation count; full fixpoint runs never produce them.
func monitorForm(rec *obs.Recorder, fabric *costs.Fabric, engine string, res *Result, pc1, pc2 *costs.Phase) []Violation {
	maxD := res.MaxBlockDiameter()
	nFaults := res.Faults.Len()
	var violations []Violation

	report := func(monitor, phase, detail string) {
		violations = append(violations, Violation{Monitor: monitor, Phase: phase, Detail: detail})
		fabric.Add(0, costs.KindViolations, 1)
		if rec != nil {
			rec.Emit(obs.Event{Type: obs.EInvariantViolation, Name: monitor, Phase: phase, Engine: engine, Err: detail})
			rec.Counter("invariant_violations").Inc()
		}
	}

	phases := []struct {
		pc    *costs.Phase
		final []bool // the phase's fixpoint labels; a flipped node must carry true
		also  []bool // extra predicate a flipped node must satisfy (nil = none)
		clean bool   // every tracker entry proven to lie inside a block
	}{
		{pc: pc1, final: res.Unsafe},
		{pc: pc2, final: res.Enabled, also: res.Unsafe},
	}
	for pi := range phases {
		mp := &phases[pi]
		t := mp.pc.Finish()
		phase := t.Phase
		if rec != nil {
			rec.Emit(obs.Event{
				Type: obs.ECosts, Phase: phase, Engine: engine,
				Rounds: t.Rounds, Changed: int(t.Flips), Msgs: int(t.Msgs),
				Words: t.Words, Frontier: t.FrontierPeak,
				N: nFaults, Diameter: maxD,
			})
		}
		if t.Rounds > maxD {
			report("rounds_bound", phase,
				fmt.Sprintf("%d rounds exceed max d(B) = %d", t.Rounds, maxD))
		}
		tr := mp.pc.Tracker()
		if tr == nil {
			continue
		}
		distinct := int64(0)
		for _, blk := range res.Blocks {
			blk.EachNode(func(q grid.Point) {
				i := res.Topo.Index(q)
				if tr[i] == 0 {
					return
				}
				distinct++
				if !mp.final[i] || (mp.also != nil && !mp.also[i]) {
					report("phase_monotone", phase,
						fmt.Sprintf("node %d flipped against the monotone direction", i))
				}
			})
		}
		if distinct != t.Flips {
			report("phase_monotone", phase,
				fmt.Sprintf("%d label flips over %d distinct block nodes: some label flipped back or flipped outside every faulty block", t.Flips, distinct))
		} else {
			// Every flip event is a unique first flip of a block node (an
			// out-of-block or repeated flip would leave distinct short of
			// the total), so zeroing the block nodes restores an all-zero
			// tracker — it can be reused without the machine-sized memclr.
			mp.clean = true
		}
		if t.Violations > 0 {
			report("frontier_shrink", phase,
				fmt.Sprintf("%d frontier re-entries recorded by the engine", t.Violations))
		}
	}

	emitBlockConverge(rec, res, pc1, pc2)
	for _, mp := range phases {
		if tr := mp.pc.Tracker(); tr != nil && mp.clean {
			for _, blk := range res.Blocks {
				blk.EachNode(func(q grid.Point) { tr[res.Topo.Index(q)] = 0 })
			}
		}
		mp.pc.Release(mp.clean)
	}
	return violations
}

// emitBlockConverge attributes convergence rounds to faulty blocks: for
// each block and phase, the convergence round is the last round any node
// of the block changed its label (0 when the block was settled from
// round 0). One block_converge event per (block, phase) pair, carrying
// the block's own d(B) so per-block rounds-vs-diameter tails are a jq
// expression away (octrace converge aggregates them).
func emitBlockConverge(rec *obs.Recorder, res *Result, pcs ...*costs.Phase) {
	if rec == nil {
		return
	}
	for bi, blk := range res.Blocks {
		for _, pc := range pcs {
			tr := pc.Tracker()
			if tr == nil {
				continue
			}
			last := int32(0)
			blk.EachNode(func(p grid.Point) {
				if r := tr[res.Topo.Index(p)]; r > last {
					last = r
				}
			})
			rec.Emit(obs.Event{
				Type: obs.EBlockConverge, Phase: pc.PhaseName(), Block: bi + 1,
				Rounds: int(last), Diameter: blk.Diameter(), N: blk.Size(),
			})
		}
	}
}
