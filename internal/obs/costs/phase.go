package costs

import "sync/atomic"

// Phase accumulates one engine phase (one full fixpoint or one
// incremental delta phase) worth of costs before flushing them into the
// fabric in a single Finish call. Round-granular quantities are added by
// the engine coordinator (one call per round, no atomics); quantities
// produced concurrently by workers (words touched, and the per-node
// last-changed tracker) use an atomic or disjoint writes respectively,
// so collectors are safe under the multi-worker bitset engine.
//
// A nil *Phase is a valid no-op collector: every method returns
// immediately, which is how the uninstrumented hot path stays free.
type Phase struct {
	fab   *Fabric
	phase string

	rounds       int
	msgs         int64
	flips        int64
	words        atomic.Int64
	frontierSum  int64
	frontierPeak int
	waves        int
	violations   int

	// last[i] is the last round node i's label changed (0 = never).
	// Workers write disjoint indices, so no synchronization is needed;
	// the slice is read only after the run's final barrier.
	last []int32

	finished bool
}

// NewPhase returns a collector flushing into f under the given phase
// name. nodes > 0 allocates the per-node last-changed tracker (used by
// core's per-block attribution and monotonicity monitors); nodes == 0
// skips it, which is what the incremental delta path does to stay
// allocation-light. A nil fabric yields a nil collector.
func NewPhase(f *Fabric, phase string, nodes int) *Phase {
	if f == nil {
		return nil
	}
	p := &Phase{fab: f, phase: phase}
	if nodes > 0 {
		p.last = f.takeTracker(nodes)
	}
	return p
}

// Release returns the per-node tracker to the fabric's free list for
// reuse by a later collector on the same fabric. clean promises every
// entry is zero again — the caller sparse-zeroed the flipped entries —
// letting the next take skip the machine-sized memclr; pass false when
// in doubt (the only cost is a clear on reuse). Call Release only once
// the tracker's readers (the monotonicity monitors and per-block
// attribution) are done with it; the collector's scalar totals remain
// valid afterwards. Nil-safe, idempotent.
func (p *Phase) Release(clean bool) {
	if p == nil || p.last == nil {
		return
	}
	p.fab.putTracker(p.last, !clean)
	p.last = nil
}

// PhaseName returns the phase label ("" for a nil collector).
func (p *Phase) PhaseName() string {
	if p == nil {
		return ""
	}
	return p.phase
}

// Tracker returns the per-node last-changed-round slice, or nil when
// tracking is off (nil collector or nodes == 0 at construction).
// Engines write tr[i] = round when node i's label flips; indices are
// disjoint across workers, so the writes need no synchronization.
func (p *Phase) Tracker() []int32 {
	if p == nil {
		return nil
	}
	return p.last
}

// Round records one completed changing round: flips labels changed and
// msgs status messages exchanged. Called by the engine coordinator only.
func (p *Phase) Round(round, flips, msgs int) {
	if p == nil {
		return
	}
	if round > p.rounds {
		p.rounds = round
	}
	p.flips += int64(flips)
	p.msgs += int64(msgs)
}

// AddWords records n words evaluated by the bitset engine. Safe for
// concurrent use (worker goroutines call it once per round per tile).
func (p *Phase) AddWords(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.words.Add(n)
}

// Frontier records one wave's frontier size (incremental engine).
func (p *Phase) Frontier(size int) {
	if p == nil {
		return
	}
	p.waves++
	p.frontierSum += int64(size)
	if size > p.frontierPeak {
		p.frontierPeak = size
	}
}

// Violation records one invariant-monitor violation detected during the
// phase (the frontier-shrinkage monitor reports through here).
func (p *Phase) Violation() {
	if p == nil {
		return
	}
	p.violations++
}

// Violations returns the violation count recorded so far.
func (p *Phase) Violations() int {
	if p == nil {
		return 0
	}
	return p.violations
}

// Totals is one phase's flushed accounting, the payload of the "costs"
// trace event.
type Totals struct {
	Phase        string
	Rounds       int
	Msgs         int64
	Flips        int64
	Words        int64
	FrontierSum  int64
	FrontierPeak int
	Waves        int
	Violations   int
}

// Finish flushes the collected totals into the fabric (shard 0; the
// per-phase flush is far off any hot path) and returns them. Repeated
// calls flush once and return the same totals. Nil-safe (zero totals).
func (p *Phase) Finish() Totals {
	if p == nil {
		return Totals{}
	}
	t := Totals{
		Phase:        p.phase,
		Rounds:       p.rounds,
		Msgs:         p.msgs,
		Flips:        p.flips,
		Words:        p.words.Load(),
		FrontierSum:  p.frontierSum,
		FrontierPeak: p.frontierPeak,
		Waves:        p.waves,
		Violations:   p.violations,
	}
	if !p.finished {
		p.finished = true
		p.fab.Add(0, KindRounds, int64(t.Rounds))
		p.fab.Add(0, KindMessages, t.Msgs)
		p.fab.Add(0, KindLabelFlips, t.Flips)
		p.fab.Add(0, KindWordsTouched, t.Words)
		p.fab.Add(0, KindFrontierNodes, t.FrontierSum)
		p.fab.Add(0, KindViolations, int64(t.Violations))
		p.fab.Add(0, KindPhases, 1)
	}
	return t
}
