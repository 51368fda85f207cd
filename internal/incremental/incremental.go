// Package incremental maintains the paper's two-phase formation result
// under fault churn: instead of recomputing both fixpoints over the
// whole mesh on every change, a Field applies fault deltas by seeding a
// dirty frontier from the changed nodes and re-iterating only over the
// frontier's closure (simnet.RunBitsetFrontier over persistent packed
// label planes), then relabels only the touched faulty blocks and
// disabled regions (region.UpdateRegions).
//
// Correctness rests on two properties the repository's tests pin:
//
//   - Both status rules are monotone, so any chaotic iteration from a
//     state at or below the fixpoint reaches the same least fixpoint the
//     synchronous engines compute — adding faults is pure frontier
//     propagation from the new faults' neighborhoods.
//   - Both fixpoints decompose per faulty block: every unsafe node is
//     derivable from the faults of its own block, and every
//     enabled/disabled label depends only on its block's footprint
//     (blocks sit at pairwise distance >= 2, so no derivation crosses
//     between them). Removing faults therefore only requires resetting
//     the affected blocks' footprints to their initial labels and
//     re-iterating inside them.
//
// The resulting label fields, faulty blocks and disabled regions are
// bit-for-bit identical to a from-scratch formation on the current fault
// set (TestChurnMatchesFromScratch), at a cost proportional to the
// perturbation instead of the mesh (BenchmarkChurn).
package incremental

import (
	"fmt"
	"runtime"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/region"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/status"
)

// Config parameterizes a Field. The zero value matches core.Config
// defaults: Definition 2b, 8-connected region grouping.
type Config struct {
	// Safety selects the phase-1 definition.
	Safety status.SafetyDef
	// Connectivity selects the disabled-region grouping.
	Connectivity region.Connectivity
	// MaxRounds bounds each fixpoint (0 = automatic safe bound).
	MaxRounds int
	// Workers is the row-band count of the initial full formation on the
	// bit-packed word-parallel engine (simnet.RunBitsetGeneric); 0 means
	// GOMAXPROCS. Deltas run the single-threaded word frontier, so it has
	// no effect on them. Results are bit-for-bit identical at any count.
	Workers int
	// Recorder, when non-nil, traces the field: per-round events during
	// (re)computation and one obs.EDelta event per applied delta, plus
	// incremental_* metrics. Nil disables observability at no cost.
	Recorder *obs.Recorder
	// Costs, when non-nil, accumulates the initial formation's and every
	// delta's distributed costs (rounds, messages, label flips, frontier
	// sizes, deltas) into the convergence observatory's counter fabric
	// and arms the frontier-shrinkage monitor. Independent of Recorder;
	// nil disables it at no cost.
	Costs *costs.Fabric
	// Strict turns a frontier-shrinkage violation (a node flipping twice
	// during a delta, which a monotone rule forbids) into an error from
	// Add/Remove instead of only an invariant_violation event. Requires
	// Costs.
	Strict bool
}

// Delta summarizes one applied fault delta.
type Delta struct {
	// Op is "add" or "remove".
	Op string
	// Points is the number of faults actually added or removed (inputs
	// already in / absent from the fault set are skipped).
	Points int
	// Frontier is the size of the dirty frontier the delta seeded: the
	// nodes whose inputs changed and had to be recomputed first.
	Frontier int
	// ChangedPhase1 and ChangedPhase2 count the nodes whose unsafe and
	// enabled labels settled differently than before the delta.
	ChangedPhase1, ChangedPhase2 int
	// RoundsPhase1 and RoundsPhase2 count the frontier rounds each phase
	// needed to restabilize — the incremental analogue of the paper's
	// Figure 5(a)/(b) cost metric.
	RoundsPhase1, RoundsPhase2 int
}

// Rounds returns the total rounds across both phases.
func (d Delta) Rounds() int { return d.RoundsPhase1 + d.RoundsPhase2 }

// Field holds a formation result kept current under fault churn.
type Field struct {
	cfg    Config
	topo   *mesh.Topology
	faults *grid.PointSet

	unsafe  []bool
	enabled []bool
	blocks  []*region.Region
	regions []*region.Region

	// Packed mirrors of unsafe/enabled plus per-lane liveness, kept in
	// O(delta) sync with the []bool fields; deltas run the
	// word-granularity frontier over them.
	ubits, ebits *simnet.BitField

	// rounds of the initial full formation (reported by Session.Result
	// until the first delta).
	rounds1, rounds2 int

	// Per-delta scratch reused across Add/Remove calls (a Field is
	// single-threaded): the affected-area walk and the before-labels it
	// is paired with, plus the frontier seed list.
	areaPts    []grid.Point
	areaBefore []bool
	seed       []int
}

// New computes a full formation on topo for the given fault set and
// returns the field tracking it. faults is cloned, not retained.
func New(topo *mesh.Topology, faults *grid.PointSet, cfg Config) (*Field, error) {
	if faults == nil {
		faults = grid.NewPointSet()
	}
	env, err := simnet.NewEnv(topo, faults.Clone(), nil)
	if err != nil {
		return nil, err
	}
	f := &Field{cfg: cfg, topo: topo, faults: env.Faulty}
	// Both full runs share one worker pool. Deltas never fan out, so the
	// pool is released before New returns.
	bands := cfg.Workers
	if bands <= 0 {
		bands = runtime.GOMAXPROCS(0)
	}
	var pool *simnet.WorkerPool
	if bands = min(bands, topo.Height()); bands > 1 {
		pool = simnet.NewWorkerPool(bands)
		defer pool.Close()
	}
	p1, err := f.runFull(env, status.UnsafeRule(cfg.Safety), "phase1", pool)
	if err != nil {
		return nil, fmt.Errorf("incremental: phase 1: %w", err)
	}
	env2, err := simnet.NewEnv(topo, f.faults, p1.Labels)
	if err != nil {
		return nil, err
	}
	p2, err := f.runFull(env2, status.EnabledRule(), "phase2", pool)
	if err != nil {
		return nil, fmt.Errorf("incremental: phase 2: %w", err)
	}
	f.rounds1, f.rounds2 = p1.Rounds, p2.Rounds
	if err := f.adopt(env, p1.Labels, p2.Labels); err != nil {
		return nil, err
	}
	return f, nil
}

// Load returns a Field wrapped around an already-computed fixpoint:
// the label vectors of a finished formation (a Session snapshot, a
// serialized tenant) are adopted as-is instead of re-running both
// fixpoints, so restoring a large session costs one O(n) validation and
// region extraction rather than a full formation. The labels must be
// the fixpoint of a formation on exactly the given fault set; Load
// rejects label vectors that violate the cheap structural invariants
// (faulty nodes must be unsafe and disabled, safe nodes enabled), and
// the serving differential tests pin the rest byte-for-byte. faults and
// both label slices are cloned, not retained. The initial round counts
// are unknown to a restored field and report as zero.
func Load(topo *mesh.Topology, faults *grid.PointSet, cfg Config, unsafe, enabled []bool) (*Field, error) {
	if faults == nil {
		faults = grid.NewPointSet()
	}
	if len(unsafe) != topo.Size() || len(enabled) != topo.Size() {
		return nil, fmt.Errorf("incremental: load: label lengths %d/%d, want %d", len(unsafe), len(enabled), topo.Size())
	}
	env, err := simnet.NewEnv(topo, faults.Clone(), nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < topo.Size(); i++ {
		p := topo.PointAt(i)
		switch {
		case env.Faulty.Has(p) && (!unsafe[i] || enabled[i]):
			return nil, fmt.Errorf("incremental: load: faulty node %v must be unsafe and disabled", p)
		case !unsafe[i] && !enabled[i]:
			return nil, fmt.Errorf("incremental: load: safe node %v must be enabled", p)
		}
	}
	f := &Field{cfg: cfg, topo: topo, faults: env.Faulty}
	if err := f.adopt(env, append([]bool(nil), unsafe...), append([]bool(nil), enabled...)); err != nil {
		return nil, err
	}
	return f, nil
}

// adopt installs a finished fixpoint as the field's state: both label
// fields (retained), their packed mirrors, and the extracted blocks and
// regions. env carries the field's fault set.
func (f *Field) adopt(env *simnet.Env, unsafe, enabled []bool) error {
	var err error
	if f.ubits, err = simnet.NewBitField(env, unsafe); err != nil {
		return err
	}
	if f.ebits, err = simnet.NewBitField(env, enabled); err != nil {
		return err
	}
	f.unsafe, f.enabled = unsafe, enabled
	f.blocks = region.FaultyBlocks(f.topo, f.faults, unsafe)
	f.regions = region.DisabledRegions(f.topo, f.faults, enabled, f.cfg.Connectivity)
	return nil
}

func (f *Field) genericOpts(phase string, pc *costs.Phase) simnet.GenericOptions[bool] {
	return simnet.GenericOptions[bool]{MaxRounds: f.cfg.MaxRounds, Recorder: f.cfg.Recorder, Phase: phase, Costs: pc}
}

// newPhase returns the per-phase cost collector (nil without a fabric).
// Delta collectors carry no per-node tracker — the frontier engine does
// its shrinkage check on the sorted change list — so they stay
// allocation-light on the churn hot path.
func (f *Field) newPhase(phase string) *costs.Phase {
	return costs.NewPhase(f.cfg.Costs, phase, 0)
}

// runFull computes one full synchronous fixpoint on the bitset engine,
// fanning its row bands out over pool (nil runs a single band inline or
// on a private pool).
func (f *Field) runFull(env *simnet.Env, rule simnet.Rule, phase string, pool *simnet.WorkerPool) (*simnet.GenericResult[bool], error) {
	pc := f.newPhase(phase)
	opt := f.genericOpts(phase, pc)
	opt.Pool = pool
	res, err := simnet.RunBitsetGeneric(env, rule, opt, f.cfg.Workers)
	if err != nil {
		return nil, err
	}
	pc.Finish()
	return res, nil
}

// runFrontier restabilizes the packed labels bits from the given seed
// over the word-granularity frontier, then re-syncs the []bool mirror
// labels from the changed set, keeping both views identical in
// O(changed).
func (f *Field) runFrontier(env *simnet.Env, rule simnet.Rule, labels []bool, bits *simnet.BitField, seed []int, phase string) (*simnet.FrontierResult, error) {
	pc := f.newPhase(phase)
	res, err := simnet.RunBitsetFrontier(env, rule, bits, seed, f.genericOpts(phase, pc))
	if err != nil {
		return nil, err
	}
	for _, i := range res.Changed {
		labels[i] = bits.Label(i)
	}
	pc.Finish()
	if f.cfg.Strict && pc.Violations() > 0 {
		return nil, fmt.Errorf("incremental: %d frontier_shrink invariant violation(s) in %s", pc.Violations(), phase)
	}
	return res, nil
}

// setUnsafe / setEnabled write one label to the []bool field and its
// packed mirror (which also lands the word in the mirror's dirty set for
// the next run's worklist).
func (f *Field) setUnsafe(i int, v bool) {
	f.unsafe[i] = v
	f.ubits.SetLabel(i, v)
}

func (f *Field) setEnabled(i int, v bool) {
	f.enabled[i] = v
	f.ebits.SetLabel(i, v)
}

// setFault flips node i's liveness in both packed mirrors (faulty lanes
// are pinned at their current label).
func (f *Field) setFault(i int, faulty bool) {
	f.ubits.SetLive(i, !faulty)
	f.ebits.SetLive(i, !faulty)
}

// Topo returns the machine.
func (f *Field) Topo() *mesh.Topology { return f.topo }

// Config returns the field's configuration.
func (f *Field) Config() Config { return f.cfg }

// Faults returns the current fault set. The caller must not mutate it.
func (f *Field) Faults() *grid.PointSet { return f.faults }

// Unsafe returns the current phase-1 label field. Read-only.
func (f *Field) Unsafe() []bool { return f.unsafe }

// Enabled returns the current phase-2 label field. Read-only.
func (f *Field) Enabled() []bool { return f.enabled }

// Blocks returns the current faulty blocks in canonical order. Read-only.
func (f *Field) Blocks() []*region.Region { return f.blocks }

// Regions returns the current disabled regions in canonical order.
// Read-only.
func (f *Field) Regions() []*region.Region { return f.regions }

// InitialRounds returns the round counts of the initial full formation.
func (f *Field) InitialRounds() (phase1, phase2 int) { return f.rounds1, f.rounds2 }

// Add marks the given nodes faulty and restabilizes both label fields by
// frontier propagation: new faults become unsafe immediately and the
// unsafe closure grows monotonically outward from their neighborhoods,
// after which the affected blocks' enabled labels are recomputed
// locally. Points already faulty are skipped; points outside the machine
// are an error, reported before anything is mutated.
func (f *Field) Add(ps ...grid.Point) (Delta, error) {
	var added []grid.Point
	for _, p := range ps {
		if !f.topo.Contains(p) {
			return Delta{}, fmt.Errorf("incremental: fault %v outside %v", p, f.topo)
		}
		if !f.faults.Has(p) {
			added = append(added, p)
		}
	}
	d := Delta{Op: "add", Points: len(added)}
	if len(added) == 0 {
		return d, nil
	}
	start := f.startDelta()

	for _, p := range added {
		f.faults.Add(p)
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}

	// Phase 1: pin the new faults unsafe and propagate from their
	// neighborhoods. Existing labels are the old fixpoint, which sits at
	// or below the new one (the rule is monotone in the fault set).
	touched1 := grid.NewPointSet()
	seed := f.seed[:0]
	for _, p := range added {
		touched1.Add(p)
		i := f.topo.Index(p)
		if !f.unsafe[i] {
			f.setUnsafe(i, true)
			d.ChangedPhase1++
		}
		f.setFault(i, true)
		for _, q := range f.topo.Neighbors(p) {
			if !f.faults.Has(q) {
				seed = append(seed, f.topo.Index(q))
			}
		}
	}
	f.seed = seed
	d.Frontier = len(seed)
	fr1, err := f.runFrontier(env, status.UnsafeRule(f.cfg.Safety), f.unsafe, f.ubits, seed, "phase1")
	if err != nil {
		return Delta{}, fmt.Errorf("incremental: phase 1: %w", err)
	}
	d.RoundsPhase1 = fr1.Rounds
	d.ChangedPhase1 += len(fr1.Changed)
	for _, i := range fr1.Changed {
		touched1.Add(f.topo.PointAt(i))
	}

	// Phase 2: every enabled label the delta can affect lies in the
	// footprints of the blocks the touched nodes now belong to. Reset
	// those footprints to their initial labels (all footprint nodes are
	// unsafe, hence initially disabled) and re-derive locally; the
	// surrounding safe nodes are enabled and never change.
	area := f.unsafeArea(touched1)
	d.ChangedPhase2, d.RoundsPhase2, err = f.recomputeEnabled(area)
	if err != nil {
		return Delta{}, err
	}

	f.blocks = region.UpdateRegions(f.topo, f.faults, f.unsafe, true, region.Conn4, f.blocks, touched1)
	f.regions = region.UpdateRegions(f.topo, f.faults, f.enabled, false, f.cfg.Connectivity, f.regions, area)
	f.observe(d, start)
	return d, nil
}

// Remove clears the given faults and restabilizes both label fields by
// resetting the affected blocks' footprints to their initial labels and
// re-iterating inside them (the closure of the remaining faults can
// never escape the old footprint, and unaffected blocks depend only on
// their own faults). Points not currently faulty are skipped; points
// outside the machine are an error, reported before anything is mutated.
func (f *Field) Remove(ps ...grid.Point) (Delta, error) {
	var removed []grid.Point
	for _, p := range ps {
		if !f.topo.Contains(p) {
			return Delta{}, fmt.Errorf("incremental: fault %v outside %v", p, f.topo)
		}
		if f.faults.Has(p) {
			removed = append(removed, p)
		}
	}
	d := Delta{Op: "remove", Points: len(removed)}
	if len(removed) == 0 {
		return d, nil
	}
	start := f.startDelta()

	// The affected area: the full footprints of the blocks the removed
	// faults belong to, computed on the labels before the removal.
	area := f.unsafeArea(grid.PointSetOf(removed...))
	for _, p := range removed {
		f.faults.Remove(p)
		f.setFault(f.topo.Index(p), false)
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}

	// Phase 1: reset the footprints to their initial labels (remaining
	// faults unsafe, everything else safe) and recompute the closure of
	// the remaining faults inside.
	seed := f.seed[:0]
	area.Each(func(p grid.Point) {
		i := f.topo.Index(p)
		now := f.faults.Has(p)
		if f.unsafe[i] != now {
			f.setUnsafe(i, now)
			d.ChangedPhase1++ // provisional; corrected after the fixpoint below
		}
		if !now {
			seed = append(seed, i)
		}
	})
	f.seed = seed
	d.Frontier = len(seed)
	fr1, err := f.runFrontier(env, status.UnsafeRule(f.cfg.Safety), f.unsafe, f.ubits, seed, "phase1")
	if err != nil {
		return Delta{}, fmt.Errorf("incremental: phase 1: %w", err)
	}
	d.RoundsPhase1 = fr1.Rounds
	// Nodes re-derived unsafe by the fixpoint were reset for nothing:
	// they end where they started, so they are not net changes.
	d.ChangedPhase1 -= len(fr1.Changed)

	d.ChangedPhase2, d.RoundsPhase2, err = f.recomputeEnabled(area)
	if err != nil {
		return Delta{}, err
	}

	f.blocks = region.UpdateRegions(f.topo, f.faults, f.unsafe, true, region.Conn4, f.blocks, area)
	f.regions = region.UpdateRegions(f.topo, f.faults, f.enabled, false, f.cfg.Connectivity, f.regions, area)
	f.observe(d, start)
	return d, nil
}

// unsafeArea returns the union of the footprints of the unsafe
// components (faulty blocks) the touched nodes belong to — every node
// whose phase-2 label the delta could possibly affect, plus the touched
// nodes themselves (some of which may have just turned safe).
func (f *Field) unsafeArea(touched *grid.PointSet) *grid.PointSet {
	area := grid.NewPointSet()
	var queue, nbrs []grid.Point
	for _, p := range touched.Points() {
		if area.Add(p) && f.unsafe[f.topo.Index(p)] {
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		nbrs = f.topo.AppendNeighbors(p, nbrs[:0])
		for _, q := range nbrs {
			if f.unsafe[f.topo.Index(q)] && area.Add(q) {
				queue = append(queue, q)
			}
		}
	}
	return area
}

// recomputeEnabled resets the enabled labels of the given area to their
// initial values (enabled iff safe) and re-derives the phase-2 fixpoint
// inside it. It returns the number of labels that settled differently
// than before the reset and the frontier rounds used.
func (f *Field) recomputeEnabled(area *grid.PointSet) (changed, rounds int, err error) {
	// The frontier engines canonicalize wave order internally, so the
	// unordered area walk is fine; pts and before pair up by position.
	pts := f.areaPts[:0]
	before := f.areaBefore[:0]
	seed := f.seed[:0]
	area.Each(func(p grid.Point) {
		i := f.topo.Index(p)
		pts = append(pts, p)
		before = append(before, f.enabled[i])
		f.setEnabled(i, !f.unsafe[i]) // init: safe => enabled (faulty nodes are unsafe)
		if !f.faults.Has(p) {
			seed = append(seed, i)
		}
	})
	f.areaPts, f.areaBefore, f.seed = pts, before, seed
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults, Aux: f.unsafe}
	fr, err := f.runFrontier(env, status.EnabledRule(), f.enabled, f.ebits, seed, "phase2")
	if err != nil {
		return 0, 0, fmt.Errorf("incremental: phase 2: %w", err)
	}
	for k, p := range pts {
		if f.enabled[f.topo.Index(p)] != before[k] {
			changed++
		}
	}
	return changed, fr.Rounds, nil
}

func (f *Field) startDelta() obs.Span {
	return f.cfg.Recorder.StartSpan("incremental_delta")
}

// observe emits the per-delta trace event and metrics. Nil-safe.
func (f *Field) observe(d Delta, span obs.Span) {
	f.cfg.Costs.Add(0, costs.KindDeltas, 1)
	rec := f.cfg.Recorder
	if rec == nil {
		return
	}
	dur := span.End()
	rec.Emit(obs.Event{
		Type: obs.EDelta, Name: d.Op, N: d.Points, Frontier: d.Frontier,
		Rounds: d.Rounds(), Changed: d.ChangedPhase1 + d.ChangedPhase2,
		DurNS: dur.Nanoseconds(),
	})
	rec.Counter("incremental_deltas").Inc()
	rec.Histogram("incremental_frontier", nil).Observe(float64(d.Frontier))
	rec.Histogram("incremental_delta_rounds", nil).Observe(float64(d.Rounds()))
}
