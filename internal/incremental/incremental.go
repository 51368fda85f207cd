// Package incremental maintains the paper's two-phase formation result
// under fault churn: instead of recomputing both fixpoints over the
// whole mesh on every change, a Field applies fault deltas by seeding a
// dirty frontier from the changed nodes and re-iterating only over the
// frontier's closure (simnet.RunBitsetFrontier over persistent packed
// label planes), then relabels only the touched faulty blocks and
// disabled regions (region.Builder.UpdateRegions).
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
	"math/bits"

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
	cfg     Config
	topo    *mesh.Topology
	faults  *grid.PointSet
	blocks  []*region.Region
	regions []*region.Region

	// The packed unsafe and enabled label planes plus per-lane liveness;
	// deltas run the word-granularity frontier over them. fbits is the
	// fault plane, whose written words fwritten records as the label
	// planes' BitFields do theirs, and rb floods blocks and regions over
	// the planes.
	ubits, ebits *simnet.BitField
	fbits        *grid.BitGrid
	fwritten     *grid.WordSet
	rb           *region.Builder

	// rounds of the initial full formation (reported by Session.Result
	// until the first delta).
	rounds1, rounds2 int

	// Per-delta scratch reused across Add/Remove calls (a Field is
	// single-threaded): the points a delta applies, the touched cells,
	// the affected area and its words, plus an add's frontier seed list.
	applied       []grid.Point
	touched, area []region.Run
	words         []areaWord
	seed          []int
}

// areaWord is one word of an area run: its index in the packed planes,
// the run's lanes in it, and the enabled word before a phase-2 reset.
type areaWord struct {
	wi        int
	m, before uint64
}

// New computes a full formation on topo for the given fault set and
// returns the field tracking it. faults is cloned, not retained. Both
// phases form on the word path (simnet.InitBitField, RunBitsetFull)
// and the field keeps the planes they formed.
func New(topo *mesh.Topology, faults *grid.PointSet, cfg Config) (*Field, error) {
	if faults == nil {
		faults = grid.NewPointSet()
	}
	env, err := simnet.NewEnv(topo, faults.Clone(), nil)
	if err != nil {
		return nil, err
	}
	f := &Field{cfg: cfg, topo: topo, faults: env.Faulty}
	ubits, rounds1, err := f.form(env, status.UnsafeRule(cfg.Safety), "phase1")
	if err != nil {
		return nil, fmt.Errorf("incremental: phase 1: %w", err)
	}
	env2 := &simnet.Env{Topo: topo, Faulty: f.faults, Aux: ubits.Labels()}
	ebits, rounds2, err := f.form(env2, status.EnabledRule(), "phase2")
	if err != nil {
		return nil, fmt.Errorf("incremental: phase 2: %w", err)
	}
	f.rounds1, f.rounds2 = rounds1, rounds2
	f.adopt(ubits, ebits)
	return f, nil
}

// Load returns a Field wrapped around an already-computed fixpoint:
// the packed label planes of a finished formation (a Session snapshot,
// a serialized tenant) are adopted as-is instead of re-running both
// fixpoints, so restoring a large session costs one word pass of
// validation and region extraction rather than a full formation. The
// planes must be the fixpoint of a formation on exactly the given fault
// set; Load rejects planes that violate the cheap structural invariants
// (faulty nodes unsafe and disabled, safe nodes enabled), and the
// serving differential tests pin the rest byte-for-byte. faults and both planes are cloned, not retained. The
// initial round counts are unknown to a restored field and report as
// zero.
func Load(topo *mesh.Topology, faults *grid.PointSet, cfg Config, unsafe, enabled *grid.BitGrid) (*Field, error) {
	if faults == nil {
		faults = grid.NewPointSet()
	}
	for _, g := range []*grid.BitGrid{unsafe, enabled} {
		if g.Width() != topo.Width() || g.Height() != topo.Height() {
			return nil, fmt.Errorf("incremental: load: label plane is %dx%d, want %dx%d", g.Width(), g.Height(), topo.Width(), topo.Height())
		}
	}
	env, err := simnet.NewEnv(topo, faults.Clone(), nil)
	if err != nil {
		return nil, err
	}
	u, e, wpr := unsafe.Words(), enabled.Words(), unsafe.WordsPerRow()
	for wi := range u {
		if bad := ^(u[wi] | e[wi]) & unsafe.WordMask(wi%wpr); bad != 0 {
			x := 64*(wi%wpr) + bits.TrailingZeros64(bad)
			return nil, fmt.Errorf("incremental: load: safe node %v must be enabled", grid.Pt(x, wi/wpr))
		}
	}
	for _, p := range env.Faulty.Points() {
		if !unsafe.Get(p.X, p.Y) || enabled.Get(p.X, p.Y) {
			return nil, fmt.Errorf("incremental: load: faulty node %v must be unsafe and disabled", p)
		}
	}
	f := &Field{cfg: cfg, topo: topo, faults: env.Faulty}
	ubits, err := simnet.NewBitField(env, unsafe.Clone())
	if err != nil {
		return nil, err
	}
	ebits, err := simnet.NewBitField(env, enabled.Clone())
	if err != nil {
		return nil, err
	}
	f.adopt(ubits, ebits)
	return f, nil
}

// adopt installs a finished fixpoint as the field's state: both packed
// label fields (retained), the fault plane, and the blocks and regions
// extracted from them.
func (f *Field) adopt(ubits, ebits *simnet.BitField) {
	f.ubits, f.ebits = ubits, ebits
	f.fbits = grid.NewBitGrid(f.topo.Width(), f.topo.Height())
	f.faults.Each(func(p grid.Point) { f.fbits.Set(p.X, p.Y, true) })
	f.fwritten = grid.NewWordSet(len(f.fbits.Words()))
	f.fbits.Track(f.fwritten)
	f.rb = region.NewBuilder(f.topo, f.fbits)
	f.blocks = f.rb.Build(ubits.Labels(), true, region.Conn4, nil)
	f.regions = f.rb.Build(ebits.Labels(), false, f.cfg.Connectivity, nil)
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

// form computes one full synchronous fixpoint on the word path: the
// round-0 plane built a word at a time, then the all-words wave loop.
func (f *Field) form(env *simnet.Env, rule simnet.Rule, phase string) (*simnet.BitField, int, error) {
	bits, err := simnet.InitBitField(env, rule)
	if err != nil {
		return nil, 0, err
	}
	pc := f.newPhase(phase)
	rounds, err := simnet.RunBitsetFull(env, rule, bits, f.genericOpts(phase, pc))
	if err != nil {
		return nil, 0, err
	}
	pc.Finish()
	return bits, rounds, nil
}

// runFrontier restabilizes the packed labels bits from the given seed
// over the word-granularity frontier.
func (f *Field) runFrontier(env *simnet.Env, rule simnet.Rule, bits *simnet.BitField, seed []int, phase string) (*simnet.FrontierResult, error) {
	pc := f.newPhase(phase)
	res, err := simnet.RunBitsetFrontier(env, rule, bits, seed, f.genericOpts(phase, pc))
	if err != nil {
		return nil, err
	}
	pc.Finish()
	if f.cfg.Strict && pc.Violations() > 0 {
		return nil, fmt.Errorf("incremental: %d frontier_shrink invariant violation(s) in %s", pc.Violations(), phase)
	}
	return res, nil
}

// setFault flips node i's liveness in both packed planes (faulty lanes
// are pinned at their current label) and its bit in the fault plane.
func (f *Field) setFault(i int, faulty bool) {
	f.ubits.SetLive(i, !faulty)
	f.ebits.SetLive(i, !faulty)
	f.fbits.Set(i%f.topo.Width(), i/f.topo.Width(), faulty)
}

// cell returns p as a one-cell run.
func cell(p grid.Point) region.Run { return region.Run{Y: p.Y, Lo: p.X, Hi: p.X} }

// areaWords returns the words the area scratch covers, one entry per
// run and word.
func (f *Field) areaWords() []areaWord {
	f.words = f.words[:0]
	wpr := f.fbits.WordsPerRow()
	for _, run := range f.area {
		for k := run.Lo / 64; k <= run.Hi/64; k++ {
			f.words = append(f.words, areaWord{wi: run.Y*wpr + k, m: run.Lanes(k)})
		}
	}
	return f.words
}

// Topo returns the machine.
func (f *Field) Topo() *mesh.Topology { return f.topo }

// Config returns the field's configuration.
func (f *Field) Config() Config { return f.cfg }

// Faults returns the current fault set. The caller must not mutate it.
func (f *Field) Faults() *grid.PointSet { return f.faults }

// UnsafeBits and EnabledBits return the packed phase-1 and phase-2
// label planes (padding bits zero). Read-only, and mutated in place by
// the next delta: publishers copy what they keep.
func (f *Field) UnsafeBits() *grid.BitGrid  { return f.ubits.Labels() }
func (f *Field) EnabledBits() *grid.BitGrid { return f.ebits.Labels() }

// UnsafeWritten, EnabledWritten and FaultWritten return the words of
// each plane written since the last ClearWritten (for the label planes
// simnet.BitField.Written): every word whose value differs from what
// the last publish copied is listed. A publisher copies a new or loaded
// field's planes whole.
func (f *Field) UnsafeWritten() []int  { return f.ubits.Written() }
func (f *Field) EnabledWritten() []int { return f.ebits.Written() }
func (f *Field) FaultWritten() []int   { return f.fwritten.Members() }

// ClearWritten empties the three planes' written sets, once a publisher
// has copied what they name.
func (f *Field) ClearWritten() {
	f.ubits.ClearWritten()
	f.ebits.ClearWritten()
	f.fwritten.Clear()
}

// FaultBits returns the packed fault plane, kept in step with Faults.
// Read-only, and mutated in place by the next delta.
func (f *Field) FaultBits() *grid.BitGrid { return f.fbits }

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
	added := f.applied[:0]
	for _, p := range ps {
		if !f.topo.Contains(p) {
			return Delta{}, fmt.Errorf("incremental: fault %v outside %v", p, f.topo)
		}
		if !f.fbits.Get(p.X, p.Y) {
			added = append(added, p)
		}
	}
	f.applied = added
	d := Delta{Op: "add", Points: len(added)}
	if len(added) == 0 {
		return d, nil
	}
	start := f.startDelta()

	for _, p := range added {
		f.faults.Add(p)
		f.setFault(f.topo.Index(p), true)
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}

	// Phase 1: pin the new faults unsafe and propagate from their
	// neighborhoods. Existing labels are the old fixpoint, which sits at
	// or below the new one (the rule is monotone in the fault set).
	touched := f.touched[:0]
	seed := f.seed[:0]
	var nbrs [4]grid.Point
	for _, p := range added {
		touched = append(touched, cell(p))
		if !f.UnsafeBits().Get(p.X, p.Y) {
			f.ubits.SetLabel(f.topo.Index(p), true)
			d.ChangedPhase1++
		}
		for _, q := range f.topo.AppendNeighbors(p, nbrs[:0]) {
			if !f.fbits.Get(q.X, q.Y) {
				seed = append(seed, f.topo.Index(q))
			}
		}
	}
	f.seed = seed
	d.Frontier = len(seed)
	fr1, err := f.runFrontier(env, status.UnsafeRule(f.cfg.Safety), f.ubits, seed, "phase1")
	if err != nil {
		return Delta{}, fmt.Errorf("incremental: phase 1: %w", err)
	}
	d.RoundsPhase1 = fr1.Rounds
	d.ChangedPhase1 += len(fr1.Changed)
	// Changed is ascending, so each row's consecutive nodes join one run.
	for _, i := range fr1.Changed {
		p := f.topo.PointAt(i)
		if n := len(touched) - 1; touched[n].Y == p.Y && touched[n].Hi == p.X-1 {
			touched[n].Hi = p.X
		} else {
			touched = append(touched, cell(p))
		}
	}
	f.touched = touched

	// Phase 2: every enabled label the delta can affect lies in the
	// footprints of the blocks the touched nodes now belong to — the
	// fresh blocks of the block update. Reset those footprints to their
	// initial labels (all footprint nodes are unsafe, hence initially
	// disabled) and re-derive locally; the surrounding safe nodes are
	// enabled and never change.
	var fresh []*region.Region
	f.blocks, fresh = f.rb.UpdateRegions(f.ubits.Labels(), true, region.Conn4, f.blocks, touched)
	f.area = f.area[:0]
	for _, r := range fresh {
		f.area = append(f.area, r.Runs()...)
	}
	words := f.areaWords()
	d.ChangedPhase2, d.RoundsPhase2, err = f.recomputeEnabled(words)
	if err != nil {
		return Delta{}, err
	}

	f.regions, _ = f.rb.UpdateRegions(f.ebits.Labels(), false, f.cfg.Connectivity, f.regions, f.area)
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
	removed := f.applied[:0]
	for _, p := range ps {
		if !f.topo.Contains(p) {
			return Delta{}, fmt.Errorf("incremental: fault %v outside %v", p, f.topo)
		}
		if f.fbits.Get(p.X, p.Y) {
			removed = append(removed, p)
		}
	}
	f.applied = removed
	d := Delta{Op: "remove", Points: len(removed)}
	if len(removed) == 0 {
		return d, nil
	}
	start := f.startDelta()

	// The affected area: the full footprints of the blocks the removed
	// faults belong to, flooded on the labels before the removal.
	seeds := f.touched[:0]
	for _, p := range removed {
		seeds = append(seeds, cell(p))
	}
	f.touched = seeds
	f.area = f.rb.Area(f.ubits.Labels(), true, region.Conn4, seeds, f.area[:0])
	words := f.areaWords()
	for _, p := range removed {
		f.faults.Remove(p)
		f.setFault(f.topo.Index(p), false)
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}

	// Phase 1: reset the footprints to their initial labels (remaining
	// faults unsafe, everything else safe) a word at a time, seed every
	// nonfaulty footprint node, and recompute the closure of the
	// remaining faults inside. The changed count is provisional until
	// the fixpoint below corrects it.
	u, fw := f.UnsafeBits().Words(), f.fbits.Words()
	for _, a := range words {
		fault := fw[a.wi]
		d.ChangedPhase1 += bits.OnesCount64((u[a.wi] ^ fault) & a.m)
		d.Frontier += bits.OnesCount64(a.m &^ fault)
		f.ubits.SetWord(a.wi, a.m, fault)
		f.ubits.SeedLanes(a.wi, a.m&^fault)
	}
	fr1, err := f.runFrontier(env, status.UnsafeRule(f.cfg.Safety), f.ubits, nil, "phase1")
	if err != nil {
		return Delta{}, fmt.Errorf("incremental: phase 1: %w", err)
	}
	d.RoundsPhase1 = fr1.Rounds
	// Nodes re-derived unsafe by the fixpoint were reset for nothing:
	// they end where they started, so they are not net changes.
	d.ChangedPhase1 -= len(fr1.Changed)

	d.ChangedPhase2, d.RoundsPhase2, err = f.recomputeEnabled(words)
	if err != nil {
		return Delta{}, err
	}

	f.blocks, _ = f.rb.UpdateRegions(f.ubits.Labels(), true, region.Conn4, f.blocks, f.area)
	f.regions, _ = f.rb.UpdateRegions(f.ebits.Labels(), false, f.cfg.Connectivity, f.regions, f.area)
	f.observe(d, start)
	return d, nil
}

// recomputeEnabled resets the enabled labels of the given area words
// to their initial values (enabled iff safe) and re-derives the phase-2
// fixpoint inside them, seeded with every nonfaulty area node. It
// returns the number of labels that settled differently than before
// the reset and the frontier rounds used.
func (f *Field) recomputeEnabled(words []areaWord) (changed, rounds int, err error) {
	e, u, fw := f.EnabledBits().Words(), f.UnsafeBits().Words(), f.fbits.Words()
	for k := range words {
		a := &words[k]
		a.before = e[a.wi]
		f.ebits.SetWord(a.wi, a.m, ^u[a.wi])
		f.ebits.SeedLanes(a.wi, a.m&^fw[a.wi])
	}
	env := &simnet.Env{Topo: f.topo, Faulty: f.faults}
	fr, err := f.runFrontier(env, status.EnabledRule(), f.ebits, nil, "phase2")
	if err != nil {
		return 0, 0, fmt.Errorf("incremental: phase 2: %w", err)
	}
	for _, a := range words {
		changed += bits.OnesCount64((e[a.wi] ^ a.before) & a.m)
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
