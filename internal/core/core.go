// Package core is the public API of the repository: the paper's two-phase
// distributed formation of orthogonal convex polygons from rectangular
// faulty blocks.
//
// Given a machine and a fault pattern, Form runs
//
//	phase 1  safe/unsafe labeling      (Definition 2a or 2b)
//	phase 2  enabled/disabled labeling (Definition 3)
//
// to their synchronous fixpoints and extracts the faulty blocks
// (rectangles of unsafe nodes) and the disabled regions (orthogonal
// convex polygons of disabled nodes). Both phases can run on the
// deterministic sequential engine, the faithful goroutine-per-node
// channel engine, or the word-parallel bitset engine; all produce
// identical results.
//
// A minimal use:
//
//	cfg := core.Config{Width: 100, Height: 100}
//	res, err := core.Form(cfg, faults)
//	// res.Blocks, res.Regions, res.RoundsPhase1, res.RoundsPhase2 ...
package core

import (
	"fmt"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/region"
	"ocpmesh/internal/simnet"
	"ocpmesh/internal/status"
)

// EngineKind selects the fixpoint engine.
type EngineKind int

const (
	// EngineSequential is the fast deterministic double-buffered engine.
	EngineSequential EngineKind = iota
	// EngineChannels is the distributed simulation: one goroutine per
	// nonfaulty node, channels for links, lock-step rounds.
	EngineChannels
	// EngineBitset is the bit-packed word-parallel (SWAR) engine: labels
	// live 64 per uint64 word and each round advances whole words with
	// shift/mask operations, with a changed-word frontier so late rounds
	// touch only words still moving. Results are identical to
	// EngineSequential.
	EngineBitset
)

// String returns the engine name.
func (e EngineKind) String() string {
	switch e {
	case EngineChannels:
		return "channels"
	case EngineBitset:
		return "bitset"
	default:
		return "sequential"
	}
}

func (e EngineKind) engine() simnet.Engine {
	switch e {
	case EngineChannels:
		return simnet.Channels()
	case EngineBitset:
		return simnet.Bitset()
	default:
		return simnet.Sequential()
	}
}

// Config describes a formation run. The zero value of every field other
// than Width/Height is a sensible default: bounded mesh, Definition 2b,
// 8-connected region grouping, sequential engine.
type Config struct {
	// Width and Height are the machine dimensions (required, positive).
	Width, Height int
	// Kind selects mesh or torus.
	Kind mesh.Kind
	// Safety selects the phase-1 definition (Def2a or Def2b).
	Safety status.SafetyDef
	// Connectivity selects region grouping; the paper's convention is
	// Conn8 (corner-touching disabled nodes share a region).
	Connectivity region.Connectivity
	// Engine selects Form's fixpoint engine. A Session ignores it: its
	// formation and deltas always run on the bitset engine.
	Engine EngineKind
	// Workers is a no-op kept so existing callers still compile: the
	// bitset engine forms on the calling goroutine.
	Workers int
	// MaxRounds bounds each phase (0 = automatic safe bound).
	MaxRounds int
	// Recorder, when non-nil, traces the run (phase_start / round /
	// phase_end events) and records phase-round and region-count
	// metrics. Nil disables observability at no cost.
	Recorder *obs.Recorder
	// Costs, when non-nil, turns on the convergence observatory: the
	// run's distributed costs (rounds, messages, label flips, words
	// touched) are accumulated into the fabric, the paper-invariant
	// monitors run over the finished formation, and — with a Recorder —
	// per-phase "costs", per-block "block_converge" and any
	// "invariant_violation" events land in the trace. Independent of
	// Recorder; nil disables all of it at no cost.
	Costs *costs.Fabric
	// StrictInvariants turns invariant-monitor violations into an error
	// from Form (the CI mode). With a nil Costs fabric, a private one is
	// created so the monitors still run.
	StrictInvariants bool
}

// Result is the outcome of a formation run.
type Result struct {
	// Topo is the machine the run used.
	Topo *mesh.Topology
	// Faults is the input fault pattern.
	Faults *grid.PointSet
	// Unsafe holds the phase-1 fixpoint: Unsafe[Topo.Index(p)] reports
	// whether p is unsafe.
	Unsafe []bool
	// Enabled holds the phase-2 fixpoint: Enabled[Topo.Index(p)] reports
	// whether p is enabled (participates in routing).
	Enabled []bool
	// Blocks are the faulty blocks: rectangles of connected unsafe nodes.
	Blocks []*region.Region
	// Regions are the disabled regions: the orthogonal convex polygons
	// left disabled after phase 2.
	Regions []*region.Region
	// RoundsPhase1 and RoundsPhase2 count the message-exchange rounds in
	// which some status changed — the cost metric of the paper's
	// Figure 5(a)/(b).
	RoundsPhase1, RoundsPhase2 int
}

// Form runs the two-phase formation for the given fault list.
func Form(cfg Config, faults []grid.Point) (*Result, error) {
	return FormSet(cfg, grid.PointSetOf(faults...))
}

// FormSet is Form for a prebuilt fault set. The set is not retained or
// mutated.
func FormSet(cfg Config, faults *grid.PointSet) (*Result, error) {
	topo, err := mesh.New(cfg.Width, cfg.Height, cfg.Kind)
	if err != nil {
		return nil, err
	}
	return FormOn(cfg, topo, faults)
}

// FormOn runs the two-phase formation on an existing topology.
func FormOn(cfg Config, topo *mesh.Topology, faults *grid.PointSet) (*Result, error) {
	if faults == nil {
		faults = grid.NewPointSet()
	}
	env, err := simnet.NewEnv(topo, faults.Clone(), nil)
	if err != nil {
		return nil, err
	}
	eng := cfg.Engine.engine()
	rec := cfg.Recorder
	fabric := cfg.Costs
	if cfg.StrictInvariants && fabric == nil {
		fabric = costs.NewFabric(1)
	}
	var pc1, pc2 *costs.Phase
	if fabric != nil {
		// The per-node trackers feed the monotonicity monitors and the
		// per-block convergence attribution.
		pc1 = costs.NewPhase(fabric, "phase1", topo.Size())
		pc2 = costs.NewPhase(fabric, "phase2", topo.Size())
	}

	p1, err := runPhase(rec, cfg, eng, env, "phase1", status.UnsafeRule(cfg.Safety), pc1)
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}
	env2, err := simnet.NewEnv(topo, env.Faulty, p1.Labels)
	if err != nil {
		return nil, err
	}
	p2, err := runPhase(rec, cfg, eng, env2, "phase2", status.EnabledRule(), pc2)
	if err != nil {
		return nil, fmt.Errorf("core: phase 2: %w", err)
	}

	res := &Result{
		Topo:         topo,
		Faults:       env.Faulty,
		Unsafe:       p1.Labels,
		Enabled:      p2.Labels,
		Blocks:       region.FaultyBlocks(topo, env.Faulty, p1.Labels),
		Regions:      region.DisabledRegions(topo, env.Faulty, p2.Labels, cfg.Connectivity),
		RoundsPhase1: p1.Rounds,
		RoundsPhase2: p2.Rounds,
	}
	if rec != nil {
		rec.Counter("core_forms").Inc()
		rec.Histogram("core_blocks", nil).Observe(float64(len(res.Blocks)))
		rec.Histogram("core_regions", nil).Observe(float64(len(res.Regions)))
		rec.Histogram("core_disabled_nonfaulty", nil).Observe(float64(res.DisabledNonfaultyCount()))
	}
	if fabric != nil {
		if violations := monitorForm(rec, fabric, eng.Name(), res, pc1, pc2); len(violations) > 0 && cfg.StrictInvariants {
			return nil, violationError(violations)
		}
	}
	return res, nil
}

// runPhase runs one fixpoint phase with phase_start/phase_end trace
// events around the engine's per-round stream and a rounds histogram
// per phase. With a nil recorder it is exactly the bare engine run (plus
// cost accounting when a collector is attached).
func runPhase(rec *obs.Recorder, cfg Config, eng simnet.Engine, env *simnet.Env, phase string, rule simnet.Rule, pc *costs.Phase) (*simnet.Result, error) {
	opts := simnet.Options{MaxRounds: cfg.MaxRounds, Recorder: rec, Phase: phase, Costs: pc}
	if rec == nil {
		return eng.Run(env, rule, opts)
	}
	rec.Emit(obs.Event{Type: obs.EPhaseStart, Phase: phase, Engine: eng.Name(), Rule: rule.Name()})
	start := rec.Now()
	res, err := eng.Run(env, rule, opts)
	dur := rec.Now().Sub(start)
	if err != nil {
		// Close the phase even on failure so every phase_start has a
		// matching phase_end and trace consumers see the error in place,
		// then push the buffered trace to disk: a caller aborting (or a
		// process dying) on this error must still leave valid NDJSON
		// behind. The flush error is dropped like other trace I/O errors
		// — the engine failure is the one the caller needs.
		rec.Emit(obs.Event{Type: obs.EPhaseEnd, Phase: phase, DurNS: dur.Nanoseconds(), Err: err.Error()})
		_ = rec.Flush()
		return nil, err
	}
	rec.Emit(obs.Event{Type: obs.EPhaseEnd, Phase: phase, Rounds: res.Rounds, DurNS: dur.Nanoseconds()})
	rec.Histogram("core_"+phase+"_rounds", nil).Observe(float64(res.Rounds))
	rec.Histogram("core_"+phase+"_ns", obs.NSBuckets).Observe(float64(dur.Nanoseconds()))
	return res, nil
}

// Topology returns the machine.
func (r *Result) Topology() *mesh.Topology { return r.Topo }

// IsFaulty reports whether p is faulty.
func (r *Result) IsFaulty(p grid.Point) bool { return r.Faults.Has(p) }

// IsUnsafe reports whether p is unsafe (phase 1).
func (r *Result) IsUnsafe(p grid.Point) bool { return r.Unsafe[r.Topo.Index(p)] }

// IsEnabled reports whether p is enabled (phase 2); only enabled nodes
// participate in routing.
func (r *Result) IsEnabled(p grid.Point) bool { return r.Enabled[r.Topo.Index(p)] }

// UnsafeNonfaultyCount returns the number of nonfaulty nodes labeled
// unsafe — the nodes a pure faulty-block fault model would sacrifice.
func (r *Result) UnsafeNonfaultyCount() int {
	n := 0
	for i, u := range r.Unsafe {
		if u && !r.Faults.Has(r.Topo.PointAt(i)) {
			n++
		}
	}
	return n
}

// EnabledUnsafeCount returns how many of those sacrificed nodes the
// enabled/disabled rule reactivates.
func (r *Result) EnabledUnsafeCount() int {
	n := 0
	for i, u := range r.Unsafe {
		if u && r.Enabled[i] {
			n++
		}
	}
	return n
}

// EnabledRatio returns EnabledUnsafeCount / UnsafeNonfaultyCount, the
// effectiveness metric of the paper's Figure 5(c)/(d). ok is false when
// no nonfaulty node was unsafe (the ratio is undefined; the paper only
// averages over configurations where a faulty block can be reduced).
func (r *Result) EnabledRatio() (ratio float64, ok bool) {
	denom := r.UnsafeNonfaultyCount()
	if denom == 0 {
		return 0, false
	}
	return float64(r.EnabledUnsafeCount()) / float64(denom), true
}

// DisabledNonfaultyCount returns the number of nonfaulty nodes that stay
// disabled — the residual cost after the reduction.
func (r *Result) DisabledNonfaultyCount() int {
	return r.UnsafeNonfaultyCount() - r.EnabledUnsafeCount()
}

// MaxBlockDiameter returns max d(B) over the faulty blocks, the paper's
// bound on the rounds needed by both phases.
func (r *Result) MaxBlockDiameter() int {
	m := 0
	for _, b := range r.Blocks {
		if d := b.Diameter(); d > m {
			m = d
		}
	}
	return m
}

// Validate re-checks every structural invariant the paper proves about
// the result. It is used by the test suite and by examples to demonstrate
// the theorems on live data; production callers normally skip it. On a
// torus the geometric checks run on seam-unwrapped copies of each block
// and region; a region that wraps a full ring in both dimensions (no
// planar embedding) is skipped, and block distances use the wraparound
// metric.
func (r *Result) Validate(safety status.SafetyDef) error {
	minDist := 2
	if safety == status.Def2a {
		minDist = 3
	}
	switch r.Topo.Kind() {
	case mesh.Mesh2D:
		if err := region.CheckBlockInvariants(r.Blocks, minDist); err != nil {
			return err
		}
		if err := region.CheckDisabledRegionInvariants(r.Regions); err != nil {
			return err
		}
		if err := region.CheckRegionsInsideBlocks(r.Regions, r.Blocks); err != nil {
			return err
		}
	case mesh.Torus2D:
		for _, b := range r.Blocks {
			flat, ok := region.UnwrapRegion(r.Topo, b)
			if !ok {
				continue // wraps both dimensions; no planar embedding
			}
			if err := region.CheckBlockInvariants([]*region.Region{flat}, minDist); err != nil {
				return err
			}
		}
		for i := 0; i < len(r.Blocks); i++ {
			for j := i + 1; j < len(r.Blocks); j++ {
				if d := torusSetDist(r.Topo, r.Blocks[i].Nodes(), r.Blocks[j].Nodes()); d < minDist {
					return fmt.Errorf("core: torus blocks %d and %d at distance %d < %d", i, j, d, minDist)
				}
			}
		}
		for _, reg := range r.Regions {
			flat, ok := region.UnwrapRegion(r.Topo, reg)
			if !ok {
				continue
			}
			if err := region.CheckDisabledRegionInvariants([]*region.Region{flat}); err != nil {
				return err
			}
		}
		if err := region.CheckRegionsInsideBlocks(r.Regions, r.Blocks); err != nil {
			return err
		}
	}
	for i := range r.Unsafe {
		p := r.Topo.PointAt(i)
		switch {
		case r.Faults.Has(p) && (!r.Unsafe[i] || r.Enabled[i]):
			return fmt.Errorf("core: faulty node %v must be unsafe and disabled", p)
		case !r.Unsafe[i] && !r.Enabled[i]:
			return fmt.Errorf("core: safe node %v must be enabled", p)
		}
	}
	return nil
}

// torusSetDist returns the minimum wraparound distance between two node
// sets.
func torusSetDist(topo *mesh.Topology, a, b *grid.PointSet) int {
	best := topo.Diameter() + 1
	for _, p := range a.Points() {
		for _, q := range b.Points() {
			if d := topo.Dist(p, q); d < best {
				best = d
			}
		}
	}
	return best
}
