package core

import (
	"fmt"
	"sync/atomic"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/incremental"
	"ocpmesh/internal/mesh"
)

// Delta summarizes one incremental fault delta applied to a Session.
type Delta = incremental.Delta

// Session keeps a formation result current under fault churn. Where
// Form recomputes both fixpoints over the whole mesh, a Session applies
// fault deltas by re-iterating only over the dirty frontier's closure
// and relabeling only the touched blocks and regions, at a cost
// proportional to the perturbation (see package incremental for the
// correctness argument). After every delta the session's state is
// bit-for-bit identical to a from-scratch formation on the current
// fault set.
type Session struct {
	cfg   Config
	field *incremental.Field
	// gen counts successfully applied deltas; read atomically, so index
	// maintainers on other goroutines can cheaply detect staleness.
	gen atomic.Uint64
	// onDelta hooks run synchronously on the mutating goroutine after
	// each successful delta, in registration order.
	onDelta []func(Delta)
}

// NewSession computes a full formation for the initial fault list and
// returns the session tracking it. A session always runs on the
// word-parallel bitset engine and ignores cfg.Engine: the initial
// formation fans out over cfg.Workers row bands (0 = GOMAXPROCS), and
// every delta runs the single-threaded word frontier. Results are
// bit-for-bit identical to Form on any engine.
func NewSession(cfg Config, faults []grid.Point) (*Session, error) {
	topo, err := mesh.New(cfg.Width, cfg.Height, cfg.Kind)
	if err != nil {
		return nil, err
	}
	return NewSessionOn(cfg, topo, grid.PointSetOf(faults...))
}

// NewSessionOn is NewSession on an existing topology and fault set. The
// set is cloned, not retained.
func NewSessionOn(cfg Config, topo *mesh.Topology, faults *grid.PointSet) (*Session, error) {
	field, err := incremental.New(topo, faults, fieldConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("core: session: %w", err)
	}
	return &Session{cfg: cfg, field: field}, nil
}

// RestoreSession rebuilds a session from a previously snapshotted
// fixpoint — the fault set plus both label planes — without re-running
// the formation: the labels are validated and adopted directly
// (incremental.Load), so restoring costs O(n) region extraction instead
// of the full fixpoint iteration. topo, faults and the label slices are
// cloned or treated read-only by the callee; the session is
// indistinguishable from one that computed the labels itself, which the
// serving differential tests pin against a fresh formation.
func RestoreSession(cfg Config, topo *mesh.Topology, faults *grid.PointSet, unsafe, enabled []bool) (*Session, error) {
	field, err := incremental.Load(topo, faults, fieldConfig(cfg), unsafe, enabled)
	if err != nil {
		return nil, fmt.Errorf("core: session: %w", err)
	}
	return &Session{cfg: cfg, field: field}, nil
}

// AddFaults marks the given nodes faulty and restabilizes the formation
// incrementally. Already-faulty points are skipped. On error the trace
// is flushed so a session abandoned mid-churn still leaves valid NDJSON
// behind.
func (s *Session) AddFaults(ps ...grid.Point) (Delta, error) {
	d, err := s.field.Add(ps...)
	if err != nil {
		_ = s.cfg.Recorder.Flush()
		return d, err
	}
	s.applied(d)
	return d, nil
}

// RemoveFaults repairs the given nodes and restabilizes the formation
// incrementally. Non-faulty points are skipped. Errors flush the trace
// like AddFaults.
func (s *Session) RemoveFaults(ps ...grid.Point) (Delta, error) {
	d, err := s.field.Remove(ps...)
	if err != nil {
		_ = s.cfg.Recorder.Flush()
		return d, err
	}
	s.applied(d)
	return d, nil
}

// applied advances the generation counter and runs the delta hooks
// after a successfully applied mutation.
func (s *Session) applied(d Delta) {
	s.gen.Add(1)
	for _, fn := range s.onDelta {
		fn(d)
	}
}

// Generation returns the number of deltas successfully applied to the
// session so far. Safe to read from any goroutine.
func (s *Session) Generation() uint64 { return s.gen.Load() }

// OnDelta registers fn to run synchronously on the mutating goroutine
// after each successful AddFaults/RemoveFaults, in registration order.
// Derived-state maintainers (routeidx.Publish) use it to rebuild
// incrementally from the delta instead of polling. Registration is not
// synchronized: register all hooks before sharing the session across
// goroutines, the way the serving layer registers at tenant creation.
func (s *Session) OnDelta(fn func(Delta)) { s.onDelta = append(s.onDelta, fn) }

// Result snapshots the current formation as a Result, interchangeable
// with the output of a from-scratch Form on the same fault set. The
// fault set and label slices are copied, so the snapshot stays valid
// across later deltas; the region structures are shared (they are
// replaced, never mutated, by deltas). Region and block pointers are
// stable across deltas for components whose label sets did not change —
// region.UpdateRegions keeps survivor pointers — which is the dirty
// information internal/routeidx uses for O(changed-regions) incremental
// index rebuilds. RoundsPhase1/RoundsPhase2 report
// the initial full formation's rounds — per-delta restabilization
// rounds are on the Delta values the mutating calls return.
func (s *Session) Result() *Result {
	f := s.field
	return &Result{
		Topo:         f.Topo(),
		Faults:       f.Faults().Clone(),
		Unsafe:       append([]bool(nil), f.Unsafe()...),
		Enabled:      append([]bool(nil), f.Enabled()...),
		Blocks:       f.Blocks(),
		Regions:      f.Regions(),
		RoundsPhase1: initialRounds1(f),
		RoundsPhase2: initialRounds2(f),
	}
}

// fieldConfig maps a formation Config onto the incremental field's.
func fieldConfig(cfg Config) incremental.Config {
	return incremental.Config{
		Safety:       cfg.Safety,
		Connectivity: cfg.Connectivity,
		MaxRounds:    cfg.MaxRounds,
		Workers:      cfg.Workers,
		Recorder:     cfg.Recorder,
		Costs:        cfg.Costs,
		Strict:       cfg.StrictInvariants,
	}
}

func initialRounds1(f *incremental.Field) int { r, _ := f.InitialRounds(); return r }
func initialRounds2(f *incremental.Field) int { _, r := f.InitialRounds(); return r }

// Close is a no-op kept for API compatibility: a session holds no
// goroutines or other resources beyond its memory (the initial
// formation's worker pool is released before NewSession returns). It is
// safe to call any number of times.
func (s *Session) Close() {}

// Topo returns the machine.
func (s *Session) Topo() *mesh.Topology { return s.field.Topo() }

// Faults returns the current fault set. The caller must not mutate it.
func (s *Session) Faults() *grid.PointSet { return s.field.Faults() }
