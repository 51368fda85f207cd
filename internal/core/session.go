package core

import (
	"fmt"

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
	// last is the latest Frame, whose unchanged plane chunks the next
	// Frame shares.
	last *Frame
}

// NewSession computes a full formation for the initial fault list and
// returns the session tracking it. A session always runs on the
// word-parallel bitset engine and ignores cfg.Engine: the initial
// formation runs the full word sweep and every delta the word
// frontier, both on the calling goroutine. Results are bit-for-bit
// identical to Form on any engine.
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
	return newSession(cfg, field), nil
}

// RestoreSession rebuilds a session from a previously snapshotted
// fixpoint — the fault set plus both packed label planes — without
// re-running the formation: the planes are validated and adopted
// directly (incremental.Load), so restoring costs O(n) region
// extraction instead of the full fixpoint iteration. topo, faults and
// the planes are cloned or treated read-only by the callee; the session
// is indistinguishable from one that computed the labels itself, which
// the serving differential tests pin against a fresh formation.
func RestoreSession(cfg Config, topo *mesh.Topology, faults *grid.PointSet, unsafe, enabled *grid.BitGrid) (*Session, error) {
	field, err := incremental.Load(topo, faults, fieldConfig(cfg), unsafe, enabled)
	if err != nil {
		return nil, fmt.Errorf("core: session: %w", err)
	}
	return newSession(cfg, field), nil
}

// newSession wraps a formed field.
func newSession(cfg Config, field *incremental.Field) *Session {
	return &Session{cfg: cfg, field: field}
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
	return d, nil
}

// Result snapshots the current formation as a Result, interchangeable
// with the output of a from-scratch Form on the same fault set. The
// fault set is copied and the label slices are unpacked from the packed
// planes, so the snapshot stays valid across later deltas; the region
// structures are shared (they are replaced, never mutated, by deltas).
// Region and block pointers are stable across deltas for components
// whose label sets did not change — region.Builder.UpdateRegions keeps
// survivor pointers. RoundsPhase1/RoundsPhase2 report the initial full
// formation's rounds — per-delta restabilization rounds are on the
// Delta values the mutating calls return.
func (s *Session) Result() *Result {
	f := s.field
	return &Result{
		Topo:         f.Topo(),
		Faults:       f.Faults().Clone(),
		Unsafe:       f.UnsafeBits().Bools(nil),
		Enabled:      f.EnabledBits().Bools(nil),
		Blocks:       f.Blocks(),
		Regions:      f.Regions(),
		RoundsPhase1: initialRounds1(f),
		RoundsPhase2: initialRounds2(f),
	}
}

// Frame snapshots the current formation as an immutable packed Frame:
// frozen word chunks of the fault plane and both label planes, with the
// region structures shared exactly as in Result. The field records
// every plane word a delta writes (incremental.Field's written sets),
// so Frame copies only the chunks holding such a word and shares every
// other chunk with the previous Frame: it costs O(written words) plus
// O(chunks) of header, never a scan of the planes or the fault set. The first Frame
// of a session, new or restored, copies every chunk. This is what a
// server publishes per batch. Its labels, counts and region lists equal
// Result's.
func (s *Session) Frame() *Frame {
	f := s.field
	var lastFaults, lastUnsafe, lastEnabled plane
	if s.last != nil {
		lastFaults, lastUnsafe, lastEnabled = s.last.Faults.pl, s.last.unsafe, s.last.enabled
	}
	s.last = &Frame{
		Topo: f.Topo(),
		Faults: FaultSet{
			topo: f.Topo(),
			pl:   publish(f.FaultBits().Words(), lastFaults, f.FaultWritten()),
			n:    f.Faults().Len(),
		},
		Blocks:       f.Blocks(),
		Regions:      f.Regions(),
		RoundsPhase1: initialRounds1(f),
		RoundsPhase2: initialRounds2(f),
		unsafe:       publish(f.UnsafeBits().Words(), lastUnsafe, f.UnsafeWritten()),
		enabled:      publish(f.EnabledBits().Words(), lastEnabled, f.EnabledWritten()),
	}
	f.ClearWritten()
	return s.last
}

// fieldConfig maps a formation Config onto the incremental field's.
func fieldConfig(cfg Config) incremental.Config {
	return incremental.Config{
		Safety:       cfg.Safety,
		Connectivity: cfg.Connectivity,
		MaxRounds:    cfg.MaxRounds,
		Recorder:     cfg.Recorder,
		Costs:        cfg.Costs,
		Strict:       cfg.StrictInvariants,
	}
}

func initialRounds1(f *incremental.Field) int { r, _ := f.InitialRounds(); return r }
func initialRounds2(f *incremental.Field) int { _, r := f.InitialRounds(); return r }

// Close is a no-op kept for API compatibility: a session holds no
// goroutines or other resources beyond its memory. It is safe to call
// any number of times.
func (s *Session) Close() {}

// Topo returns the machine.
func (s *Session) Topo() *mesh.Topology { return s.field.Topo() }

// Faults returns the current fault set. The caller must not mutate it.
func (s *Session) Faults() *grid.PointSet { return s.field.Faults() }
