package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/simnet/simnettest"
)

// spreadRule is a simple monotone test rule: a node becomes marked when
// any neighbor is marked; faulty nodes are permanently marked; ghosts are
// unmarked. The fixpoint marks every node (when any fault exists) and the
// round count equals the maximum distance from a fault.
type spreadRule struct{}

func (spreadRule) Name() string               { return "spread" }
func (spreadRule) Init(*Env, grid.Point) bool { return false }
func (spreadRule) GhostLabel() bool           { return false }
func (spreadRule) FaultyLabel() bool          { return true }
func (spreadRule) Step(_ *Env, _ grid.Point, cur bool, nbr [4]bool) bool {
	if cur {
		return true
	}
	for _, m := range nbr {
		if m {
			return true
		}
	}
	return false
}

// StepWord is Step over 64 lanes, so the bitset engine can run the rule.
func (spreadRule) StepWord(cur, west, east, south, north uint64) uint64 {
	return cur | west | east | south | north
}

// flipRule violates monotonicity: every node toggles each round.
type flipRule struct{}

func (flipRule) Name() string                                        { return "flip" }
func (flipRule) Init(*Env, grid.Point) bool                          { return false }
func (flipRule) GhostLabel() bool                                    { return false }
func (flipRule) FaultyLabel() bool                                   { return false }
func (flipRule) Step(_ *Env, _ grid.Point, cur bool, _ [4]bool) bool { return !cur }
func (flipRule) StepWord(cur, _, _, _, _ uint64) uint64              { return ^cur }

func engines() []Engine { return []Engine{Sequential(), Channels(), Bitset(3)} }

func mustEnv(t *testing.T, topo *mesh.Topology, faults *grid.PointSet) *Env {
	t.Helper()
	env, err := NewEnv(topo, faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	topo := mesh.MustNew(3, 3, mesh.Mesh2D)
	if _, err := NewEnv(nil, nil, nil); err == nil {
		t.Fatal("nil topology must fail")
	}
	if _, err := NewEnv(topo, grid.PointSetOf(grid.Pt(5, 5)), nil); err == nil {
		t.Fatal("fault outside machine must fail")
	}
	if _, err := NewEnv(topo, nil, make([]bool, 4)); err == nil {
		t.Fatal("short aux must fail")
	}
	env, err := NewEnv(topo, nil, nil)
	if err != nil || env.Faulty == nil {
		t.Fatalf("nil faults must become empty set: %v", err)
	}
}

func TestSpreadRounds(t *testing.T) {
	// Single fault at a corner of a 5x5 mesh: marking spreads one L1 ring
	// per round, reaching the far corner (distance 8) after 8 rounds.
	topo := mesh.MustNew(5, 5, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.PointSetOf(grid.Pt(0, 0)))
	for _, eng := range engines() {
		res, err := eng.Run(env, spreadRule{}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Rounds != 8 {
			t.Errorf("%s: Rounds = %d, want 8", eng.Name(), res.Rounds)
		}
		for i, l := range res.Labels {
			if !l {
				t.Errorf("%s: node %v unmarked at fixpoint", eng.Name(), topo.PointAt(i))
			}
		}
	}
}

func TestNoFaultsStabilizesImmediately(t *testing.T) {
	topo := mesh.MustNew(4, 4, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.NewPointSet())
	for _, eng := range engines() {
		res, err := eng.Run(env, spreadRule{}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Rounds != 0 {
			t.Errorf("%s: Rounds = %d, want 0", eng.Name(), res.Rounds)
		}
		for _, l := range res.Labels {
			if l {
				t.Errorf("%s: spurious mark", eng.Name())
			}
		}
	}
}

func TestAllFaulty(t *testing.T) {
	// Every node faulty: no participants; engines must return the initial
	// labels without hanging.
	topo := mesh.MustNew(3, 3, mesh.Mesh2D)
	faults := grid.PointSetOf(topo.Points()...)
	env := mustEnv(t, topo, faults)
	for _, eng := range engines() {
		res, err := eng.Run(env, spreadRule{}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Rounds != 0 {
			t.Errorf("%s: Rounds = %d, want 0", eng.Name(), res.Rounds)
		}
		for _, l := range res.Labels {
			if !l {
				t.Errorf("%s: faulty node must carry FaultyLabel", eng.Name())
			}
		}
	}
}

func TestNonMonotoneRuleErrors(t *testing.T) {
	topo := mesh.MustNew(3, 3, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.NewPointSet())
	for _, eng := range engines() {
		if _, err := eng.Run(env, flipRule{}, Options{MaxRounds: 10}); err == nil {
			t.Errorf("%s: oscillating rule must exceed MaxRounds", eng.Name())
		}
	}
}

func TestOnRoundObserver(t *testing.T) {
	topo := mesh.MustNew(4, 1, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.PointSetOf(grid.Pt(0, 0)))
	for _, eng := range engines() {
		var rounds []int
		marked := 0
		res, err := eng.Run(env, spreadRule{}, Options{
			OnRound: func(r int, labels []bool) {
				rounds = append(rounds, r)
				marked = 0
				for _, l := range labels {
					if l {
						marked++
					}
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if len(rounds) != res.Rounds {
			t.Errorf("%s: observer saw %d rounds, result says %d", eng.Name(), len(rounds), res.Rounds)
		}
		for i, r := range rounds {
			if r != i+1 {
				t.Errorf("%s: round numbering %v", eng.Name(), rounds)
			}
		}
		if marked != topo.Size() {
			t.Errorf("%s: final observation saw %d marked", eng.Name(), marked)
		}
	}
}

func TestTorusSpread(t *testing.T) {
	// On a 6x6 torus a single fault reaches everything within the torus
	// diameter (6).
	topo := mesh.MustNew(6, 6, mesh.Torus2D)
	env := mustEnv(t, topo, grid.PointSetOf(grid.Pt(0, 0)))
	for _, eng := range engines() {
		res, err := eng.Run(env, spreadRule{}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Rounds != topo.Diameter() {
			t.Errorf("%s: Rounds = %d, want %d", eng.Name(), res.Rounds, topo.Diameter())
		}
	}
}

// traceRun runs the engine with a collecting recorder and returns the
// result plus the round-event stream, normalized for comparison: Seq and
// TNS are emission bookkeeping (wall-clock dependent), so they are
// zeroed; every semantic field must match between engines.
func traceRun(t *testing.T, eng Engine, env *Env, phase string) (*Result, []obs.Event) {
	t.Helper()
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	res, err := eng.Run(env, spreadRule{}, Options{Recorder: rec, Phase: phase})
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	events := sink.Filter(obs.ERound)
	for i := range events {
		events[i].Seq, events[i].TNS = 0, 0
	}
	return res, events
}

// The two engines must agree exactly — labels, round counts, and the
// per-round trace event streams (round index, changed-label count,
// messages exchanged) — on random configurations. This is the
// equivalence result that lets the fast sequential engine stand in for
// the distributed one in sweeps, now pinned at trace granularity.
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		topo, faults := simnettest.RandomConfig(rng)
		env := mustEnv(t, topo, faults)

		seq, seqEvents := traceRun(t, Sequential(), env, "p")
		for _, eng := range []Engine{Channels(), Bitset(1), Bitset(2), Bitset(5)} {
			got, gotEvents := traceRun(t, eng, env, "p")
			if seq.Rounds != got.Rounds {
				t.Fatalf("trial %d (%v): rounds differ: seq=%d %s=%d",
					trial, topo, seq.Rounds, eng.Name(), got.Rounds)
			}
			for i := range seq.Labels {
				if seq.Labels[i] != got.Labels[i] {
					t.Fatalf("trial %d (%v): %s label mismatch at %v",
						trial, topo, eng.Name(), topo.PointAt(i))
				}
			}
			if !reflect.DeepEqual(seqEvents, gotEvents) {
				t.Fatalf("trial %d (%v): trace streams differ:\nseq: %+v\n%s: %+v",
					trial, topo, seqEvents, eng.Name(), gotEvents)
			}
		}
		if len(seqEvents) != seq.Rounds {
			t.Fatalf("trial %d: %d round events for %d rounds", trial, len(seqEvents), seq.Rounds)
		}
	}
}

// TestRoundEventContents pins the semantics of the round event fields on
// a hand-checkable configuration.
func TestRoundEventContents(t *testing.T) {
	// 4x1 path with a fault at the west end: marking spreads one node per
	// round; the three nonfaulty nodes exchange 2+2 = 4 messages per
	// round (the two interior directed links, both senses).
	topo := mesh.MustNew(4, 1, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.PointSetOf(grid.Pt(0, 0)))
	for _, eng := range engines() {
		res, events := traceRun(t, eng, env, "spreadphase")
		if res.Rounds != 3 || len(events) != 3 {
			t.Fatalf("%s: rounds=%d events=%d, want 3/3", eng.Name(), res.Rounds, len(events))
		}
		for i, e := range events {
			if e.Phase != "spreadphase" || e.Round != i+1 || e.Changed != 1 || e.Msgs != 4 {
				t.Fatalf("%s: event %d = %+v", eng.Name(), i, e)
			}
		}
	}
}

// TestRecorderMetrics checks the counters fed by the engines.
func TestRecorderMetrics(t *testing.T) {
	topo := mesh.MustNew(5, 5, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.PointSetOf(grid.Pt(0, 0)))
	rec := obs.NewRecorder(nil, obs.NewRegistry())
	res, err := Sequential().Run(env, spreadRule{}, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Metrics().Snapshot()
	if got := snap.Counters["simnet_rounds"]; got != int64(res.Rounds) {
		t.Fatalf("simnet_rounds = %d, want %d", got, res.Rounds)
	}
	if got := snap.Counters["simnet_messages"]; got != int64(res.Rounds*liveMessages(env)) {
		t.Fatalf("simnet_messages = %d, want %d", got, res.Rounds*liveMessages(env))
	}
}

// TestChannelEngineTracedUnderRace exercises the distributed engine with
// tracing and metrics enabled; `go test -race` turns this into the
// data-race check the observability layer must pass.
func TestChannelEngineTracedUnderRace(t *testing.T) {
	topo := mesh.MustNew(8, 8, mesh.Mesh2D)
	env := mustEnv(t, topo, grid.PointSetOf(grid.Pt(0, 0), grid.Pt(5, 5), grid.Pt(2, 6)))
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	res, err := Channels().Run(env, spreadRule{}, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Filter(obs.ERound)) != res.Rounds {
		t.Fatalf("event count %d != rounds %d", len(sink.Filter(obs.ERound)), res.Rounds)
	}
}

func TestEngineNames(t *testing.T) {
	if Sequential().Name() != "sequential" || Channels().Name() != "channels" {
		t.Fatal("engine names wrong")
	}
}
