package core

import (
	"math/rand"
	"strings"
	"testing"

	"ocpmesh/internal/fault"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/mesh"
	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	"ocpmesh/internal/status"
)

// TestObservatoryAcrossEngines runs the paper's Section 3 example on
// every engine with the counter fabric attached and strict monitors on:
// the run must succeed (no violations), emit the costs and
// block_converge events, and accumulate matching fabric totals.
func TestObservatoryAcrossEngines(t *testing.T) {
	fix := fault.SectionThreeExample()
	for _, engine := range []EngineKind{EngineSequential, EngineChannels, EngineBitset} {
		fabric := costs.NewFabric(2)
		sink := &obs.CollectSink{}
		rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
		res, err := FormSet(Config{
			Width: 5, Height: 5, Safety: status.Def2b, Engine: engine,
			Recorder: rec, Costs: fabric, StrictInvariants: true,
		}, fix.Faults)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}

		if got := sink.Filter(obs.EInvariantViolation); len(got) != 0 {
			t.Fatalf("%s: invariant violations on the paper example: %+v", engine, got)
		}
		costsEvents := sink.Filter(obs.ECosts)
		if len(costsEvents) != 2 {
			t.Fatalf("%s: %d costs events, want one per phase", engine, len(costsEvents))
		}
		for _, e := range costsEvents {
			if e.Engine != engine.String() || e.Diameter != res.MaxBlockDiameter() || e.N != fix.Faults.Len() {
				t.Fatalf("%s: costs event fields wrong: %+v", engine, e)
			}
			if e.Rounds > e.Diameter {
				t.Fatalf("%s: %s rounds %d exceed d(B) %d without a violation event",
					engine, e.Phase, e.Rounds, e.Diameter)
			}
		}
		// Phase 1's flips are exactly the unsafe nonfaulty nodes (faulty
		// nodes are fixed unsafe from round 0, never flipping), and the
		// round totals match the result.
		if costsEvents[0].Phase != "phase1" || costsEvents[0].Rounds != res.RoundsPhase1 {
			t.Fatalf("%s: phase1 costs = %+v, result rounds %d", engine, costsEvents[0], res.RoundsPhase1)
		}
		if want := res.UnsafeNonfaultyCount(); costsEvents[0].Changed != want {
			t.Fatalf("%s: phase1 flips = %d, want the %d unsafe nonfaulty nodes", engine, costsEvents[0].Changed, want)
		}

		blockEvents := sink.Filter(obs.EBlockConverge)
		if want := 2 * len(res.Blocks); len(blockEvents) != want {
			t.Fatalf("%s: %d block_converge events, want %d", engine, len(blockEvents), want)
		}
		for _, e := range blockEvents {
			if e.Block < 1 || e.Block > len(res.Blocks) || e.Rounds > e.Diameter {
				t.Fatalf("%s: block_converge event out of bounds: %+v", engine, e)
			}
		}

		snap := fabric.Snapshot()
		if snap.Phases != 2 || snap.Violations != 0 {
			t.Fatalf("%s: snapshot = %+v", engine, snap)
		}
		if snap.Rounds != int64(res.RoundsPhase1+res.RoundsPhase2) {
			t.Fatalf("%s: fabric rounds %d != result %d+%d", engine, snap.Rounds, res.RoundsPhase1, res.RoundsPhase2)
		}
		if snap.Messages == 0 || snap.LabelFlips == 0 {
			t.Fatalf("%s: fabric missing traffic: %+v", engine, snap)
		}
		if engine == EngineBitset && snap.WordsTouched == 0 {
			t.Fatalf("bitset engine touched no words: %+v", snap)
		}
	}
}

// TestObservatoryResultsUnchanged pins that attaching the fabric does
// not perturb results: same fixpoint with and without the observatory.
func TestObservatoryResultsUnchanged(t *testing.T) {
	topo, err := mesh.New(24, 24, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Uniform{Count: 5}.Generate(topo, rand.New(rand.NewSource(3)))
	for _, engine := range []EngineKind{EngineSequential, EngineBitset} {
		plain, err := FormOn(Config{Width: 24, Height: 24, Engine: engine}, topo, faults)
		if err != nil {
			t.Fatal(err)
		}
		observed, err := FormOn(Config{
			Width: 24, Height: 24, Engine: engine, Costs: costs.NewFabric(0), StrictInvariants: true,
		}, topo, faults)
		if err != nil {
			t.Fatal(err)
		}
		if plain.RoundsPhase1 != observed.RoundsPhase1 || plain.RoundsPhase2 != observed.RoundsPhase2 {
			t.Fatalf("%s: rounds differ with fabric attached", engine)
		}
		for i := range plain.Unsafe {
			if plain.Unsafe[i] != observed.Unsafe[i] || plain.Enabled[i] != observed.Enabled[i] {
				t.Fatalf("%s: labels differ with fabric attached at node %d", engine, i)
			}
		}
	}
}

// TestObservatorySharedFabric pins tracker recycling: repeated
// formations on one fabric reuse the per-node trackers (sparse-scrubbed
// between runs), and a stale entry must never leak into a later run's
// monitors — every run stays violation-free and the fabric counts one
// phase pair per run.
func TestObservatorySharedFabric(t *testing.T) {
	fix := fault.SectionThreeExample()
	fabric := costs.NewFabric(1)
	engines := []EngineKind{EngineSequential, EngineBitset, EngineBitset, EngineSequential, EngineBitset}
	for i, engine := range engines {
		res, err := FormSet(Config{
			Width: 5, Height: 5, Safety: status.Def2b, Engine: engine,
			Costs: fabric, StrictInvariants: true,
		}, fix.Faults)
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, engine, err)
		}
		if res.RoundsPhase1 == 0 {
			t.Fatalf("run %d (%s): no phase-1 rounds", i, engine)
		}
	}
	snap := fabric.Snapshot()
	if snap.Phases != int64(2*len(engines)) || snap.Violations != 0 {
		t.Fatalf("snapshot after %d shared-fabric runs = %+v", len(engines), snap)
	}
}

// doctoredPhase builds a collector carrying a hand-written history so
// every monitor check can be exercised; only rounds_bound also has a
// genuinely violating run (TestMonitorFlagsGenuineRoundsBound).
func doctoredPhase(t *testing.T, fabric *costs.Fabric, phase string, nodes int) *costs.Phase {
	t.Helper()
	pc := costs.NewPhase(fabric, phase, nodes)
	if pc == nil || pc.Tracker() == nil {
		t.Fatal("collector construction failed")
	}
	return pc
}

// TestMonitorDetectsViolations feeds monitorForm doctored per-phase
// histories over a real result and checks each monitor fires, emits its
// invariant_violation event, and counts into the fabric.
func TestMonitorDetectsViolations(t *testing.T) {
	fix := fault.SectionThreeExample()
	res, err := FormSet(Config{Width: 5, Height: 5, Safety: status.Def2b}, fix.Faults)
	if err != nil {
		t.Fatal(err)
	}
	maxD := res.MaxBlockDiameter()
	n := res.Topo.Size()
	unsafeIdx, safeIdx := -1, -1
	for i := range res.Unsafe {
		if res.Unsafe[i] && unsafeIdx < 0 {
			unsafeIdx = i
		}
		if !res.Unsafe[i] && safeIdx < 0 {
			safeIdx = i
		}
	}

	cases := []struct {
		name    string
		monitor string
		build   func(fabric *costs.Fabric) (*costs.Phase, *costs.Phase)
	}{
		{
			name:    "rounds exceed max d(B)",
			monitor: "rounds_bound",
			build: func(fabric *costs.Fabric) (*costs.Phase, *costs.Phase) {
				pc1 := doctoredPhase(t, fabric, "phase1", n)
				pc1.Round(maxD+3, 1, 10)
				pc1.Tracker()[unsafeIdx] = 1
				return pc1, doctoredPhase(t, fabric, "phase2", n)
			},
		},
		{
			name:    "flip against the monotone direction",
			monitor: "phase_monotone",
			build: func(fabric *costs.Fabric) (*costs.Phase, *costs.Phase) {
				pc1 := doctoredPhase(t, fabric, "phase1", n)
				pc1.Round(1, 1, 10)
				pc1.Tracker()[safeIdx] = 1 // flipped node ends safe: illegal
				return pc1, doctoredPhase(t, fabric, "phase2", n)
			},
		},
		{
			name:    "label flips back",
			monitor: "phase_monotone",
			build: func(fabric *costs.Fabric) (*costs.Phase, *costs.Phase) {
				pc1 := doctoredPhase(t, fabric, "phase1", n)
				pc1.Round(1, 2, 10) // two flips...
				pc1.Tracker()[unsafeIdx] = 1
				return pc1, doctoredPhase(t, fabric, "phase2", n) // ...one distinct node
			},
		},
		{
			name:    "frontier re-entry",
			monitor: "frontier_shrink",
			build: func(fabric *costs.Fabric) (*costs.Phase, *costs.Phase) {
				pc1 := doctoredPhase(t, fabric, "phase1", n)
				pc1.Violation()
				return pc1, doctoredPhase(t, fabric, "phase2", n)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.monitor, func(t *testing.T) {
			fabric := costs.NewFabric(1)
			sink := &obs.CollectSink{}
			rec := obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
			pc1, pc2 := tc.build(fabric)
			violations := monitorForm(rec, fabric, "sequential", res, pc1, pc2)
			if len(violations) == 0 {
				t.Fatalf("%s not detected", tc.name)
			}
			found := false
			for _, v := range violations {
				if v.Monitor == tc.monitor {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %+v do not name %s", violations, tc.monitor)
			}
			events := sink.Filter(obs.EInvariantViolation)
			if len(events) != len(violations) {
				t.Fatalf("%d violation events for %d violations", len(events), len(violations))
			}
			for _, e := range events {
				if e.Err == "" || e.Phase == "" || e.Engine != "sequential" {
					t.Fatalf("violation event incomplete: %+v", e)
				}
			}
			if snap := fabric.Snapshot(); snap.Violations < int64(len(violations)) {
				t.Fatalf("fabric violations %d < reported %d", snap.Violations, len(violations))
			}
			if err := violationError(violations); err == nil ||
				!strings.Contains(err.Error(), tc.monitor) {
				t.Fatalf("violationError = %v, must name the monitor", err)
			}
		})
	}
}

// TestStrictInvariantsDefaultsFabric pins the promise in the Config
// docs: StrictInvariants with a nil Costs fabric still runs the
// monitors (a private fabric is created).
func TestStrictInvariantsDefaultsFabric(t *testing.T) {
	res, err := Form(Config{Width: 8, Height: 8, StrictInvariants: true},
		[]grid.Point{{X: 3, Y: 3}, {X: 4, Y: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Blocks) == 0 {
		t.Fatal("formation result missing")
	}
}

// TestMonitorFlagsGenuineRoundsBound pins a real, undoctored formation
// that exceeds the paper's round bound: a 100 x 100 mesh with 85 uniform
// faults (0.85%, inside the paper's Section 5 range) under Def 2a, drawn
// by cell (f=85, rep=14) of the X2 routing sweep at seed 1. Both phases
// take 9 rounds against max d(B) = 7, so a strict formation must fail
// with rounds_bound on every engine, and a lenient one must still return
// its result and trace the violations.
func TestMonitorFlagsGenuineRoundsBound(t *testing.T) {
	topo, err := mesh.New(100, 100, mesh.Mesh2D)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Uniform{Count: 85}.Generate(topo, rand.New(rand.NewSource(1+85*7_368_787+14)))
	cfg := Config{Width: 100, Height: 100, Safety: status.Def2a}

	for _, eng := range []EngineKind{EngineSequential, EngineChannels, EngineBitset} {
		strict := cfg
		strict.Engine, strict.StrictInvariants = eng, true
		_, err := FormOn(strict, topo, faults)
		for _, want := range []string{
			"rounds_bound[phase1]: 9 rounds exceed max d(B) = 7",
			"rounds_bound[phase2]: 9 rounds exceed max d(B) = 7",
		} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%v: strict formation error = %v, want it to contain %q", eng, err, want)
			}
		}
	}

	sink := &obs.CollectSink{}
	cfg.Recorder = obs.NewRecorder(obs.NewTracer(sink), obs.NewRegistry())
	cfg.Costs = costs.NewFabric(1)
	res, err := FormOn(cfg, topo, faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsPhase1 != 9 || res.RoundsPhase2 != 9 || res.MaxBlockDiameter() != 7 {
		t.Fatalf("rounds %d/%d, max d(B) %d; want 9/9 and 7",
			res.RoundsPhase1, res.RoundsPhase2, res.MaxBlockDiameter())
	}
	events := sink.Filter(obs.EInvariantViolation)
	if len(events) != 2 || events[0].Name != "rounds_bound" || events[1].Name != "rounds_bound" {
		t.Fatalf("violation events = %+v, want rounds_bound in both phases", events)
	}
	if got := cfg.Costs.Snapshot().Violations; got != 2 {
		t.Fatalf("fabric violations = %d, want 2", got)
	}
}
